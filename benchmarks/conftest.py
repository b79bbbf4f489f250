"""Shared helpers for the benchmark harness.

Every benchmark regenerates one paper artefact (DESIGN.md §4): it runs the
experiment once inside pytest-benchmark's timer, prints the regenerated
table, and asserts the expected *shape* (who wins, by what kind of factor)
via the experiment's ``check_shape``.
"""

import time


def best_of(func, rounds=3):
    """Fastest of *rounds* timed calls of *func*, in seconds.

    The ratio gates divide two of these: a minimum discards the rounds a
    collection or a noisy host inflated, on both sides alike.
    """
    best = None
    for _ in range(rounds):
        started = time.perf_counter()
        func()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def run_and_check(benchmark, run, check, headers, title):
    """Run an experiment under the benchmark timer, print, and shape-check."""
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    from repro.metrics import format_table

    table = format_table(headers, [row.as_tuple() for row in rows], title=title)
    print()
    print(table)
    failures = check(rows)
    assert failures == [], f"shape check failed: {failures}"
    return rows
