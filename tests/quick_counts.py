"""Compare a quick perf-ledger run's exact counts with the committed ones.

    python3 benchmarks/perf/run.py --quick --out perf-quick.json
    python tests/quick_counts.py perf-quick.json

Event and link-call counts of the quick run are exact for a seed on every
Python, unlike a shared runner's timings, so they are compared for
equality with ``tests/golden/perf_quick_counts.json``: each workload and
counter that differs is printed with both values, and the script exits 1.
A change that means to move them copies the new ``per_layer`` values from
the ledger's output into the golden file.  Standard library only, like
``cross_version_digests.py``.
"""

import json
import os
import sys

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "perf_quick_counts.json")


def wrong_counts(expected, ledger):
    """``(workload, counter, expected, got)`` for each pinned count the
    ledger's ``workloads`` table does not repeat (got None: missing)."""
    wrong = []
    for workload, counters in sorted(expected.items()):
        per_layer = ledger.get(workload, {}).get("per_layer", {})
        for counter, value in sorted(counters.items()):
            got = per_layer.get(counter)
            if got != value:
                wrong.append((workload, counter, value, got))
    return wrong


def main(argv):
    if len(argv) != 1:
        print("usage: quick_counts.py LEDGER.json", file=sys.stderr)
        return 2
    with open(GOLDEN) as handle:
        expected = json.load(handle)
    with open(argv[0]) as handle:
        ledger = json.load(handle)["workloads"]
    wrong = wrong_counts(expected, ledger)
    if wrong:
        print("workload counter expected got")
        for row in wrong:
            print(*row)
        return 1
    print(f"{sum(map(len, expected.values()))} counts equal the golden file")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
