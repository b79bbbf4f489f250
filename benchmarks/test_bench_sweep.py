"""Micro-benchmarks for the sweep hot path: FIB churn and cell fan-out.

``BENCH_*.json`` tracking starts here for the structures this PR optimizes:
the FIB's install->expire churn (tables must stay O(live), and fast),
the TtlCache's never-re-touched-key churn, and the sweep engine's per-cell
cost with tracing disabled.
"""

from repro.dns.cache import TtlCache
from repro.experiments.sweep import SweepGrid, expand_grid, run_cell, run_sweep
from repro.net.addresses import IPv4Prefix
from repro.net.fib import Fib
from repro.sim import Simulator


def test_bench_fib_install_expire_churn(benchmark):
    """N disjoint /24 install->remove cycles; nothing may be left behind
    (``node_count`` is the trie-equivalent size of the live prefix set)."""
    prefixes = [IPv4Prefix.containing((100 << 24) + (i << 8), 24)
                for i in range(512)]

    def churn():
        fib = Fib()
        for _round in range(4):
            for prefix in prefixes:
                fib.add(prefix, "tag")
            for prefix in prefixes:
                fib.remove(prefix)
        return fib.node_count()

    assert benchmark(churn) == 1  # only the root survives


def test_bench_fib_churn_with_live_working_set(benchmark):
    """Churn against a resident working set: size tracks the live set."""
    live = [IPv4Prefix.containing((100 << 24) + (i << 8), 24) for i in range(128)]
    churned = [IPv4Prefix.containing((101 << 24) + (i << 8), 24)
               for i in range(512)]

    def churn():
        fib = Fib()
        for prefix in live:
            fib.add(prefix, "keep")
        for prefix in churned:
            fib.add(prefix, "tmp")
            fib.remove(prefix)
        return len(fib), fib.node_count()

    size, nodes = benchmark(churn)
    assert size == 128
    assert nodes <= 1 + 128 * 24  # bounded by the live set, not the churn


def test_bench_ttl_cache_churn(benchmark):
    """Insert-once-never-read keys: compaction keeps the dict bounded."""

    def churn():
        sim = Simulator()
        cache = TtlCache(sim, name="bench")
        for i in range(20_000):
            cache.put(i, i, ttl=0.5)
            sim.now += 0.1
        return cache.stored_entries

    assert benchmark(churn) < 2 * TtlCache.COMPACT_THRESHOLD


def test_bench_sweep_cell(benchmark):
    """One moderately sized cell, tracing disabled (the sweep unit of work)."""
    grid = SweepGrid(control_planes=("alt",), site_counts=(16,), seeds=(7,),
                     zipf_values=(1.2,), num_flows=30, arrival_rate=30.0)
    cell = expand_grid(grid)[0]

    result = benchmark.pedantic(run_cell, args=(cell,), rounds=1, iterations=1)
    assert result["metrics"]["flows"] == 30


def test_bench_sweep_fanout(benchmark):
    """A small multi-cell sweep end to end (expansion + run + aggregate)."""
    grid = SweepGrid(control_planes=("pce", "alt"), site_counts=(4,),
                     seeds=(1, 2), zipf_values=(1.0,), num_flows=10,
                     arrival_rate=20.0)

    payload = benchmark.pedantic(run_sweep, args=(grid,),
                                 kwargs={"workers": 1}, rounds=1, iterations=1)
    assert payload["num_cells"] == 4
    assert len(payload["aggregates"]) == 2
