"""Benchmarks for the workload sender: pacing overhead and fluid speedup.

The shaped sender (mice burst, elephants pace — per-flow plans plus
per-link byte accounting on every hop) must stay within
``PACING_OVERHEAD_CEILING`` of the historical constant-spacing sender on
the same world and flow mix.  The fluid tier must beat the packet-level
sender by at least ``FLUID_SPEEDUP_FLOOR`` on a bulk-dominated workload —
the wall-clock win that makes million-flow cells interactive.  All runs
restore the same cached 60-site world, so the comparisons time exactly
the workload + accounting hot path, not world construction.
"""

import os
import time

from conftest import best_of

from repro.experiments.scenario import ScenarioConfig
from repro.experiments.workload import WorkloadConfig, run_workload
from repro.experiments.worldbuild import SnapshotStore

#: Shaped-vs-constant wall-time ceiling the overhead benchmark asserts.
#: Locally the contract is 1.5x (observed well under, both sides timed
#: best-of-3); CI runners are noisy, so the workflow relaxes the gate via
#: this env var.
PACING_OVERHEAD_CEILING = float(
    os.environ.get("REPRO_PACING_OVERHEAD_CEILING", "1.5"))

#: Minimum fluid-over-packet speedup on the bulk workload.  Locally the
#: contract is 5x (observed far above); CI relaxes it via the env var.
FLUID_SPEEDUP_FLOOR = float(
    os.environ.get("REPRO_FLUID_SPEEDUP_FLOOR", "5.0"))

CONFIG = ScenarioConfig(control_plane="pce", num_sites=60, num_providers=8,
                        access_rate_bps=10_000_000.0, tracing=False)


def _workload(pacing):
    return WorkloadConfig(num_flows=150, arrival_rate=60.0, zipf_s=1.2,
                          size_dist="pareto", packets_per_flow=6,
                          payload_bytes=1200, pacing=pacing,
                          pace_rate_bps=2_000_000.0)


_STORE = SnapshotStore()


def _run(pacing):
    scenario, _ = _STORE.world_for(CONFIG)  # build once, reset after
    return run_workload(scenario, _workload(pacing))


def test_bench_workload_constant(benchmark):
    """Constant-spacing sender at 60 sites (the pacing-overhead baseline)."""
    _run("constant")  # warm the world cache: time a restore+run, not a build
    records = benchmark.pedantic(_run, args=("constant",),
                                 rounds=1, iterations=1)
    assert len(records) == 150
    assert all(r.flow_kind == "constant" for r in records if not r.failed)


def test_bench_workload_shaped(benchmark):
    """Shaped sender must stay within the overhead ceiling of constant."""
    _run("shaped")  # warm the world cache so both sides time a restore+run

    constant_elapsed = best_of(lambda: _run("constant"))
    shaped_elapsed = best_of(lambda: _run("shaped"))
    records = benchmark.pedantic(_run, args=("shaped",),
                                 rounds=1, iterations=1)

    kinds = {r.flow_kind for r in records if not r.failed}
    assert "mouse" in kinds and "elephant" in kinds, (
        f"shaped run produced no mice/elephant mix: {kinds}")
    overhead = shaped_elapsed / constant_elapsed
    print(f"\n  constant {constant_elapsed:.3f}s, shaped {shaped_elapsed:.3f}s "
          f"-> {overhead:.2f}x")
    assert overhead <= PACING_OVERHEAD_CEILING, (
        f"shaped sender {overhead:.2f}x slower than constant spacing "
        f"(ceiling {PACING_OVERHEAD_CEILING}x)")


def _bulk_workload(pacing):
    """Bulk-dominated mix: every flow is 200 packets, all above threshold.

    In ``shaped`` mode each flow is a paced elephant — 200 per-packet
    timeout/transmission event chains.  In ``fluid`` mode the same flows
    advance as a probe plus four quarter-second chunks.
    """
    return WorkloadConfig(num_flows=120, arrival_rate=60.0, zipf_s=1.2,
                          size_dist="constant", packets_per_flow=200,
                          payload_bytes=1200, pacing=pacing,
                          pace_rate_bps=2_000_000.0,
                          elephant_threshold=10.0, fluid_threshold=10.0,
                          grace_period=10.0)


def _run_bulk(pacing):
    scenario, _ = _STORE.world_for(CONFIG)
    return run_workload(scenario, _bulk_workload(pacing))


def test_bench_workload_bulk_packet(benchmark):
    """Packet-level elephants on the bulk mix (the fluid-speedup baseline)."""
    _run_bulk("shaped")  # warm the world cache: time a restore+run
    records = benchmark.pedantic(_run_bulk, args=("shaped",),
                                 rounds=1, iterations=1)
    assert all(r.flow_kind == "elephant" for r in records if not r.failed)


def test_bench_workload_bulk_fluid(benchmark):
    """Fluid chunks must beat packet elephants by the speedup floor."""
    _run_bulk("fluid")  # warm the world cache so both sides time restore+run

    started = time.perf_counter()
    _run_bulk("shaped")
    packet_elapsed = time.perf_counter() - started

    records = benchmark.pedantic(_run_bulk, args=("fluid",),
                                 rounds=1, iterations=1)
    fluid_elapsed = benchmark.stats.stats.total

    ok = [r for r in records if not r.failed]
    assert ok and all(r.flow_kind == "fluid" for r in ok)
    assert all(r.bytes_sent == r.bytes_budget for r in ok)
    speedup = packet_elapsed / fluid_elapsed
    print(f"\n  packet {packet_elapsed:.3f}s, fluid {fluid_elapsed:.3f}s "
          f"-> {speedup:.1f}x")
    assert speedup >= FLUID_SPEEDUP_FLOOR, (
        f"fluid sender only {speedup:.1f}x faster than packet elephants "
        f"(floor {FLUID_SPEEDUP_FLOOR}x)")
