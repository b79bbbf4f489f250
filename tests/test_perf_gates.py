"""The three wall-clock ratio gates: the only clock reads under ``tests/``.

Each answers "did the mechanism collapse?", not "did it drift": a world
cache that stopped caching reads ~1x, a fluid tier that fell back to
packets ~1x, a quadratic route install ~16x.  So each gate has one
constant, loose enough for a shared single-shot CI runner; anything finer
is the perf ledger's job (``benchmarks/perf``: ``world_lifecycle``,
``fluid_bulk``), which measures with calibration and quartiles.
"""

import time

import pytest

from repro.experiments.scenario import ScenarioConfig
from repro.experiments.workload import WorkloadConfig, run_workload
from repro.experiments.worldbuild import SnapshotStore, build_world
from repro.net.topogen import TopologySpec, build
from repro.sim import Simulator

#: A cached world must restore at least this much faster than it builds
#: (reads 14-18x; the sweep engine's reason to cache worlds at all).
RESTORE_SPEEDUP_FLOOR = 2.0
#: Fluid chunks over packet elephants on a bulk mix (reads 13.4-13.7x, and
#: 13.9-14.0x before the pump: at 4 chunks a flow this mix is per-flow
#: set-up, which batched booking does not touch; ``fluid_bulk`` is where
#: the pump shows).
FLUID_SPEEDUP_FLOOR = 3.0
#: Tiered build time for 4x the sites; quadratic is 16x (reads ~4.5x).
TIERED_SCALING_CEILING = 14.0


def best_of(func, rounds=3):
    """Fastest of *rounds* timed calls of *func*, in seconds.

    A minimum discards the rounds a collection or a noisy host inflated;
    every gate takes it on both sides of its ratio alike.
    """
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - started)
    return best


WORLDS = {
    "pce-120": ScenarioConfig(control_plane="pce", num_sites=120,
                              num_providers=8, tracing=False),
    # The failover preset's shape: periodic probe tasks are engine-owned
    # and re-armed on restore, so these worlds cache too.
    "probing-irc-60": ScenarioConfig(control_plane="pce", num_sites=60,
                                     num_providers=8, enable_probing=True,
                                     probe_period=0.3, probe_timeout=0.15,
                                     tracing=False),
}


@pytest.mark.parametrize("config", WORLDS.values(), ids=WORLDS)
def test_restore_beats_build(config):
    build_s = best_of(lambda: build_world(config))

    store = SnapshotStore()
    store.world_for(config)  # the miss: build + checkpoint
    restore_s = best_of(lambda: store.world_for(config))
    assert store.last_outcome == "hit" and store.stats.builds == 1

    speedup = build_s / restore_s
    print(f"\n  build {build_s:.3f}s, restore {restore_s:.4f}s -> {speedup:.1f}x")
    assert speedup >= RESTORE_SPEEDUP_FLOOR, (
        f"restore only {speedup:.1f}x faster than a fresh build")


def test_fluid_beats_packet_elephants():
    """120 flows x 200 packets, all above both thresholds: paced elephants
    send 200 per-packet event chains each, fluid flows a probe plus chunks."""
    config = ScenarioConfig(control_plane="pce", num_sites=60, num_providers=8,
                            access_rate_bps=10_000_000.0, tracing=False)
    store = SnapshotStore()

    def run(pacing):
        scenario, _ = store.world_for(config)
        records = run_workload(scenario, WorkloadConfig(
            num_flows=120, arrival_rate=60.0, zipf_s=1.2, size_dist="constant",
            packets_per_flow=200, payload_bytes=1200, pacing=pacing,
            pace_rate_bps=2_000_000.0, elephant_threshold=10.0,
            fluid_threshold=10.0, grace_period=10.0))
        return [record for record in records if not record.failed]

    run("fluid")  # build the world off the clock: both sides time restore + run
    elapsed, kinds = {}, {}
    for pacing in ("shaped", "fluid"):
        started = time.perf_counter()
        completed = run(pacing)
        elapsed[pacing] = time.perf_counter() - started
        kinds[pacing] = {record.flow_kind for record in completed}
    # The ratio compares what it says it does.
    assert kinds == {"shaped": {"elephant"}, "fluid": {"fluid"}}

    speedup = elapsed["shaped"] / elapsed["fluid"]
    print(f"\n  packet {elapsed['shaped']:.3f}s, fluid {elapsed['fluid']:.3f}s "
          f"-> {speedup:.1f}x")
    assert speedup >= FLUID_SPEEDUP_FLOOR, (
        f"fluid sender only {speedup:.1f}x faster than packet elephants")


def test_tiered_build_scales_near_linearly():
    """1k -> 4k stub sites: the point of ``HierarchicalRoutingPlan`` is that
    this costs nowhere near an all-pairs Dijkstra over the provider mesh."""
    def build_tiered(sites):
        sim = Simulator(seed=11, tracing=False)
        topology = build(sim, TopologySpec(family="tiered", num_sites=sites,
                                           hosts_per_site=1))
        assert len(topology.sites) == sites

    build_tiered(1000)  # warm allocator and caches off the clock
    small = best_of(lambda: build_tiered(1000), rounds=2)
    large = best_of(lambda: build_tiered(4000), rounds=2)

    ratio = large / small
    print(f"\n  1k sites {small:.2f}s, 4k sites {large:.2f}s -> {ratio:.1f}x")
    assert ratio < TIERED_SCALING_CEILING, (
        f"tiered build scaled {ratio:.1f}x for 4x the sites")
