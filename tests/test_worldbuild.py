"""Tests for the worldbuild layer: routing plans, world reuse, sweep axes."""

import gc
import json
from dataclasses import replace

import pytest

from repro.experiments.scenario import CONTROL_PLANES, ScenarioConfig
from repro.experiments.e9_failover import run_e9
from repro.experiments.fig1 import run_fig1_walkthrough
from repro.experiments import sweep, worldrun
from repro.experiments.artifacts import iter_jsonl
from repro.experiments.grid import SweepGrid, expand_grid
from repro.experiments.sweep import PRESETS, payload_digest, run_sweep
from repro.experiments.workload import (WorkloadConfig, run_workload,
                                       start_workload)
from repro.experiments.worldbuild import (SnapshotError, build_world,
                                          deserialize_world, restore_world,
                                          serialize_world, world_key)
from repro.experiments.worldrun import apply_failures, run_world, world_chunks
from repro.lisp.mappings import MappingRecord, RlocEntry
from repro.lisp.xtr import TunnelRouter
from repro.net.addresses import IPv4Prefix
from repro.net.fib import FibEntry
from repro.net.link import Link
from repro.net.node import Node
from repro.net.packet import udp_packet
from repro.net.router import Router
from repro.net.routing import (RoutingPlan, build_adjacency,
                               shortest_path_next_hops)
from repro.net.topogen import TopologySpec, build
from repro.sim import Simulator
from repro.traffic.flows import FluidPump, UdpSink

from flat_routing import FlatRoutingPlan, install_mesh_routes
from test_sweep import run_one


def _fib_snapshot(router):
    return [(str(entry.prefix), entry.interface.name,
             getattr(entry.next_hop, "name", None), entry.metric)
            for entry in router.fib.entries()]


# --------------------------------------------------------------------- #
# RoutingPlan
# --------------------------------------------------------------------- #

def test_incremental_install_matches_from_scratch():
    """Incrementally-installed routes == one-shot full computation."""
    sim = Simulator(seed=5, tracing=False)
    topology = build(sim, TopologySpec(num_sites=6, num_providers=5))
    # The build itself is incremental (site attachments, then DNS would
    # add more); attach another host and install only the delta.
    topology.attach_infra_host(2, "extra", "203.0.200.9")
    topology.install_global_routes()
    incremental = [_fib_snapshot(p) for p in topology.providers]

    for provider in topology.providers:
        for entry in provider.fib.entries():  # empty the table
            provider.fib.remove(entry.prefix)
    install_mesh_routes(topology.providers, topology.attachments)
    from_scratch = [_fib_snapshot(p) for p in topology.providers]
    assert incremental == from_scratch


def path_delay(adjacency, source, destination):
    """Shortest-path delay by one full Dijkstra from *source* per call: the
    oracle for the plan's precomputed tables."""
    if source is destination:
        return 0.0
    entry = shortest_path_next_hops(adjacency, source).get(destination)
    return entry[1] if entry is not None else None


def test_plan_delay_matches_dijkstra():
    sim = Simulator(seed=9, tracing=False)
    topology = build(sim, TopologySpec(num_sites=2, num_providers=6))
    plan = topology.routing_plan
    adjacency = build_adjacency(topology.providers)
    for source in topology.providers:
        for destination in topology.providers:
            assert plan.delay(source, destination) == pytest.approx(
                path_delay(adjacency, source, destination))


def test_plan_install_is_idempotent():
    sim = Simulator(seed=3, tracing=False)
    topology = build(sim, TopologySpec(num_sites=3, num_providers=4))
    before = [_fib_snapshot(p) for p in topology.providers]
    topology.routing_plan.install(topology.attachments)
    assert [_fib_snapshot(p) for p in topology.providers] == before


# --------------------------------------------------------------------- #
# World reuse
# --------------------------------------------------------------------- #

def _cell_for(control_plane, **workload_kwargs):
    grid = SweepGrid(control_planes=(control_plane,), site_counts=(4,),
                     seeds=(7,), num_flows=10, arrival_rate=10.0,
                     workload_overrides=workload_kwargs)
    return expand_grid(grid)[0]


@pytest.mark.parametrize("control_plane", ("pce", "alt", "cons", "nerd"))
def test_reused_world_summary_byte_identical(control_plane):
    """A cell on a cache-reused world == the same cell on a fresh world."""
    cell = _cell_for(control_plane)
    fresh = run_one(cell)  # a world built for this cell alone
    (first, reused), _built = run_world([cell, cell])  # built, then reset
    assert json.dumps(fresh, sort_keys=True) == json.dumps(first, sort_keys=True)
    assert json.dumps(fresh, sort_keys=True) == json.dumps(reused, sort_keys=True)


def test_reuse_across_different_workloads():
    """One world serves cells that differ only in workload."""
    config = ScenarioConfig(control_plane="pce", num_sites=4, seed=3,
                            tracing=False)
    heavy = WorkloadConfig(num_flows=12, arrival_rate=10.0, zipf_s=1.4,
                           size_dist="pareto")
    light = WorkloadConfig(num_flows=6, arrival_rate=5.0, zipf_s=0.0)
    baseline = run_workload(build_world(config), light)
    world = build_world(config)
    run_workload(world, heavy)
    restore_world(world)
    records = run_workload(world, light)
    assert [r.packets_sent for r in records] == \
        [r.packets_sent for r in baseline]
    assert [r.dns_elapsed for r in records] == \
        [r.dns_elapsed for r in baseline]


def test_restore_world_resets_clock_and_caches():
    config = ScenarioConfig(control_plane="alt", num_sites=3, seed=2,
                            tracing=False)
    scenario = build_world(config)
    checkpoint_now = scenario.sim.now
    run_workload(scenario, WorkloadConfig(num_flows=8, arrival_rate=10.0))
    assert scenario.sim.now > checkpoint_now
    restore_world(scenario)
    assert scenario.sim.now == checkpoint_now
    for xtrs in scenario.xtrs_by_site.values():
        for xtr in xtrs:
            assert xtr.map_cache.hits == 0 and xtr.map_cache.misses == 0
    assert scenario.stubs == {}


@pytest.fixture
def worlds_built(monkeypatch):
    """The worlds the sweep builds, in order (each a real build)."""
    built = []
    build = worldrun.build_world

    def recording_build(config):
        built.append(build(config))
        return built[-1]
    monkeypatch.setattr(worldrun, "build_world", recording_build)
    return built


def test_probing_worlds_hit_the_cache(worlds_built):
    """Probing worlds (armed periodic tasks) are checkpointable like any
    other: a run of two of their cells builds once and restores once."""
    cell = _failover_cell(fail_fractions=(0.0,))
    assert cell.scenario.enable_probing
    (first, second), _built = run_world([cell, cell])
    assert len(worlds_built) == 1
    assert json.dumps(first, sort_keys=True) \
        == json.dumps(second, sort_keys=True)


def _failover_cell(**grid_kwargs):
    grid_kwargs.setdefault("scenario_overrides",
                           {"enable_probing": True, "probe_period": 0.3,
                            "probe_timeout": 0.15})
    grid_kwargs.setdefault("fail_fractions", (1.0,))
    grid = SweepGrid(control_planes=("pce",), site_counts=(3,), seeds=(13,),
                     fail_at=0.3, repair_at=2.0,
                     num_flows=12, arrival_rate=10.0, packets_per_flow=5,
                     **grid_kwargs)
    return expand_grid(grid)[0]


def test_failover_cell_fresh_vs_restored_byte_identical():
    """A probing+failure cell on a reused world == the same cell run fresh.

    This is the satellite contract for snapshot/restore of prober state
    (down set, consecutive misses, nonces) and IRC pledges: the
    failover summaries must not differ by a single byte.
    """
    cell = _failover_cell()
    fresh = run_one(cell)
    (first, reused), _built = run_world([cell, cell])
    assert json.dumps(fresh, sort_keys=True) == json.dumps(first, sort_keys=True)
    assert json.dumps(fresh, sort_keys=True) == json.dumps(reused, sort_keys=True)


def test_prober_and_irc_state_round_trip_through_restore():
    """Down sets, miss counters, nonces and IRC pledges all reset on restore."""
    config = ScenarioConfig(control_plane="pce", num_sites=3, seed=13,
                            enable_probing=True, probe_period=0.3,
                            probe_timeout=0.15, tracing=False)
    scenario = build_world(config)

    def prober_states():
        return {name: (frozenset(p.down), dict(p._consecutive_misses),
                       p._nonce)
                for name, p in scenario.control_plane.probers.items()}

    def irc_states():
        return {index: irc.snapshot_state()
                for index, irc in scenario.control_plane.ircs.items()}

    def task_states():
        return [task.snapshot_state() for task in scenario.sim.periodic_tasks]

    baseline = (prober_states(), irc_states(), task_states())

    # Dirty this world: run a failing workload so probers mark RLOCs down.
    apply_failures(scenario, _failover_cell().failure,
                    scenario.sim.now, scenario.sim)
    run_workload(scenario, WorkloadConfig(num_flows=12, arrival_rate=10.0,
                                          packets_per_flow=5))
    assert any(p._nonce > 0
               for p in scenario.control_plane.probers.values())
    assert (prober_states(), irc_states(), task_states()) != baseline

    restore_world(scenario)
    assert (prober_states(), irc_states(), task_states()) == baseline


def _armed_ticks(sim):
    """The (when, sequence) key of every live tick riding *sim*'s queue."""
    return sorted((when, sequence) for when, sequence, fire, _args in sim._queue
                  if fire.live)


def _drive_shared_timestamps(scenario):
    """A tick and a foreground call on one instant, twice; what ran when.

    First the task is armed before the call is queued (tick, then call);
    then it is re-armed mid-run onto an instant a call already holds (call,
    then tick).  Every other armed task keeps probing alongside.
    """
    sim = scenario.sim
    task = next(task for task in sim.periodic_tasks if task.armed)
    log = []
    ticks = []
    callback = task.callback

    def counted():
        ticks.append(sim.now)
        callback()

    def mark(tag):
        log.append((tag, sim.now, len(ticks), sim.processed_events))

    def rearm():
        task.stop()
        task.start()

    first = task.next_fire
    rearm_at = first + 0.4 * task.period
    second = rearm_at + task.period     # where start() puts the next tick
    sim.call_at(first, mark, "armed-before-the-call")
    sim.call_at(second, mark, "call-before-the-rearm")
    sim.call_at(rearm_at, rearm)
    task.callback = counted
    try:
        sim.run(until=second)
    finally:
        task.callback = callback
    assert [entry[2] for entry in log] == [1, 1]
    assert ticks == [first, second]     # ... and then the tick ran
    sim.run()
    return log, sim.now, sim.processed_events, \
        [other.snapshot_state() for other in sim.periodic_tasks]


def test_a_tick_tied_with_a_call_breaks_the_same_way_fresh_restored_and_thawed():
    config = ScenarioConfig(control_plane="pce", num_sites=3, seed=13,
                            enable_probing=True, probe_period=0.3,
                            probe_timeout=0.15, tracing=False)
    scenario = build_world(config)
    sim = scenario.sim
    checkpointed = sorted((task.next_fire, task._entry_sequence)
                          for task in sim.periodic_tasks if task.armed)
    assert len(checkpointed) > 1 and _armed_ticks(sim) == checkpointed
    blob = serialize_world(scenario)
    fresh = _drive_shared_timestamps(scenario)

    restore_world(scenario)
    # Exactly the armed tasks' ticks, keyed as the fresh build keyed them.
    assert sorted(entry[:2] for entry in sim._queue) == checkpointed \
        == _armed_ticks(sim)
    assert sim.pending_foreground == 0
    assert _drive_shared_timestamps(scenario) == fresh

    thawed = deserialize_world(blob, config)
    assert _armed_ticks(thawed.sim) == checkpointed
    assert _drive_shared_timestamps(thawed) == fresh


def _shaped_cell():
    """A shaped-preset-style cell: rated access links, heavy tails, pacing."""
    grid = SweepGrid(control_planes=("pce",), site_counts=(4,), seeds=(31,),
                     size_dists=("pareto",), pacings=("shaped",),
                     num_flows=12, arrival_rate=10.0, packets_per_flow=5,
                     scenario_overrides={"access_rate_bps": 10_000_000.0},
                     workload_overrides={"pace_rate_bps": 2_000_000.0,
                                         "payload_bytes": 1200})
    return expand_grid(grid)[0]


def test_shaped_cell_fresh_vs_restored_byte_identical():
    """A shaped cell on a reused world == the same cell run fresh.

    The satellite contract for the traffic-shaping state: per-flow link
    byte accounts, utilization windows and busy time must all snapshot and
    restore exactly, or the reused world's byte metrics drift.
    """
    cell = _shaped_cell()
    fresh = run_one(cell)
    (first, reused), _built = run_world([cell, cell])
    assert fresh["metrics"]["bytes_conserved"] is True
    assert fresh["metrics"]["access_util_peak"] > 0.0
    assert json.dumps(fresh, sort_keys=True) == json.dumps(first, sort_keys=True)
    assert json.dumps(fresh, sort_keys=True) == json.dumps(reused, sort_keys=True)


def test_shaped_world_restore_resets_byte_accounting():
    """Link flow accounts and windows reset to the (empty) checkpoint."""
    cell = _shaped_cell()
    scenario = build_world(cell.scenario)
    run_workload(scenario, cell.workload)
    dirtied = [link for link in scenario.links if link.stats.flows]
    assert dirtied, "workload left no per-flow accounting to reset"
    restore_world(scenario)
    for link in scenario.links:
        stats = link.stats
        assert stats.flows == {} and stats.windows == {}
        assert stats.bytes_offered == 0


def test_world_key_distinguishes_configs():
    base = ScenarioConfig(control_plane="pce", num_sites=4, seed=1)
    assert world_key(base) == world_key(ScenarioConfig(
        control_plane="pce", num_sites=4, seed=1))
    assert world_key(base) != world_key(replace(base, mapping_ttl=30.0))


def _live_simulators():
    return sum(isinstance(tracked, Simulator) for tracked in gc.get_objects())


#: Every control plane on every topology family, with UDP, TCP and fluid
#: workloads, plus the ``failover`` preset's cells (RLOC probing, link
#: failures, and a second world that evicts the first).
TEARDOWN_MATRIX = {
    **{f"{plane}-{family}-{kind}": expand_grid(SweepGrid(
        control_planes=(plane,), topologies=(family,), site_counts=(6,),
        num_flows=12, arrival_rate=10.0,
        mode="tcp" if kind == "tcp" else "udp",
        pacings=("fluid",) if kind == "fluid" else ("constant",),
        size_dists=("pareto",) if kind == "fluid" else ("constant",)))
       for plane in CONTROL_PLANES
       for family in ("fig1", "flat", "tiered", "caida")
       for kind in ("udp", "tcp", "fluid")},
    "failover": expand_grid(replace(PRESETS["failover"], seeds=(21,),
                                    num_flows=12)),
}


@pytest.fixture
def collector_off():
    """The cyclic collector disabled for the test, with no garbage left
    over from earlier ones; explicit ``gc.collect()`` calls still run."""
    was_enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def _cyclic_garbage():
    """Type names of what a full pass finds unreachable, kept for a look."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
    finally:
        gc.set_debug(0)
    found = sorted({type(obj).__name__ for obj in gc.garbage})
    gc.garbage.clear()
    gc.collect()
    return found


def _after_each_cell(monkeypatch, check):
    """Call *check* inside every cell's pause, once its result is in (in
    the forked child, for a cell that branched off its family's run)."""
    run_cell = sweep.run_cell

    def checked(*args):
        result = run_cell(*args)
        check()
        return result
    monkeypatch.setattr(sweep, "run_cell", checked)


def _run_twice(cells):
    """One world run per world: its cells (a build, then resets), then its
    first cell again (one more reset)."""
    for chunk in world_chunks(cells, 1):
        yield run_world([*chunk, chunk[0]])[0]


@pytest.mark.parametrize("name", sorted(TEARDOWN_MATRIX))
def test_released_worlds_leave_no_cyclic_garbage(name, collector_off,
                                                 monkeypatch):
    """A world run tears its world down, and a torn-down world dies by
    reference count: with the collector off throughout, nothing is left
    for a full pass to find, and no simulator outlives the run."""
    before = _live_simulators()

    def one_world_alive():
        assert _live_simulators() == before + 1
    _after_each_cell(monkeypatch, one_world_alive)
    for _results in _run_twice(TEARDOWN_MATRIX[name]):
        assert _live_simulators() == before
    assert _cyclic_garbage() == []
    assert _live_simulators() == before


@pytest.mark.parametrize("name", sorted(TEARDOWN_MATRIX))
def test_a_cell_run_makes_no_cyclic_garbage(name, collector_off, monkeypatch):
    """What makes pausing the collector for a whole cell safe: a build,
    a restore, a workload and its metric collection free nothing a pass
    could find."""
    def nothing_to_collect():
        assert gc.collect() == 0
    _after_each_cell(monkeypatch, nothing_to_collect)
    for _results in _run_twice(TEARDOWN_MATRIX[name]):
        assert gc.collect() == 0


def test_a_storeless_cell_releases_its_throwaway_world(collector_off):
    before = _live_simulators()
    result = run_one(TEARDOWN_MATRIX["pce-flat-udp"][0])
    assert result["metrics"]["flows"] == 12
    assert _live_simulators() == before
    assert gc.collect() == 0


def test_a_world_run_tears_its_world_down_when_a_cell_raises(collector_off,
                                                             monkeypatch):
    """A raising family tears its world down (the next family builds a
    fresh one), and so does the run's ``finally``: cells that raise leave
    no world behind, and nothing for a pass to free."""
    cell = TEARDOWN_MATRIX["pce-flat-udp"][0]
    # Three families (their workloads differ), so each cell runs here.
    cells = [replace(cell, workload=replace(cell.workload, num_flows=flows))
             for flows in (12, 11, 10)]
    before = _live_simulators()
    run_cell = sweep.run_cell
    ran = []

    def second_cell_raises(world, cell, prefix):
        if ran:
            raise RuntimeError("cell failed")
        ran.append(cell)
        return run_cell(world, cell, prefix)
    monkeypatch.setattr(sweep, "run_cell", second_cell_raises)
    results, built = run_world(cells)
    assert len(ran) == 1
    assert [result.get("exception") for result in results] == [
        None, "RuntimeError", "RuntimeError"]
    assert built == [0, 2]  # the first family's build, and the rebuild
    assert _live_simulators() == before
    assert _cyclic_garbage() == []


def test_events_of_a_world_torn_down_mid_run_still_print():
    """A traceback or debugger that prints an event of a world torn down
    mid-run names the event instead of raising: teardown cleared the
    event's slots and its simulator's attributes."""
    world = build_world(ScenarioConfig(control_plane="alt", num_sites=4,
                                       seed=3, tracing=False))
    start_workload(world, WorkloadConfig(num_flows=6, arrival_rate=50.0))
    world.sim.run(until=0.12)
    events = list(world.sim.queued_events())
    assert events
    assert all(repr(event).endswith((" pending>", " triggered>", " processed>"))
               for event in events)
    world.teardown()
    for event in events:
        assert repr(event) == f"<{type(event).__name__} torn down>"


@pytest.mark.parametrize("runner", (run_fig1_walkthrough, run_e9),
                         ids=("fig1", "e9"))
def test_scripted_runners_tear_their_worlds_down(runner, collector_off):
    """The two experiments that build with ``build_scenario`` rather than
    through a world run (Fig. 1 and E9) leave no world behind for a pass
    to free."""
    before = _live_simulators()
    runner()
    assert _live_simulators() == before
    assert _cyclic_garbage() == []


# --------------------------------------------------------------------- #
# Sweep integration: grouping, streaming, axes
# --------------------------------------------------------------------- #

SHARED = SweepGrid(name="shared", control_planes=("pce", "alt"),
                   site_counts=(3,), seeds=(1,), zipf_values=(0.5, 1.2),
                   size_dists=("constant", "pareto"), num_flows=8,
                   arrival_rate=10.0)


def test_sweep_reuses_worlds_and_streams_jsonl(tmp_path):
    jsonl_path = tmp_path / "cells.jsonl"
    serial = run_sweep(SHARED, workers=1, jsonl_path=str(jsonl_path))
    fanned = run_sweep(SHARED, workers=2)
    assert payload_digest(serial) == payload_digest(fanned)
    # Serial: 2 worlds (one per control plane), 4 cells each -> 6 hits.
    assert serial["world_cache"]["hits"] == 6
    assert serial["world_cache"]["builds"] == 2
    # Fanned: two worlds for two workers, so each world goes out whole as
    # one chunk and is built once, by the worker that runs it.
    assert fanned["world_cache"] == {"builds": 2, "hits": 6}
    # The stream carries every cell plus its world-cache outcome...
    lines = [json.loads(line) for line in
             jsonl_path.read_text().strip().splitlines()]
    assert {line["world"] for line in lines} == {"hit", "miss"}
    # ...and reading it back (outcome stripped) is exactly the payload.
    assert sorted((result for _tag, result in iter_jsonl(str(jsonl_path))),
                  key=lambda r: r["index"]) == serial["cells"]


def test_variants_differing_in_a_field_their_plane_ignores_share_a_world():
    """ALT reads no ``irc_policy``: its two variants build one world and
    measure the same."""
    grid = SweepGrid(control_planes=("alt",), site_counts=(3,), seeds=(1,),
                     variants=(("balance", {"irc_policy": "balance"}),
                               ("primary", {"irc_policy": "primary"})),
                     num_flows=8, arrival_rate=10.0)
    payload = run_sweep(grid, workers=1)
    assert payload["world_cache"] == {"builds": 1, "hits": 1}
    balance, primary = payload["cells"]
    assert (balance["variant"], primary["variant"]) == ("balance", "primary")
    assert balance["metrics"] == primary["metrics"]


def test_ungrouped_dispatch_keeps_workers_busy():
    """One world key + many workload cells still fans out: the world's
    cells split into one chunk per worker (digest equality preserved:
    every worker builds the same world)."""
    grid = SweepGrid(control_planes=("alt",), site_counts=(3,), seeds=(1,),
                     zipf_values=(0.0, 0.5, 1.0, 1.5), num_flows=8,
                     arrival_rate=10.0)
    cells = expand_grid(grid)
    assert world_chunks(cells, 1) == [cells]  # single world: order unchanged
    chunks = world_chunks(cells, 2)
    assert [[cell.index for cell in chunk] for chunk in chunks] \
        == [[0, 1], [2, 3]]
    fanned = run_sweep(grid, workers=2)
    assert payload_digest(fanned) == payload_digest(run_sweep(grid, workers=1))
    # One build per chunk, every other cell a reset of its chunk's world.
    assert fanned["world_cache"] == {"builds": len(chunks),
                                     "hits": len(cells) - len(chunks)}


def test_serial_ordering_groups_same_world_cells():
    """Serial runs keep same-world cells adjacent — one chunk per world —
    so one world run serves all of a world's cells even though the seeds
    axis interleaves the worlds."""
    grid = SweepGrid(control_planes=("alt",), site_counts=(3,),
                     seeds=(1, 2, 3), zipf_values=(0.0, 1.0), num_flows=6,
                     arrival_rate=10.0)
    cells = expand_grid(grid)
    chunks = world_chunks(cells, 1)
    assert len(chunks) == 3  # one per seed
    ordered = [cell for chunk in chunks for cell in chunk]
    assert sorted(c.index for c in ordered) == [c.index for c in cells]
    seen = []
    for cell in ordered:
        key = (cell.scenario.control_plane, cell.scenario.seed)
        if key not in seen:
            seen.append(key)
        else:
            assert key == seen[-1], "same-world cells must be contiguous"
    cache = run_sweep(grid, workers=1)["world_cache"]
    assert cache["builds"] == 3  # one per seed
    assert cache["hits"] == len(cells) - 3


def test_expand_grid_new_axes_and_cell_ids():
    cells = expand_grid(SHARED)
    assert len(cells) == 2 * 2 * 2
    assert cells[0].cell_id == "pce-sites3-zipf0.5-seed1"
    assert cells[1].cell_id == "pce-sites3-zipf0.5-sizepareto-seed1"
    assert all("sizepareto" in cell.cell_id for cell in cells
               if cell.workload.size_dist == "pareto")


def test_expand_grid_rejects_bad_axes():
    with pytest.raises(ValueError):
        expand_grid(SweepGrid(size_dists=("bogus",)))
    with pytest.raises(ValueError):
        expand_grid(SweepGrid(fail_fractions=(1.5,)))


def test_heavy_tailed_sizes_change_the_workload():
    grid = SweepGrid(control_planes=("alt",), site_counts=(3,), seeds=(4,),
                     size_dists=("constant", "pareto"), num_flows=12,
                     arrival_rate=10.0, packets_per_flow=4)
    constant, pareto = [run_one(cell) for cell in expand_grid(grid)]
    assert constant["metrics"]["packets_sent"] == 12 * 4
    assert pareto["metrics"]["packets_sent"] != constant["metrics"]["packets_sent"]


def test_tcp_data_burst_makes_size_axis_real():
    """With tcp_data_burst, TCP cells carry size-shaped data traffic."""
    grid = SweepGrid(control_planes=("pce",), site_counts=(3,), seeds=(4,),
                     size_dists=("constant", "pareto"), num_flows=12,
                     arrival_rate=10.0, packets_per_flow=4, mode="tcp",
                     workload_overrides={"tcp_data_burst": True})
    constant, pareto = [run_one(cell) for cell in expand_grid(grid)]
    assert constant["metrics"]["packets_sent"] == 12 * 4
    assert pareto["metrics"]["packets_sent"] != constant["metrics"]["packets_sent"]
    assert constant["metrics"]["setup_latency"] is not None


def test_failure_axis_loses_packets():
    grid = SweepGrid(control_planes=("alt",), site_counts=(4,), seeds=(6,),
                     fail_fractions=(0.0, 1.0), fail_at=0.2, repair_at=2.5,
                     num_flows=20, arrival_rate=20.0, packets_per_flow=4)
    intact, failed = [run_one(cell) for cell in expand_grid(grid)]
    assert failed["fail_fraction"] == 1.0
    assert "fail1" in failed["cell_id"]
    assert failed["metrics"]["packets_lost"] > intact["metrics"]["packets_lost"]


def test_failure_cells_reuse_cleanly():
    """A failure cell must not poison the cached world for later cells."""
    grid = SweepGrid(control_planes=("pce",), site_counts=(3,), seeds=(9,),
                     fail_fractions=(0.0, 1.0), fail_at=0.2, repair_at=1.5,
                     num_flows=10, arrival_rate=10.0)
    intact_cell, failed_cell = expand_grid(grid)
    baseline = run_one(intact_cell)
    (_failed, after_failure), _built = run_world([failed_cell, intact_cell])
    assert json.dumps(after_failure, sort_keys=True) \
        == json.dumps(baseline, sort_keys=True)


# --------------------------------------------------------------------- #
# Hierarchical routing: equivalence, reuse, sweep determinism
# --------------------------------------------------------------------- #

def test_single_tier_hierarchical_plan_equals_flat_plan():
    """One tier, no uplinks, no IXs: the plan of a flat or Fig. 1 world is
    the flat all-pairs reference plan — identical FIBs (iface, next hop,
    metric), installed incrementally as the DNS hierarchy and the NERD or
    CONS infrastructure attach, and identical delay() answers."""
    for family in ("flat", "fig1"):
        for control_plane in ("nerd", "cons"):
            config = ScenarioConfig(control_plane=control_plane,
                                    topology=family, num_sites=5,
                                    num_providers=6, seed=17, tracing=False)
            topology = build_world(config).topology
            assert len(topology.tier_layout.tiers) == 1
            assert len(topology.infra_hosts) > 2  # DNS and the mapping system
            built = [_fib_snapshot(p) for p in topology.providers]
            reference = FlatRoutingPlan(topology.providers)
            for provider in topology.providers:
                for entry in provider.fib.entries():  # empty the table
                    provider.fib.remove(entry.prefix)
            reference.install(topology.attachments)
            assert [_fib_snapshot(p) for p in topology.providers] == built
            plan = topology.routing_plan
            for a in topology.providers:
                for b in topology.providers:
                    assert plan.delay(a, b) == reference.delay(a, b)


def _tiered_cell(control_plane="pce"):
    grid = SweepGrid(control_planes=(control_plane,), topologies=("tiered",),
                     site_counts=(6,), seeds=(21,), num_flows=10,
                     arrival_rate=10.0)
    return expand_grid(grid)[0]


def test_tiered_cell_fresh_vs_restored_byte_identical():
    """A tiered world survives snapshot/restore with nothing lost: the
    layout, hierarchical plan, and IX routers come back, and a cell run
    on the restored world matches the fresh run byte-for-byte."""
    cell = _tiered_cell()
    fresh = run_one(cell)
    (first, reused), _built = run_world([cell, cell])
    assert json.dumps(fresh, sort_keys=True) == json.dumps(first, sort_keys=True)
    assert json.dumps(fresh, sort_keys=True) == json.dumps(reused, sort_keys=True)


def test_restored_tiered_world_keeps_hierarchical_routing():
    config = ScenarioConfig(control_plane="alt", topology="tiered",
                            num_sites=5, seed=13, tracing=False)
    scenario = build_world(config)
    run_workload(scenario, WorkloadConfig(num_flows=6, arrival_rate=10.0))
    restore_world(scenario)
    restored = scenario.topology
    assert isinstance(restored.routing_plan, RoutingPlan)
    assert len(restored.tier_layout.tiers) == 3
    assert restored.ix_routers


def test_topology_axis_sweep_digest_matches_across_workers():
    """The schema-v6 topology axis stays deterministic under fan-out."""
    families = ("fig1", "flat", "tiered", "caida")
    grid = SweepGrid(control_planes=("pce",), topologies=families,
                     site_counts=(4,), seeds=(7,), num_flows=8,
                     arrival_rate=10.0)
    fanned = run_sweep(grid, workers=2)
    serial = run_sweep(grid, workers=1)
    assert payload_digest(serial) == payload_digest(fanned)
    cell_ids = [cell["cell_id"] for cell in serial["cells"]]
    assert cell_ids == ["pce-fig1-sites4-zipf1-seed7",
                        "pce-sites4-zipf1-seed7",
                        "pce-tiered-sites4-zipf1-seed7",
                        "pce-caida-sites4-zipf1-seed7"]
    assert [cell["topology"] for cell in serial["cells"]] == list(families)


# --------------------------------------------------------------------- #
# Restore completeness: the safety net under the first-touch journal
# --------------------------------------------------------------------- #
#
# restore_world puts back the singletons and the journal's dirty list and
# visits nothing else, so a mutator that forgets its _touch() would leave
# one run's state in the next.  The oracle is independent of the journal:
# an eager snapshot_state() of the whole inventory, taken by the test
# right after the build, that every component is compared against after a
# run (what moved must be on the dirty list) and after the restore
# (nothing may differ).

def _oracle(scenario):
    return [(component, component.snapshot_state())
            for component in scenario.stateful_components()]


def _build_with_oracle(config):
    scenario = build_world(config)
    return scenario, _oracle(scenario)


def _dirty_components(oracle):
    return [component for component, state in oracle
            if component.snapshot_state() != state]


def _unjournaled(scenario, oracle):
    """Components that moved but that a restore would not visit."""
    journal = scenario.world_checkpoint
    rng = scenario.sim.rng
    visited = {id(component) for component in journal.dirty}
    visited.update(id(component) for component, _state in journal.singletons)
    visited.add(id(rng))    # journals itself, stream by stream: see below
    missed = [component for component, state in oracle
              if id(component) not in visited
              and component.snapshot_state() != state]
    pristine_streams = dict(oracle)[rng]
    missed.extend(
        f"stream {name}" for name, state in rng.snapshot_state().items()
        if state != pristine_streams.get(name)
        and name not in rng._handed_out)
    return missed


def _lifecycle_cell(control_plane, topology, pacing, sites=6, flows=10,
                    **grid_kwargs):
    grid = SweepGrid(control_planes=(control_plane,), topologies=(topology,),
                     site_counts=(sites,), seeds=(17,), size_dists=("pareto",),
                     pacings=(pacing,), num_flows=flows, arrival_rate=10.0,
                     packets_per_flow=5,
                     scenario_overrides={"access_rate_bps": 10_000_000.0},
                     workload_overrides={"pace_rate_bps": 2_000_000.0,
                                         "fluid_threshold": 1,
                                         "fluid_chunk_interval": 0.125},
                     **grid_kwargs)
    return expand_grid(grid)[0]


def _run_cell_on(scenario, oracle, cell):
    assert _dirty_components(oracle) == []
    apply_failures(scenario, cell.failure, scenario.sim.now, scenario.sim)
    run_workload(scenario, cell.workload)
    # Whatever moved is somewhere a restore will look: a missing _touch()
    # fails here, not three cells later.
    assert _unjournaled(scenario, oracle) == []


@pytest.mark.parametrize("pacing", ("constant", "shaped", "fluid"))
@pytest.mark.parametrize("topology", ("flat", "tiered"))
@pytest.mark.parametrize("control_plane", CONTROL_PLANES)
def test_restore_returns_every_component_to_its_checkpoint(
        control_plane, topology, pacing):
    cell = _lifecycle_cell(control_plane, topology, pacing)
    scenario, oracle = _build_with_oracle(cell.scenario)
    _run_cell_on(scenario, oracle, cell)
    dirtied = _dirty_components(oracle)
    # The run really moved journaled state of every kind ...
    kinds = {type(component).__name__ for component in dirtied}
    assert {"Link", "Host"} <= kinds, kinds
    assert len(dirtied) > len(oracle) // 4
    # ... and the restore leaves nothing of it.
    restore_world(scenario)
    assert _dirty_components(oracle) == []
    assert scenario.world_checkpoint.dirty == []


def test_restore_drops_the_packets_a_queue_policy_buffered():
    """An ``alt+queue`` world cut while its ITRs buffer packets for a
    pending resolution restores to its checkpoint: no buffer survives."""
    scenario = build_world(ScenarioConfig(control_plane="alt",
                                          miss_policy="queue", num_sites=4,
                                          seed=5, tracing=False))
    policy = scenario.miss_policy
    pristine = policy.snapshot_state()
    start_workload(scenario, WorkloadConfig(num_flows=8, arrival_rate=50.0))
    sim = scenario.sim
    for _ in range(10_000):
        if any(policy._buffers.values()):
            break
        sim.run(until=sim.now + 0.001)
    assert any(policy._buffers.values())
    restore_world(scenario)
    assert policy._buffers == {}
    assert policy.snapshot_state() == pristine
    scenario.teardown()


def test_a_router_is_journaled_only_when_its_fib_or_wiring_moves():
    """Forwarding changes nothing a router checkpoints: after a workload
    the dirty routers are exactly those whose FIB or wiring moved, and a
    packet crossing a restored world's core leaves every router clean."""
    cell = _lifecycle_cell("pce", "flat", "constant", sites=60, flows=30)
    scenario = build_world(replace(cell.scenario, tracing=False))
    routers = [node for node in scenario.topology.all_nodes()
               if type(node) is Router]

    def moved(router, before):
        state = router.snapshot_state()
        return (router.fib.version, state["wiring"]) != before[router]

    before = {router: (router.fib.version, router.snapshot_state()["wiring"])
              for router in routers}
    run_workload(scenario, cell.workload)
    dirty = set(scenario.world_checkpoint.dirty)
    assert {router for router in routers if router in dirty} \
        == {router for router in routers if moved(router, before)}
    assert len(dirty.intersection(routers)) < len(routers) // 2

    restore_world(scenario)
    first, last = routers[0], routers[-1]
    first.send(udp_packet(min(first.addresses()), min(last.addresses()),
                          5000, 9))
    scenario.sim.run()
    dirty = scenario.world_checkpoint.dirty
    # Two links or more: some router between them forwarded the packet.
    assert sum(isinstance(component, Link) for component in dirty) >= 2
    assert not any(isinstance(component, Router) for component in dirty)


def test_restore_is_complete_after_links_fail_and_come_back():
    cell = _lifecycle_cell("pce", "flat", "shaped", fail_fractions=(1.0,),
                           fail_at=0.3, repair_at=0.8)
    scenario, oracle = _build_with_oracle(cell.scenario)
    _run_cell_on(scenario, oracle, cell)
    assert sum(link.stats.bytes_dropped for link in scenario.links) > 0
    assert all(link.up for link in scenario.links)   # repaired
    assert _dirty_components(oracle)
    restore_world(scenario)
    assert _dirty_components(oracle) == []


def _tally_unflowed_bytes(monkeypatch):
    """Per link, ``[offered, delivered]`` bytes of packets with no flow id.

    Control-plane packets carry no flow id, so a link's per-flow accounts
    add up to its totals less exactly these.
    """
    tally = {}
    send, deliver = Link.send, Link._deliver

    def spy_send(link, packet):
        innermost = packet
        while innermost.inner is not None:
            innermost = innermost.inner
        if innermost.meta.get("flow_id") is None:
            tally.setdefault(link, [0, 0])[0] += packet.size_bytes
        return send(link, packet)

    def spy_deliver(link, packet):
        size, flow_id, _probe = packet._hop
        if flow_id is None and link.up:
            tally.setdefault(link, [0, 0])[1] += size
        deliver(link, packet)

    monkeypatch.setattr(Link, "send", spy_send)
    monkeypatch.setattr(Link, "_deliver", spy_deliver)
    return tally


def _check_exact_on_leaving(monkeypatch):
    """Check each pumped flow's accounts from inside its own ``done``
    callback, with no settle; returns the list of flows checked."""
    checked = []
    join = FluidPump.join

    def spy_join(pump, record, plan, remaining, hops, sink):
        done = join(pump, record, plan, remaining, hops, sink)

        def check(_done):
            flow_id = record.flow_id
            # Every packet the flow handed its host, probes and chunks
            # alike, was offered to the host's uplink at the first wire size.
            first, first_size = hops[0]
            assert first.stats.flows[flow_id].offered \
                == record.bytes_sent // plan.payload_bytes * first_size
            # Nothing of it is in flight, and the last hop delivered at
            # least the packets the sink counted (its fluid bytes besides).
            for link, _size in hops:
                account = link.stats.flows[flow_id]
                assert account.in_flight == 0, link.name
            last, last_size = hops[-1]
            assert last.stats.flows[flow_id].delivered \
                >= sink.by_flow.get(flow_id, 0) * last_size
            checked.append(flow_id)

        done.callbacks.append(check)    # ahead of the sender's own
        return done

    monkeypatch.setattr(FluidPump, "join", spy_join)
    return checked


def test_flows_cut_off_inside_the_pump_leave_nothing_behind(monkeypatch):
    """A deadline that strands fluid flows mid-pump, then the next run.

    The pump still holds the stranded flows and its armed tick when the
    workload returns; ``byte_accounting`` must settle their per-flow
    accounts, a restore must empty and disarm the pump, and the same
    workload must then replay record for record — on the restored world
    and on one deserialized from the blob of the pristine build.  A flow
    that leaves the pump has exact accounts without any settle.
    """
    cell = _lifecycle_cell("pce", "flat", "fluid")
    workload = replace(cell.workload, packets_per_flow=400, grace_period=0.5)
    scenario, oracle = _build_with_oracle(cell.scenario)
    blob = serialize_world(scenario)
    unflowed = _tally_unflowed_bytes(monkeypatch)
    left = _check_exact_on_leaving(monkeypatch)
    expected = run_workload(scenario, workload)
    assert left
    stranded = [record for record in expected
                if record.flow_kind == "fluid" and record.chunks_sent
                and record.finished_at is None]
    assert len(stranded) >= 3
    assert sum(len(group.flows)
               for lane in scenario.fluid_pump._lanes.values()
               for group in lane.values()) == len(stranded)
    assert scenario.sim.pending_foreground > 0    # the next tick, armed

    # The stranded flows' accounts lag offered and delivered alike, which
    # "conserved" cannot see; the per-flow sums can.
    assert scenario.byte_accounting()["conserved"]
    touched = [link for link in scenario.links if link.stats.bytes_offered]
    assert touched
    for link in touched:
        stats = link.stats
        offered, delivered = unflowed.get(link, (0, 0))
        assert sum(a.offered for a in stats.flows.values()) + offered \
            == stats.bytes_offered, link.name
        assert sum(a.delivered for a in stats.flows.values()) + delivered \
            == stats.bytes_delivered, link.name

    restore_world(scenario)
    assert scenario.fluid_pump._lanes == {}
    assert scenario.sim.pending_foreground == 0
    assert _dirty_components(oracle) == []
    assert run_workload(scenario, workload) == expected

    deserialized = deserialize_world(blob, cell.scenario)
    twin_oracle = _oracle(deserialized)
    assert len(twin_oracle) == len(oracle)
    assert run_workload(deserialized, workload) == expected
    assert _unjournaled(deserialized, twin_oracle) == []
    assert scenario.byte_accounting()["conserved"]
    assert deserialized.byte_accounting()["conserved"]
    restore_world(deserialized)
    assert _dirty_components(twin_oracle) == []


def _ignore(_packet, _node):
    return False


def _bound_port(node):
    return next(iter(node._udp_ports))


def _packet_for(link):
    return udp_packet(link.src_interface.address or "192.0.2.1",
                      link.dst_interface.address or "192.0.2.2",
                      4000, 4001, payload_bytes=100, meta={"flow_id": 7})


def _fail(link):
    link.up = False


def _send_while_down(link):
    link.up = False
    link.send(_packet_for(link))


def _fluid_while_down(link):
    link.up = False
    link.post_fluid(5000, 7, 0.1)


def _insert_route(node):
    node.fib.insert(FibEntry(IPv4Prefix("198.51.100.0/24"),
                             next(iter(node.interfaces.values()))))


def _install_mapping(xtr):
    xtr.install_mapping(MappingRecord(IPv4Prefix("100.99.0.0/16"),
                                      (RlocEntry(xtr.rloc),), ttl=30.0))


#: Every mutator of journaled state, alone.  Real runs mask a forgotten
#: _touch() (sockets bind *and* unbind, a flow's host both binds and takes
#: an ephemeral port), so each entry point is also driven by itself:
#: (which component of the world, what to do to it).
_FIRST = {
    "node": lambda scenario: next(
        node for node in scenario.topology.all_nodes() if node._udp_ports),
    "link": lambda scenario: scenario.links[0],
    "xtr": lambda scenario: next(scenario.iter_xtrs()),
    "sink": lambda scenario: next(iter(scenario.udp_sinks.values())),
    "stack": lambda scenario: next(iter(scenario.tcp_stacks.values())),
    "resolver": lambda scenario: next(iter(scenario.dns.resolvers.values())),
}
def _fill_resolver_cache(resolver):
    """A walk that fails, and caches the failure."""
    resolver.resolve("nowhere.invalid.")
    resolver.sim.run()


_MUTATORS = {
    "add_address": ("node", lambda node: node.add_address("203.0.113.9")),
    "register_service": (
        "node", lambda node: node.register_service("extra", object())),
    "register_protocol": (
        "node", lambda node: node.register_protocol(253, _ignore)),
    "bind_udp": ("node", lambda node: node.bind_udp(4242, _ignore)),
    "unbind_udp": ("node", lambda node: node.unbind_udp(_bound_port(node))),
    "add_forward_tap": ("node", lambda node: node.add_forward_tap(_ignore)),
    "fib_insert_from_outside": ("node", _insert_route),
    "fib_remove_from_outside": (
        "node", lambda node: node.fib.remove(node.fib.entries()[0].prefix)),
    "send": ("link", lambda link: link.send(_packet_for(link))),
    "up_setter": ("link", _fail),
    "send_while_down": ("link", _send_while_down),
    "post_fluid": ("link", lambda link: link.post_fluid(5000, 7, 0.1)),
    "post_fluid_while_down": ("link", _fluid_while_down),
    "map_cache_install": ("xtr", _install_mapping),
    "map_cache_lookup": (
        "xtr", lambda xtr: xtr.map_cache.lookup("100.99.1.1")),
    "credit_fluid": ("sink", lambda sink: sink.credit_fluid(5000)),
    "tcp_listen": ("stack", lambda stack: stack.listen(8080)),
    "resolver_cache_fill": ("resolver", _fill_resolver_cache),
}


@pytest.mark.parametrize("name", _MUTATORS)
def test_each_stamped_mutator_alone_is_undone_by_restore(name):
    scenario, oracle = _build_with_oracle(ScenarioConfig(
        control_plane="pce", num_sites=3, seed=5, tracing=False))
    kind, mutate = _MUTATORS[name]
    target = _FIRST[kind](scenario)
    mutate(target)
    # Mid-send the engine holds foreground events and cannot be compared;
    # the mutated component itself can.
    assert target.snapshot_state() != dict(oracle)[target]
    assert target in scenario.world_checkpoint.dirty
    if name == "resolver_cache_fill":
        assert len(target.negative_cache) == 1
    restore_world(scenario)
    assert _dirty_components(oracle) == []


@pytest.mark.parametrize("kind", ("Link", "Node", "UdpSink", "TunnelRouter"))
def test_a_mutator_that_forgets_to_touch_is_caught(kind, monkeypatch):
    """The hand-made mutant: one class's _touch() does nothing."""
    mutant = {"Link": Link, "Node": Node, "UdpSink": UdpSink,
              "TunnelRouter": TunnelRouter}[kind]
    cell = _lifecycle_cell("alt", "flat", "constant")
    scenario, oracle = _build_with_oracle(cell.scenario)
    monkeypatch.setattr(mutant, "_touch", lambda self: None)
    run_workload(scenario, cell.workload)
    missed = _unjournaled(scenario, oracle)
    assert missed and all(isinstance(component, mutant)
                          for component in missed)
    restore_world(scenario)
    assert set(_dirty_components(oracle)) == set(missed)


def _count_restores(monkeypatch, classes):
    counts = dict.fromkeys(classes, 0)

    def counting(cls):
        restore = cls.restore_state

        def restore_state(self, state):
            counts[cls] += 1
            restore(self, state)
        return restore_state

    for cls in classes:
        monkeypatch.setattr(cls, "restore_state", counting(cls))
    return counts


@pytest.mark.parametrize("topology", ("flat", "tiered"))
def test_restore_cost_follows_the_cell_not_the_world(topology, monkeypatch):
    """The same 30-flow cell on a 60- and a 240-site world: the inventory
    grows 4x, what a restore visits by less than 2x."""
    sizes = {}
    for sites in (60, 240):
        cell = _lifecycle_cell("pce", topology, "constant", sites=sites,
                               flows=30)
        scenario = build_world(replace(cell.scenario, tracing=False))
        journal = scenario.world_checkpoint
        assert journal.dirty == [] and journal.pristine == {}
        run_workload(scenario, cell.workload)
        dirty = list(journal.dirty)
        counts = _count_restores(monkeypatch, (Link, Node))
        restore_world(scenario)
        monkeypatch.undo()
        # Restored: the dirty list's links and nodes, and no other.
        assert counts[Link] == sum(isinstance(c, Link) for c in dirty)
        assert counts[Node] == sum(isinstance(c, Node) for c in dirty)
        assert journal.dirty == []
        sizes[sites] = (sum(1 for _ in scenario.stateful_components()),
                        len(dirty), len(journal.singletons))
    (small_world, small_dirty, small_singletons) = sizes[60]
    (big_world, big_dirty, big_singletons) = sizes[240]
    assert big_world > 3.5 * small_world
    assert small_dirty < big_dirty < 2 * small_dirty
    assert big_singletons == small_singletons < 12


def test_a_second_run_captures_nothing_the_first_already_did():
    cell = _lifecycle_cell("pce", "flat", "shaped")
    scenario = build_world(cell.scenario)
    journal = scenario.world_checkpoint
    expected = run_workload(scenario, cell.workload)
    first = dict(journal.pristine)
    assert set(first) == set(journal.dirty)
    restore_world(scenario)
    assert journal.dirty == [] and set(journal.pristine) == set(first)
    assert run_workload(scenario, cell.workload) == expected
    # Same cell, same touches: every pristine state is the object the
    # first run stored, and there is no new one.
    assert set(journal.pristine) == set(first)
    assert all(journal.pristine[component] is state
               for component, state in first.items())


# --------------------------------------------------------------------- #
# Collector state and footprint
# --------------------------------------------------------------------- #

@pytest.fixture(params=(True, False), ids=("gc-on", "gc-off"))
def collector(request):
    """Run the test with the cyclic collector enabled, then disabled."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if was_enabled else gc.disable)()


def _collector_settings():
    return gc.get_threshold(), gc.get_freeze_count()


def test_lifecycle_calls_leave_the_collector_as_found(collector):
    config = ScenarioConfig(control_plane="pce", num_sites=3, seed=5,
                            tracing=False)
    settings = _collector_settings()
    world = build_world(config)
    assert gc.isenabled() is collector
    assert _collector_settings() == settings
    restore_world(world)
    assert gc.isenabled() is collector
    assert _collector_settings() == settings
    blob = serialize_world(world)
    assert gc.isenabled() is collector
    assert _collector_settings() == settings
    deserialize_world(blob, config)
    assert gc.isenabled() is collector
    assert _collector_settings() == settings
    with pytest.raises(SnapshotError):
        deserialize_world(blob[:-20], config)
    assert gc.isenabled() is collector
    assert _collector_settings() == settings


def _generation_of(obj):
    """The collector generation holding *obj*; None if none does (frozen)."""
    for generation in range(3):
        if any(tracked is obj
               for tracked in gc.get_objects(generation=generation)):
            return generation
    return None


def test_failed_build_leaves_the_collector_as_found(collector):
    settings = _collector_settings()
    # A full pass zeroes the generation counters: no automatic pass old
    # enough to promote the marker by itself can come due in between.
    gc.collect()
    marker = [None]
    with pytest.raises(ValueError):
        build_world(ScenarioConfig(control_plane="no-such-plane"))
    assert gc.isenabled() is collector
    assert _collector_settings() == settings
    # A half-built world is young garbage: nothing was promoted.
    assert _generation_of(marker) in (0, 1)


def _world_samples(world):
    """A simulator, a link and a FIB entry: one of each bulk kind."""
    return (world.sim, world.links[0],
            next(iter(world.topology.providers[0].fib.entries())))


def _assert_promoted_unless_skipped(world, collector, frozen_on_entry):
    generations = {_generation_of(sample) for sample in _world_samples(world)}
    if not collector:
        assert generations == {0}           # skipped: nothing collects at all
    elif frozen_on_entry:
        assert generations <= {0, 1}        # skipped: left to the young passes
    else:
        assert generations == {2}


def test_finished_worlds_are_promoted_past_the_young_generations(collector):
    """A built or deserialized world lands in the oldest generation, so
    the young passes its cells trigger never walk it.  Entered with the
    collector disabled, or with anything in the permanent generation, the
    splice is skipped and the world stays young.  (CPython 3.12 is always
    the second case: its collector parks immortal objects there by itself,
    375 of them before the first import; 3.11 and 3.13 start at 0.)"""
    config = ScenarioConfig(control_plane="pce", num_sites=3, seed=5,
                            tracing=False)
    frozen = gc.get_freeze_count()
    world = build_world(config)
    _assert_promoted_unless_skipped(world, collector, frozen)
    twin = deserialize_world(serialize_world(world), config)
    _assert_promoted_unless_skipped(twin, collector, frozen)
    assert gc.get_freeze_count() == frozen  # spliced, nothing left frozen


def test_a_cell_splices_the_world_it_built_when_it_ends(collector,
                                                       monkeypatch):
    """The cell's pause is the one that splices: the build nested in it
    finds the collector off and leaves its world young, and the cell's
    pause hands it to the oldest generation when the cell is done — as
    the run's next cell finds it."""
    cell = TEARDOWN_MATRIX["pce-flat-udp"][0]
    # Two families (their workloads differ), so both cells run here.
    other = replace(cell, workload=replace(cell.workload, num_flows=10))
    frozen = gc.get_freeze_count()
    run_cell = sweep.run_cell
    seen = []

    def watched(world, cell, prefix):
        if seen:  # the first cell's pause has ended
            _assert_promoted_unless_skipped(world, collector, frozen)
        seen.append(cell)
        return run_cell(world, cell, prefix)
    monkeypatch.setattr(sweep, "run_cell", watched)
    run_world([cell, other])
    assert len(seen) == 2
    assert gc.get_freeze_count() == frozen


def test_a_heap_the_caller_froze_stays_frozen():
    config = ScenarioConfig(control_plane="pce", num_sites=3, seed=5,
                            tracing=False)
    resident = [None]
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0 and _generation_of(resident) is None
        world = build_world(config)
        assert gc.get_freeze_count() == frozen
        blob = serialize_world(world)
        assert gc.get_freeze_count() == frozen
        twin = deserialize_world(blob, config)
        assert gc.get_freeze_count() == frozen
        # Unfreezing is the caller's: its objects are still out of every
        # generation, and the worlds made meanwhile were not frozen either.
        assert _generation_of(resident) is None
        assert _generation_of(world.sim) is not None
        assert _generation_of(twin.sim) is not None
        assert (run_workload(twin, WorkloadConfig(num_flows=5))
                == run_workload(world, WorkloadConfig(num_flows=5)))
    finally:
        gc.unfreeze()
        # CPython 3.12 keeps immortal objects in the permanent generation
        # and a full pass puts them back there; elsewhere this parks nothing.
        gc.collect()


def test_flat_120_site_pce_world_stays_within_its_object_budget():
    """GC-tracked objects are what every later collection re-walks; the
    hash-table FIB keeps a 120-site world near 60k of them."""
    config = ScenarioConfig(control_plane="pce", num_sites=120,
                            num_providers=8, tracing=False)
    gc.collect()
    before = len(gc.get_objects())
    world = build_world(config)
    gc.collect()
    added = len(gc.get_objects()) - before
    assert world.world_checkpoint is not None
    assert added <= 70_000, f"{added} GC-tracked objects"
