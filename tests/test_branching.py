"""Branching world runs: a family shares its run up to ``fail_at``.

Cells of one world that differ only in their failure fraction run the
workload once up to the branch point, and each cell but the first
finishes in a child forked there (``worldrun._run_family``).  A branched cell
must be the cell run alone, byte for byte, ``sim_events`` included.
"""

import gc
import multiprocessing
import os
import sys
import threading
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from itertools import repeat

import pytest

from repro.experiments import sweep, worldrun
from repro.experiments.grid import SweepGrid, expand_grid
from repro.experiments.sweep import payload_digest, run_sweep
from repro.experiments.workload import run_workload
from repro.experiments.worldbuild import build_world
from repro.experiments.worldrun import apply_failures, run_world
from repro.traffic.flows import FluidPump
from test_worldbuild import _live_simulators

FRACTIONS = (0.0, 0.25, 0.5)

PLANES = {
    "pce-probing": {"control_planes": ("pce",),
                    "scenario_overrides": {"enable_probing": True,
                                           "probe_period": 0.3,
                                           "probe_timeout": 0.15}},
    "alt": {"control_planes": ("alt",)},
    # NERD's pushed database lets a constant flow finish by 1 s: fail at
    # 0.5 s, while the flows still send.
    "nerd": {"control_planes": ("nerd",), "fail_at": 0.5},
}


def _grid(plane, pacing, **fields):
    return SweepGrid(name="branch", site_counts=(6,), seeds=(3,),
                     pacings=(pacing,),
                     size_dists=("constant",) if pacing == "constant"
                     else ("pareto",),
                     fail_fractions=FRACTIONS, num_flows=12,
                     arrival_rate=10.0,
                     **{"packets_per_flow": 6, **PLANES[plane], **fields})


@pytest.fixture
def forks(monkeypatch):
    """Every child ``os.fork`` starts, with the most alive at once."""
    seen = {"pids": [], "alive": set(), "most": 0}
    fork, waitpid = os.fork, os.waitpid

    def counting_fork():
        pid = fork()
        if pid:
            seen["pids"].append(pid)
            seen["alive"].add(pid)
            seen["most"] = max(seen["most"], len(seen["alive"]))
        return pid

    def counting_waitpid(pid, options):
        reaped = waitpid(pid, options)
        seen["alive"].discard(pid)
        return reaped
    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(os, "waitpid", counting_waitpid)
    return seen


def _distinct(metrics):
    """How many different simulated outcomes *metrics* hold: digested,
    so that ``sim_events`` (an engine count, not an observable) is left
    out."""
    return len({payload_digest(cell) for cell in metrics})


def _alone(result):
    """*result* as its one-fraction grid gives it: the index aside."""
    return {key: value for key, value in result.items() if key != "index"}


def _branched_cells_equal_cells_run_alone(grid, forks):
    """Every cell of *grid*'s one family against its one-fraction grid;
    the branched cells' metrics."""
    branched, _built = run_world(expand_grid(grid))
    assert len(forks["pids"]) == len(FRACTIONS) - 1
    for result in branched:
        (alone,), _built = run_world(expand_grid(
            replace(grid, fail_fractions=(result["fail_fraction"],))))
        assert _alone(result) == _alone(alone), result["cell_id"]
    return [result["metrics"] for result in branched]


@pytest.mark.parametrize("pacing", ("constant", "shaped", "fluid"))
@pytest.mark.parametrize("plane", sorted(PLANES))
def test_a_branched_cell_equals_the_cell_run_alone(plane, pacing, forks):
    metrics = _branched_cells_equal_cells_run_alone(_grid(plane, pacing), forks)
    # The failures did something.
    assert _distinct(metrics) == len(FRACTIONS)


@pytest.mark.parametrize("access_rate_bps", (None, 2e6),
                         ids=("rateless", "rated"))
@pytest.mark.parametrize("plane", sorted(PLANES))
def test_a_branched_bulk_fluid_cell_equals_the_cell_run_alone(
        plane, access_rate_bps, forks):
    """Fluid flows of 400 packets on average are in the pump at the branch.

    On rate-less access links the path groups that cross a failed
    locator's link book per group after ``fail_at``, and the others are
    summed into one booking per link; on 2 Mb/s access links every group
    books per group and most ticks are cut short and split pro rata.
    """
    grid = _grid(plane, "fluid", packets_per_flow=400,
                 workload_overrides={"fluid_threshold": 1.0,
                                     "fluid_chunk_interval": 0.125})
    grid = replace(grid, scenario_overrides={
        **grid.scenario_overrides, "access_rate_bps": access_rate_bps})
    metrics = _branched_cells_equal_cells_run_alone(grid, forks)
    assert len({m["fluid_bytes"] for m in metrics}) == len(FRACTIONS)
    assert _distinct(metrics) == len(FRACTIONS)


def test_a_family_failing_after_the_workload_ends_branches_at_its_end(forks):
    """The branch point is capped at the workload's end: the failures are
    queued and never fire, as in the cell run alone."""
    grid = _grid("pce-probing", "constant", fail_at=100.0, repair_at=101.0)
    metrics = _branched_cells_equal_cells_run_alone(grid, forks)
    assert len({m["sim_events"] for m in metrics}) == 1
    assert _distinct(metrics) == 1


def test_failures_fall_at_instants_counted_from_the_cell_start(monkeypatch):
    """Not from the clock at the branch point, which lags ``fail_at`` by
    however long the last event before it was."""
    starts, instants = [], []
    start_workload = worldrun.start_workload
    schedule = worldrun.schedule_access_failure

    def watched_start(world, workload):
        starts.append(world.sim.now)
        return start_workload(world, workload)

    def watched_schedule(queue, site, locator, fail_at, repair_at):
        instants.append((fail_at, repair_at))
        return schedule(queue, site, locator, fail_at, repair_at)
    monkeypatch.setattr(worldrun, "start_workload", watched_start)
    monkeypatch.setattr(worldrun, "schedule_access_failure", watched_schedule)
    grid = replace(_grid("alt", "constant"), fail_fractions=(0.5,))
    run_world(expand_grid(grid))
    (start,) = starts
    assert instants == [(start + grid.fail_at, start + grid.repair_at)] * 3


def test_failures_keep_the_queue_keys_of_the_cell_run_unbranched(forks):
    """Failing on a probe tick makes a same-instant tie: the failures must
    still sort before the tick, as when they were queued at the cell's
    start, ahead of the workload (here, against that unbranched run)."""
    grid = replace(_grid("pce-probing", "constant"), fail_fractions=(0.0, 0.5),
                   scenario_overrides={"enable_probing": True,
                                       "probe_period": 0.25,
                                       "probe_timeout": 0.125},
                   fail_at=1.25, repair_at=3.25)
    cells = expand_grid(grid)
    branched, _built = run_world(cells)
    assert len(forks["pids"]) == 1
    for cell, result in zip(cells, branched, strict=True):
        world = build_world(cell.scenario)
        sim = world.sim
        # 1.25 is the fifth instant of the probe grid.
        plane = world.control_plane
        assert sim.now == 0.0 and not sim._queue
        assert sum(repeat(plane.probe_period, 5), plane._round_at) == 1.25
        apply_failures(world, cell.failure, sim.now, sim)
        records = run_workload(world, cell.workload)
        assert result["metrics"]["sim_events"] == sim.processed_events
        assert result["metrics"]["packets_delivered"] == sum(
            record.packets_delivered for record in records)
        world.teardown()


def test_a_family_forks_one_child_at_a_time_and_reaps_it(forks):
    cells = expand_grid(replace(_grid("alt", "constant"),
                                fail_fractions=(0.0, 0.2, 0.4, 0.6)))
    run_world(cells)
    assert len(forks["pids"]) == 3
    assert forks["most"] == 1
    for pid in forks["pids"]:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_families_are_cells_that_differ_only_in_their_fraction(forks):
    """Other axes split families, so nothing forks; a family stays whole
    in one chunk however many workers share its world."""
    grid = replace(_grid("alt", "constant"), zipf_values=(0.0, 1.0),
                   fail_fractions=(0.0,))
    run_world(expand_grid(grid))
    assert forks["pids"] == []
    chunks = worldrun.world_chunks(expand_grid(replace(
        grid, fail_fractions=(0.0, 0.5))), workers=4)
    assert sorted(len(chunk) for chunk in chunks) == [2, 2]
    for chunk in chunks:
        assert len({cell.workload.zipf_s for cell in chunk}) == 1


def test_a_child_that_raises_fails_only_its_cell(monkeypatch, forks):
    run_cell = sweep.run_cell

    def branch_raises(world, cell, prefix):
        if cell.failure.fraction == 0.25:
            raise ValueError("no such locator")
        return run_cell(world, cell, prefix)
    monkeypatch.setattr(sweep, "run_cell", branch_raises)
    cells = expand_grid(_grid("alt", "constant"))
    gc.collect()
    before = _live_simulators()
    results, _built = run_world(cells)
    assert len(forks["pids"]) == 2 and not forks["alive"]
    failed = results[1]
    assert (failed["index"], failed["cell_id"], failed["exception"],
            failed["message"]) == (1, "alt-sites6-zipf1-fail0.25-seed3",
                                   "ValueError", "no such locator")
    assert failed["config"]["fail_fraction"] == 0.25
    assert len(failed["traceback_sha256"]) == 64
    # The world died by reference count: no collection is needed to free
    # its simulator.
    assert _live_simulators() == before
    monkeypatch.undo()
    clean, _built = run_world(cells)
    assert [results[0], results[2]] == [clean[0], clean[2]]


def test_a_fluid_world_that_raises_mid_pump_dies_by_reference_count(
        monkeypatch):
    tick = FluidPump._tick

    def jammed(pump, interval):
        if pump.sim.now >= 1.0:
            assert pump._lanes[interval], "no flow in the pump to strand"
            raise ValueError("pump jammed")
        tick(pump, interval)
    monkeypatch.setattr(FluidPump, "_tick", jammed)
    cells = expand_grid(replace(_grid("alt", "fluid"), fail_fractions=(0.0,)))
    gc.collect()
    before = _live_simulators()
    [failed], _built = run_world(cells)
    assert (failed["exception"], failed["message"]) == ("ValueError",
                                                        "pump jammed")
    assert _live_simulators() == before


def test_a_child_that_dies_fails_its_family_naming_its_cell(monkeypatch,
                                                           forks):
    run_cell = sweep.run_cell

    def branch_dies(world, cell, prefix):
        if cell.failure.fraction == 0.5:
            os._exit(7)
        return run_cell(world, cell, prefix)
    monkeypatch.setattr(sweep, "run_cell", branch_dies)
    results, _built = run_world(expand_grid(_grid("alt", "constant")))
    assert [result["exception"] for result in results] == ["RuntimeError"] * 3
    assert {result["message"] for result in results} == {
        "cell 'alt-sites6-zipf1-fail0.5-seed3' (index 2) died in its branch "
        "with exit status 7"}
    assert len(forks["pids"]) == 2 and not forks["alive"]


def test_a_run_with_another_thread_alive_does_not_fork(forks):
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        results, _built = run_world(expand_grid(_grid("alt", "constant")))
    finally:
        release.set()
        other.join()
    assert forks["pids"] == []
    assert [result["fail_fraction"] for result in results] == list(FRACTIONS)


def test_a_run_under_a_line_tracer_does_not_fork(forks):
    """A child leaves through ``os._exit`` and would never report the lines
    it ran to a tracer the parent installed: under ``sys.settrace`` every
    cell runs alone, in-process."""
    previous = sys.gettrace()
    sys.settrace(lambda _frame, _event, _arg: None)
    try:
        results, _built = run_world(expand_grid(_grid("alt", "constant")))
    finally:
        sys.settrace(previous)
    assert forks["pids"] == []
    assert [result["fail_fraction"] for result in results] == list(FRACTIONS)


_run_world = worldrun.run_world


def _dies_on_alt(cells):
    """A world run whose worker dies on the ``alt`` world (module level, so
    the pool can pickle it by name)."""
    if cells[0].scenario.control_plane == "alt":
        os._exit(3)
    return _run_world(cells)


def test_a_dead_pool_worker_fails_the_sweep_instead_of_hanging(monkeypatch):
    get_context = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method=None: get_context("fork"))
    monkeypatch.setattr(worldrun, "run_world", _dies_on_alt)
    grid = SweepGrid(control_planes=("pce", "alt"), site_counts=(3,),
                     num_flows=4)
    outcome = {}

    def run():
        try:
            run_sweep(grid, workers=2)
        except BaseException as error:
            outcome["error"] = error
    sweeping = threading.Thread(target=run, daemon=True)
    sweeping.start()
    sweeping.join(timeout=60)
    assert not sweeping.is_alive(), "the sweep waits on a dead worker"
    assert isinstance(outcome.get("error"), BrokenProcessPool), outcome
