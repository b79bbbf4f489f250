"""World runs: the cells of a sweep, run world by world.

A sweep is a list of world runs.  :func:`world_chunks` cuts the grid into
runs of same-world cells, and :func:`run_world` runs one as *families*,
the cells that differ only in their failure fraction: its first family
builds the world, every later one resets it in place
(:func:`~repro.experiments.worldbuild.restore_world`), and the world is
torn down when the run ends, so it dies by reference count.  A family
runs its workload once up to ``fail_at`` and forks one child there per
further cell, one child at a time, each finishing its cell as if run
alone (see "Branching runs" in ``docs/contracts.md``) through
:func:`repro.experiments.sweep.run_cell`, read off that module (which
imports this one) when called.  Each family runs with the cyclic
collector paused, so a sweep makes no full collection (see "World
lifecycle cost" there).  :func:`completed_runs` runs the chunks inline
or on a worker pool.

Determinism: each cell's world is either freshly built or restored to the
post-build checkpoint, so a cell's result depends only on its configs —
never on which cells ran before it in the same worker, nor on whether it
branched off a family's run.
"""

import multiprocessing
import os
import pickle
import sys
import threading
from dataclasses import astuple, dataclass

from repro.experiments import sweep
from repro.experiments.grid import cell_config
from repro.experiments.workload import start_workload
from repro.experiments.worldbuild import (build_world, gc_paused,
                                           restore_world, world_key)


def _failed_count(scenario, failure):
    """How many sites *failure* takes down in *scenario* (0: none)."""
    if failure.fraction <= 0.0:
        return 0
    sites = len(scenario.topology.sites)
    return min(sites, max(1, round(failure.fraction * sites)))


def schedule_access_failure(queue, site, locator_index, fail_at, repair_at):
    """Fail, then repair, both directions of *site*'s access link
    *locator_index*, through ``queue.call_at`` (the simulator, or a
    :class:`~repro.sim.engine.Reservation` of it): E9's failure, and each
    failed site's in a cell with a ``fail_fraction``."""
    links = site.access_links[locator_index]

    def set_link(up):
        links["uplink"].up = up
        links["downlink"].up = up

    queue.call_at(fail_at, set_link, False)
    queue.call_at(repair_at, set_link, True)


def apply_failures(scenario, failure, start, queue):
    """Schedule the cell's RLOC failures (E9 machinery as a sweep axis).

    Sites fail at ``start + fail_at`` and are repaired at ``start +
    repair_at``, *start* being the instant the cell's workload started,
    and are queued through *queue*: the simulator, or the
    :class:`~repro.sim.engine.Reservation` the cell's family took when it
    started, so the entries sort as if queued then.  Site choice draws
    from the dedicated ``failover`` RNG stream, so it is a pure function
    of the scenario seed — independent of the workload stream, of when it
    is drawn and of world reuse (restores drop the stream, and it
    re-derives identically).
    """
    count = _failed_count(scenario, failure)
    if not count:
        return
    sites = scenario.topology.sites
    rng = scenario.sim.rng.stream("failover")
    for index in sorted(rng.sample(range(len(sites)), count)):
        schedule_access_failure(queue, sites[index], 0,
                                start + failure.fail_at,
                                start + failure.repair_at)


@dataclass(frozen=True)
class _Prefix:
    """What a family's cells share at its branch point."""

    start: float           # the instant the workload started
    keys: object           # the Reservation the failures are queued under
    records: list          # the workload's flow records so far
    end: float             # the instant the workload ends


def _failure(cell, error):
    """The error record of *cell*, which raised *error* (being handled).

    Imports where needed: at the top of the module ``traceback`` cost
    reuse_sweep about 1 MB of peak RSS (allocator layout).
    """
    import hashlib
    import traceback
    trace = traceback.format_exc()
    return {"index": cell.index, "cell_id": cell.cell_id,
            "config": cell_config(cell), "exception": type(error).__name__,
            "message": str(error),
            "traceback_sha256": hashlib.sha256(trace.encode()).hexdigest()}


def _family_key(cell):
    """What the cells of one family share: everything but the fraction."""
    return (world_key(cell.scenario), astuple(cell.workload),
            cell.failure.fail_at, cell.failure.repair_at)


def _families(cells):
    """The positions in *cells* of each family, in first-appearance order.

    Families of one when this process cannot fork cleanly: no
    ``os.fork``, another thread alive (a child holds only the forking
    thread, and whatever lock another held stays held), or a profiler
    installed (it would never see the children's calls).
    """
    monitoring = getattr(sys, "monitoring", None)
    alone = (not hasattr(os, "fork") or threading.active_count() > 1
             or sys.getprofile() is not None
             or (monitoring is not None
                 and monitoring.get_tool(monitoring.PROFILER_ID) is not None))
    groups = {}
    for position, cell in enumerate(cells):
        groups.setdefault(position if alone else _family_key(cell),
                          []).append(position)
    return list(groups.values())


def _run_family(world, family):
    """Run the cells of *family* on *world*, pristine; results in order.

    The workload starts once and runs strictly before the branch point,
    the cells' ``fail_at`` capped at the workload's end; each cell but the
    first then finishes in a child forked there (:func:`_branched`), one
    child at a time, and the first finishes here.  A branched cell is the
    cell run alone, byte for byte (see "Branching runs" in
    ``docs/contracts.md``).
    """
    sim = world.sim
    first = family[0]
    start = sim.now
    failed = max(_failed_count(world, cell.failure) for cell in family)
    keys = sim.reserve(2 * failed)
    records, end = start_workload(world, first.workload)
    sim.run_before(min(start + first.failure.fail_at, end))
    prefix = _Prefix(start, keys, records, end)
    branched = [_branched(world, cell, prefix) for cell in family[1:]]
    return [sweep.run_cell(world, first, prefix), *branched]


def _branched(world, cell, prefix):
    """:func:`~repro.experiments.sweep.run_cell` of *cell* in a forked
    child; its result.

    The child pickles its result, or the cell's error record
    (:func:`_failure`) if it raised, into a pipe and leaves with
    ``os._exit``: a child that raised fails its cell alone.  The parent
    reads the pipe to its end before it reaps the child, and raises,
    naming the cell, for a child that died.
    """
    reader, writer = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(reader)
        os.close(writer)
        raise
    if pid == 0:
        # The child never returns: nothing of the parent's call stack (its
        # ``finally`` blocks, the world's teardown) may run here twice.
        code = 1
        try:
            os.close(reader)
            try:
                reply = sweep.run_cell(world, cell, prefix)
            except Exception as error:
                reply = _failure(cell, error)
            with open(writer, "wb") as pipe:
                pickle.dump(reply, pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(writer)
    try:
        with open(reader, "rb") as pipe:
            data = pipe.read()
    finally:
        _pid, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"cell {cell.cell_id!r} (index {cell.index}) died "
                           f"in its branch with exit status {code}")
    return pickle.loads(data)


def run_world(cells):
    """Run *cells*, which share a world, in families; results in cell order.

    A family is the cells that share their workload and failure instants
    and differ only in the failure fraction (:func:`_run_family`): it
    runs the workload once up to its branch point and forks the rest off
    there.  The first family builds the world and each later one resets
    it in place; the world is torn down when the run ends, however it
    ends, and dies by reference count.  Each family — its build or
    restore, its run and every metric collection in this process — runs
    with the cyclic collector paused
    (:func:`~repro.experiments.worldbuild.gc_paused`): a cell makes no
    cyclic garbage, so every pass it would trigger walks live objects and
    frees nothing.  This is both the serial path and the pool's task.

    A family that raises fails its cells, not the run: each gets its
    error record (:func:`_failure`), and the next family builds a fresh
    world.  Returns the results and the positions of the cells whose
    family built the world (the first, and each rebuild's).
    """
    world = None
    results = [None] * len(cells)
    built = []
    try:
        for family in _families(cells):
            members = [cells[position] for position in family]
            with gc_paused():
                try:
                    if world is None:
                        world = build_world(members[0].scenario)
                        built.append(family[0])
                    else:
                        restore_world(world)
                    outcomes = _run_family(world, members)
                except Exception as error:
                    outcomes = [_failure(cell, error) for cell in members]
                    if world is not None:
                        world.teardown()
                        world = None
                for position, outcome in zip(family, outcomes, strict=True):
                    results[position] = outcome
    finally:
        if world is not None:
            world.teardown()
    return results, built


def world_chunks(cells, workers):
    """*cells* as the runs of same-world cells a pool of *workers* takes.

    Cells are grouped by world, worlds in first-appearance order, and each
    world's families (:func:`run_world`) are split into at most
    ``ceil(workers / distinct worlds)`` chunks of near-equal length, each
    chunk in grid order: one worker gets one chunk per world, a grid with
    at least as many worlds as workers sends each world whole, so each is
    built exactly once wherever it runs, and a grid with fewer worlds
    splits them so every worker has cells to run.  A family is never
    split.
    """
    runs = {}
    for cell in cells:
        runs.setdefault(world_key(cell.scenario), []).append(cell)
    parts = -(-workers // len(runs))
    chunks = []
    for run in runs.values():
        families = list(dict.fromkeys(map(_family_key, run)))
        size = -(-len(families) // parts)
        for start in range(0, len(families), size):
            taken = set(families[start:start + size])
            chunks.append([cell for cell in run if _family_key(cell) in taken])
    return chunks


def completed_runs(cells, workers):
    """Yield each chunk's :func:`run_world` outcome as the chunk completes.

    ``workers<=1`` runs one chunk per world, inline; otherwise the
    :func:`world_chunks` go to a pool of at most one worker per chunk,
    each chunk's world built in the worker that runs it (fork and spawn
    alike: nothing is built here).  Completion order is arbitrary under
    fan-out; the caller sorts by cell index.  A worker that dies breaks
    the pool, and the sweep raises ``BrokenProcessPool`` instead of
    waiting for it.
    """
    chunks = world_chunks(cells, max(1, workers))
    if workers <= 1 or len(chunks) <= 1:
        yield from map(run_world, chunks)
        return
    # Imported here: a serial sweep does not load the pool's modules
    # (about 1 MB resident).
    from concurrent.futures import ProcessPoolExecutor, as_completed
    pool = ProcessPoolExecutor(max_workers=min(workers, len(chunks)),
                               mp_context=multiprocessing.get_context())
    try:
        runs = [pool.submit(run_world, chunk) for chunk in chunks]
        for run in as_completed(runs):
            yield run.result()
    finally:
        pool.shutdown(cancel_futures=True)
