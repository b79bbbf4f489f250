"""Tests for world blobs and world reuse in a sweep (``run_world``).

A blob names the world's config and nothing else: ``deserialize_world``
validates the envelope against the config it is handed and builds that
config's world.  The contract is *refuse, never stale-restore*: a blob
that fails validation (corruption, schema bump, world key mismatch)
raises ``SnapshotError`` and nothing is built.  And where a world came
from must be invisible in the results: fresh-built, reset-in-place and
deserialized worlds produce byte-identical flow records and sweep
digests.
"""

import gc
import json
import os
import pickle
import subprocess
import sys
from dataclasses import replace

import pytest
from test_sweep import cell_sim_events

from repro.experiments import worldbuild, worldrun
from repro.experiments.grid import SweepGrid, expand_grid
from repro.experiments.measure import _control
from repro.experiments.scenario import CONTROL_PLANES, ScenarioConfig
from repro.experiments.sweep import payload_digest, run_sweep
from repro.experiments.workload import WorkloadConfig, run_workload
from repro.experiments.worldbuild import (SNAPSHOT_MAGIC, SnapshotError,
                                          build_world, deserialize_world,
                                          restore_world, serialize_world,
                                          world_key)
from repro.experiments.worldrun import run_world, world_chunks

CONFIG = ScenarioConfig(control_plane="pce", num_sites=3, seed=5,
                        tracing=False)

GRID = SweepGrid(name="snap", control_planes=("pce", "alt"), site_counts=(3,),
                 seeds=(1,), zipf_values=(0.5, 1.2), num_flows=8,
                 arrival_rate=10.0)

FLOWS = WorkloadConfig(num_flows=10)


def _envelope(blob):
    return json.loads(blob[len(SNAPSHOT_MAGIC):])


def _blob_with(blob, **fields):
    """*blob* with envelope *fields* replaced, still well-formed JSON."""
    envelope = {**_envelope(blob), **fields}
    return SNAPSHOT_MAGIC + json.dumps(envelope).encode()


# --------------------------------------------------------------------- #
# Serialization round-trip
# --------------------------------------------------------------------- #

def test_serialize_deserialize_round_trip():
    blob = serialize_world(build_world(CONFIG))
    assert blob.startswith(SNAPSHOT_MAGIC)
    assert set(_envelope(blob)) == {"schema", "key", "crc"}
    scenario = deserialize_world(blob, CONFIG)
    assert scenario.config == CONFIG
    assert scenario.world_checkpoint is not None


def test_restored_world_runs_cells_byte_identically():
    """The core determinism contract: a deserialized world is invisible."""
    world = build_world(CONFIG)
    twin = deserialize_world(serialize_world(world), CONFIG)
    assert twin is not world
    assert run_workload(twin, FLOWS) == run_workload(world, FLOWS)
    assert twin.sim.processed_events == world.sim.processed_events
    assert twin.byte_accounting() == world.byte_accounting()
    assert _control(twin) == _control(world)


@pytest.mark.parametrize("family,sites", (("fig1", 4), ("flat", 3),
                                          ("tiered", 6), ("caida", 6)))
@pytest.mark.parametrize("plane", CONTROL_PLANES)
def test_round_trip_gives_the_fresh_worlds_flow_records(plane, family, sites):
    """Every control plane on every family: a world's blob, taken clean or
    after a run, deserializes to a world whose 10-flow workload gives the
    flow records the original gave."""
    config = ScenarioConfig(control_plane=plane, topology=family,
                            num_sites=sites, seed=3, tracing=False)
    world = build_world(config)
    clean = serialize_world(world)
    expected = run_workload(world, FLOWS)
    world.sim.run()             # settle what the deadline cut off
    assert world.world_checkpoint.dirty
    dirty = serialize_world(world)
    assert dirty == clean       # a blob carries no state, dirty or not
    for blob in (clean, dirty):
        assert run_workload(deserialize_world(blob, config), FLOWS) == expected


def test_serialize_requires_checkpointed_settled_world():
    from repro.experiments.scenario import build_scenario

    bare = build_scenario(CONFIG)  # no checkpoint attached
    with pytest.raises(ValueError, match="checkpoint"):
        serialize_world(bare)
    scenario = build_world(CONFIG)
    scenario.sim.call_in(0.5, lambda: None)  # pending foreground event
    assert not scenario.sim.serializable
    with pytest.raises(ValueError, match="foreground"):
        serialize_world(scenario)


# --------------------------------------------------------------------- #
# Validation: every mismatch is refused before anything is built
# --------------------------------------------------------------------- #

def test_corrupted_blob_forces_rebuild(no_world_builds):
    """A damaged blob is refused; what the caller has left is its config."""
    blob = serialize_world(build_world(CONFIG))
    crc = _envelope(blob)["crc"]
    with pytest.raises(SnapshotError, match="CRC mismatch"):
        deserialize_world(_blob_with(blob, crc=crc ^ 1), CONFIG)
    data = bytearray(blob)
    data[len(SNAPSHOT_MAGIC)] ^= 0xFF   # the envelope's opening brace
    with pytest.raises(SnapshotError, match="corrupt envelope"):
        deserialize_world(bytes(data), CONFIG)


def test_truncated_blob_forces_rebuild(no_world_builds):
    blob = serialize_world(build_world(CONFIG))
    with pytest.raises(SnapshotError, match="corrupt envelope"):
        deserialize_world(blob[:-20], CONFIG)
    with pytest.raises(SnapshotError, match="corrupt envelope"):
        deserialize_world(SNAPSHOT_MAGIC, CONFIG)


def test_non_snapshot_file_is_rejected(no_world_builds):
    for junk in (b"not a snapshot at all", b"junk", b""):
        with pytest.raises(SnapshotError, match="bad magic"):
            deserialize_world(junk, CONFIG)


def test_schema_version_bump_invalidates_blobs(monkeypatch):
    blob = serialize_world(build_world(CONFIG))
    monkeypatch.setattr(worldbuild, "SNAPSHOT_SCHEMA",
                        worldbuild.SNAPSHOT_SCHEMA + 1)
    with pytest.raises(SnapshotError, match="schema mismatch"):
        deserialize_world(blob, CONFIG)


def test_world_key_collision_forces_rebuild(no_world_builds):
    """A blob handed over for another config must not stand for it: the
    envelope carries the full world key and the mismatch is caught."""
    blob = serialize_world(build_world(CONFIG))
    for other in (replace(CONFIG, seed=99), replace(CONFIG, mapping_ttl=30.5),
                  replace(CONFIG, tracing=True)):
        with pytest.raises(SnapshotError, match="world-key mismatch"):
            deserialize_world(blob, other)


def test_pickled_envelope_is_refused_without_unpickling(tmp_path,
                                                       no_world_builds):
    """Nothing unpickles handed-in bytes: a blob whose body is a pickle
    that would run code on loading is refused, and the code never runs."""
    planted = tmp_path / "planted"

    class Payload:
        def __reduce__(self):
            return os.mkdir, (str(planted),)

    body = pickle.dumps({"schema": worldbuild.SNAPSHOT_SCHEMA,
                         "key": world_key(CONFIG), "crc": 0,
                         "payload": Payload()})
    pickle.loads(pickle.dumps(Payload()))   # the side effect is real...
    planted.rmdir()
    with pytest.raises(SnapshotError, match="corrupt envelope"):
        deserialize_world(SNAPSHOT_MAGIC + body, CONFIG)
    assert not planted.exists()             # ...and did not happen here


def test_restore_falls_back_to_build_in_builder(monkeypatch):
    """Deserializing is building: a valid blob hands its config to
    ``build_world``, once, and returns what that built."""
    blob = serialize_world(build_world(CONFIG))
    built = []

    def recording_build(config):
        built.append(build_world(config))
        return built[-1]
    monkeypatch.setattr(worldbuild, "build_world", recording_build)
    twin = deserialize_world(blob, CONFIG)
    assert built == [twin] and twin.config == CONFIG


def test_fingerprint_covers_key_and_versions(monkeypatch):
    """The blob is the world's fingerprint: equal for equal configs,
    different for any other config or schema version."""
    base = serialize_world(build_world(CONFIG))
    assert serialize_world(build_world(CONFIG)) == base
    assert serialize_world(build_world(replace(CONFIG, seed=6))) != base
    world = build_world(CONFIG)
    monkeypatch.setattr(worldbuild, "SNAPSHOT_SCHEMA",
                        worldbuild.SNAPSHOT_SCHEMA + 1)
    assert serialize_world(world) != base


@pytest.mark.parametrize("family,sites,plane", (
    ("fig1", 4, "pce"), ("flat", 150, "nerd"), ("tiered", 300, "cons"),
    ("tiered", 1000, "alt")))
def test_every_blob_is_under_a_kilobyte(family, sites, plane):
    """A blob's size does not follow the world's: from the Fig. 1 world to
    a 1 000-site tiered one."""
    config = ScenarioConfig(control_plane=plane, topology=family,
                            num_sites=sites, num_providers=8, seed=1,
                            tracing=False)
    world = build_world(config)
    assert len(serialize_world(world)) < 1024
    del world
    gc.collect()    # bare-built worlds are their builder's to collect


# --------------------------------------------------------------------- #
# World runs: one build, then restores
# --------------------------------------------------------------------- #

def test_memory_store_one_build_many_restores(monkeypatch):
    """A world run builds its world once and resets that same world in
    place, back to the checkpoint instant, for every later cell."""
    builds = []
    seen = []
    build, start_workload = worldrun.build_world, worldrun.start_workload

    def counting_build(config):
        builds.append(build(config))
        return builds[-1]

    def watched(world, workload):  # where each cell's run starts
        seen.append((world, world.sim.now))
        return start_workload(world, workload)

    monkeypatch.setattr(worldrun, "build_world", counting_build)
    monkeypatch.setattr(worldrun, "start_workload", watched)
    cells = expand_grid(replace(GRID, control_planes=("pce",),
                                zipf_values=(0.0, 0.5, 1.0, 1.5)))
    results, built = run_world(cells)
    assert [result["index"] for result in results] \
        == [cell.index for cell in cells]
    assert len(builds) == 1 and built == [0]
    assert [world for world, _now in seen] == builds * len(cells)
    assert len({now for _world, now in seen}) == 1  # reset in place


def test_world_cache_stats_counts_restores():
    """run_sweep's per-cell outcome tally: every cell after a world's
    first is a hit, an in-place restore; the first is a miss, a build."""
    cache = run_sweep(GRID, workers=1)["world_cache"]
    assert cache == {"builds": 2, "hits": 2}


def test_world_chunks_split_worlds_by_worker_share():
    """Each world's cells go out as at most ceil(workers / worlds) runs of
    same-world cells, near-equal in length; at least as many worlds as
    workers sends every world whole."""
    cells = expand_grid(GRID)
    # One world per control plane; zipf is workload-only.
    assert len({world_key(c.scenario) for c in cells}) == 2

    def shape(chunks):
        assert sorted(c.index for chunk in chunks for c in chunk) \
            == [c.index for c in cells]
        for chunk in chunks:
            assert len({world_key(c.scenario) for c in chunk}) == 1
        return [len(chunk) for chunk in chunks]

    assert shape(world_chunks(cells, 2)) == [2, 2]   # 2 worlds, 2 workers
    assert shape(world_chunks(cells, 3)) == [1, 1, 1, 1]  # ceil(3/2) = 2
    assert shape(world_chunks(cells, 8)) == [1, 1, 1, 1]  # no empty chunk
    one_world = expand_grid(replace(GRID, control_planes=("pce",),
                                    zipf_values=(0.0, 0.5, 1.0, 1.5, 2.0)))
    assert [len(chunk) for chunk in world_chunks(one_world, 2)] == [3, 2]


# --------------------------------------------------------------------- #
# Sweep integration: the acceptance criteria at test scale
# --------------------------------------------------------------------- #

def test_fanned_sweep_builds_each_world_once_and_matches_serial():
    serial = run_sweep(GRID, workers=1)
    fanned = run_sweep(GRID, workers=2)
    assert payload_digest(serial) == payload_digest(fanned)
    assert cell_sim_events(serial) == cell_sim_events(fanned)
    # As many worlds as workers: each world goes out as one chunk, built
    # once by the worker that runs it, its second cell a reset.
    assert fanned["world_cache"] == {"builds": 2, "hits": 2}


def test_fan_out_builds_nothing_in_the_parent(monkeypatch):
    """Workers build every world a fan-out run uses; the parent none."""
    parent = os.getpid()
    parent_builds = []
    build_world_in = worldrun.build_world

    def counting_build(config):
        if os.getpid() == parent:
            parent_builds.append(config)
        return build_world_in(config)

    monkeypatch.setattr(worldrun, "build_world", counting_build)
    fanned = run_sweep(GRID, workers=2)
    assert parent_builds == []
    assert fanned["world_cache"]["builds"] == 2


_FAN_OUT_SWEEP = """
import json, multiprocessing
from repro.experiments.grid import SweepGrid
from repro.experiments.sweep import payload_digest, run_sweep
multiprocessing.set_start_method({method!r})
GRID = {grid!r}
serial = run_sweep(GRID, workers=1)
fanned = run_sweep(GRID, workers=2)
events = [[cell["metrics"]["sim_events"] for cell in payload["cells"]]
          for payload in (serial, fanned)]
print(json.dumps({{"same": payload_digest(serial) == payload_digest(fanned),
                  "events": events, "cache": fanned["world_cache"]}}))
"""


def _fan_out_report(method, grid):
    """Serial and 2-worker runs of *grid* in a fresh interpreter that
    starts its workers with *method*."""
    done = subprocess.run(
        [sys.executable, "-c", _FAN_OUT_SWEEP.format(method=method, grid=grid)],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    return json.loads(done.stdout)


def test_spawn_fan_out_matches_serial():
    """No fork inheritance: each worker builds the worlds of the cells it
    is handed — same digest and event counts as a serial run."""
    report = _fan_out_report("spawn", GRID)
    assert report["same"] is True
    # Worlds built in a worker pop exactly the events the parent's do.
    assert report["events"][0] == report["events"][1]
    assert all(count > 0 for count in report["events"][0])
    assert report["cache"] == {"builds": 2, "hits": 2}


@pytest.mark.parametrize("method", ("fork", "spawn"))
def test_fan_out_builds_each_world_once_under_either_start_method(method):
    """More worlds than workers: each world is one chunk, built once by
    whichever worker takes it, and the start method changes nothing."""
    grid = replace(GRID, control_planes=("pce", "alt", "nerd"))
    cells = expand_grid(grid)
    worlds = len({world_key(cell.scenario) for cell in cells})
    assert worlds == 3 and len(cells) == 6
    report = _fan_out_report(method, grid)
    assert report["same"] is True
    assert report["events"][0] == report["events"][1]
    assert report["cache"] == {"builds": worlds, "hits": len(cells) - worlds}


def test_probing_failover_worlds_snapshot_cleanly():
    """The hardest worlds (armed periodic tasks, prober state) give the
    same results fanned out, and round-trip through a blob record for
    record."""
    overrides = {"enable_probing": True, "probe_period": 0.3,
                 "probe_timeout": 0.15}
    grid = SweepGrid(name="snapfail", control_planes=("pce",),
                     site_counts=(3,), seeds=(21,), fail_fractions=(0.0, 0.5),
                     fail_at=0.3, repair_at=1.5, num_flows=8,
                     arrival_rate=10.0, packets_per_flow=4,
                     scenario_overrides=overrides)
    serial = run_sweep(grid, workers=1)
    fanned = run_sweep(grid, workers=2)
    assert payload_digest(serial) == payload_digest(fanned)
    assert cell_sim_events(serial) == cell_sim_events(fanned)

    config = replace(CONFIG, seed=21, **overrides)
    world = build_world(config)
    twin = deserialize_world(serialize_world(world), config)
    assert run_workload(twin, FLOWS) == run_workload(world, FLOWS)
    assert twin.sim.processed_events == world.sim.processed_events


def test_blob_is_pure_bytes_and_worlds_are_independent():
    """Deserialized worlds share nothing: running one leaves the blob and
    every other world deserialized from it pristine."""
    world = build_world(CONFIG)
    checkpoint_now = world.sim.now
    blob = serialize_world(world)
    first = deserialize_world(blob, CONFIG)
    run_workload(first, WorkloadConfig(num_flows=6, arrival_rate=10.0))
    assert first.sim.now > checkpoint_now
    second = deserialize_world(blob, CONFIG)
    assert second is not first and second.sim is not first.sim
    assert second.sim.now == checkpoint_now
    for xtrs in second.xtrs_by_site.values():
        for xtr in xtrs:
            assert xtr.map_cache.hits == 0 and xtr.map_cache.misses == 0
    restore_world(first)
    assert serialize_world(first) == blob


# --------------------------------------------------------------------- #
# Deep worlds
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("topology,sites", (("tiered", 300), ("caida", 500)))
def test_deep_worlds_round_trip_record_for_record(topology, sites):
    config = ScenarioConfig(control_plane="pce", topology=topology,
                            num_sites=sites, seed=1, tracing=False)
    world = build_world(config)
    twin = deserialize_world(serialize_world(world), config)
    assert [link.name for link in twin.links] == \
        [link.name for link in world.links]
    assert run_workload(twin, FLOWS) == run_workload(world, FLOWS)
    assert twin.sim.processed_events == world.sim.processed_events
    del world, twin
    gc.collect()    # bare-built worlds are their builder's to collect


def test_thousand_site_twelve_ix_world_serializes():
    """A 1 000-site tiered world serializes to its config's envelope
    (hand-built twelve-IX layouts belong to the routing oracle's
    ``TierLayout``; this one is derived)."""
    config = ScenarioConfig(control_plane="pce", topology="tiered",
                            num_sites=1000, seed=1, tracing=False)
    world = build_world(config)
    assert len(world.topology.sites) == 1000
    blob = serialize_world(world)
    assert len(blob) < 1024
    assert _envelope(blob)["key"] == list(world_key(config))
    del world
    gc.collect()


def test_snapshot_error_survives_pickling():
    """An error leaving a pool worker is pickled: message and reason hold."""
    error = SnapshotError("schema mismatch", "blob v1, expected v18")
    clone = pickle.loads(pickle.dumps(error))
    assert str(clone) == str(error)
    assert clone.reason == error.reason
