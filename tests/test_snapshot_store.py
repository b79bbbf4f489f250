"""Tests for the world cache (SnapshotStore): serialization, invalidation.

The store's contract is *rebuild, never stale-restore*: any blob that
fails validation (corruption, schema bump, world key mismatch) is
discarded and the world built from the config.  And where a world came
from must be invisible in the results: fresh-built, reset-in-place and
blob-restored worlds produce byte-identical sweep digests.
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

from repro.cli import main

from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.experiments.sweep import (SweepGrid, distinct_world_configs,
                                     expand_grid, payload_digest,
                                     prebuild_worlds, run_cell, run_sweep)
from repro.experiments import worldbuild
from repro.experiments.worldbuild import (SNAPSHOT_MAGIC, SnapshotError,
                                          SnapshotStore,
                                          build_world, deserialize_world,
                                          serialize_world,
                                          snapshot_fingerprint, world_key)
from repro.experiments.workload import WorkloadConfig, run_workload

CONFIG = ScenarioConfig(control_plane="pce", num_sites=3, seed=5,
                        tracing=False)

GRID = SweepGrid(name="snap", control_planes=("pce", "alt"), site_counts=(3,),
                 seeds=(1,), zipf_values=(0.5, 1.2), num_flows=8,
                 arrival_rate=10.0)


def _blob_path(directory, config):
    return directory / f"{snapshot_fingerprint(config)}.world"


# --------------------------------------------------------------------- #
# Serialization round-trip
# --------------------------------------------------------------------- #

def test_serialize_deserialize_round_trip():
    blob = serialize_world(build_world(CONFIG))
    assert blob.startswith(SNAPSHOT_MAGIC)
    scenario = deserialize_world(blob, CONFIG)
    assert scenario.config == CONFIG
    assert scenario.world_checkpoint is not None


def test_restored_world_runs_cells_byte_identically():
    """The core determinism contract: a blob-restored world is invisible."""
    grid = SweepGrid(control_planes=("pce",), site_counts=(3,), seeds=(5,),
                     num_flows=10, arrival_rate=10.0)
    cell = expand_grid(grid)[0]
    fresh = run_cell(cell)

    store = SnapshotStore()
    assert store.ensure(cell.scenario) == "build"
    restored = run_cell(cell, store)
    assert store.last_outcome == "restore"
    assert json.dumps(fresh, sort_keys=True) \
        == json.dumps(restored, sort_keys=True)


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
# Invalidation: every mismatch forces a rebuild
# --------------------------------------------------------------------- #

def test_corrupted_blob_forces_rebuild(tmp_path):
    store = SnapshotStore(str(tmp_path))
    assert store.ensure(CONFIG) == "build"
    path = _blob_path(tmp_path, CONFIG)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF  # flip a payload byte: CRC catches it
    path.write_bytes(bytes(data))

    fresh_store = SnapshotStore(str(tmp_path))
    assert not fresh_store.has_snapshot(CONFIG)
    assert fresh_store.stats.invalidated == 1
    assert not path.exists()  # discarded, not retried forever
    assert fresh_store.ensure(CONFIG) == "build"
    assert fresh_store.world_for(CONFIG)[1] == "restore"


def test_truncated_blob_forces_rebuild(tmp_path):
    store = SnapshotStore(str(tmp_path))
    store.ensure(CONFIG)
    path = _blob_path(tmp_path, CONFIG)
    path.write_bytes(path.read_bytes()[:200])
    fresh_store = SnapshotStore(str(tmp_path))
    assert not fresh_store.has_snapshot(CONFIG)
    assert fresh_store.stats.invalidated == 1


def test_non_snapshot_file_is_rejected(tmp_path):
    path = _blob_path(tmp_path, CONFIG)
    path.write_bytes(b"not a snapshot at all")
    store = SnapshotStore(str(tmp_path))
    assert not store.has_snapshot(CONFIG)
    with pytest.raises(SnapshotError, match="bad magic"):
        deserialize_world(b"junk", CONFIG)


def test_schema_version_bump_invalidates_blobs(tmp_path, monkeypatch):
    store = SnapshotStore(str(tmp_path))
    store.ensure(CONFIG)
    blob = _blob_path(tmp_path, CONFIG).read_bytes()

    monkeypatch.setattr(worldbuild, "SNAPSHOT_SCHEMA",
                        worldbuild.SNAPSHOT_SCHEMA + 1)
    # The fingerprint changes with the schema, so the old file is simply
    # not found under the new name...
    bumped_store = SnapshotStore(str(tmp_path))
    assert not bumped_store.has_snapshot(CONFIG)
    assert bumped_store.ensure(CONFIG) == "build"
    # ...and even a blob handed over directly fails envelope validation.
    with pytest.raises(SnapshotError, match="schema mismatch"):
        deserialize_world(blob, CONFIG)


def test_world_key_collision_forces_rebuild(tmp_path):
    """A blob filed under another config's fingerprint must not restore:
    the envelope carries the full world key and the mismatch is caught."""
    other = replace(CONFIG, seed=99)
    blob = serialize_world(build_world(CONFIG))
    _blob_path(tmp_path, other).write_bytes(blob)

    store = SnapshotStore(str(tmp_path))
    assert not store.has_snapshot(other)
    assert store.stats.invalidated == 1
    assert not _blob_path(tmp_path, other).exists()
    assert store.ensure(other) == "build"
    restored, outcome = store.world_for(other)
    assert restored.config == other and outcome == "restore"
    with pytest.raises(SnapshotError, match="world-key mismatch"):
        deserialize_world(blob, other)


def test_restore_falls_back_to_build_in_builder(tmp_path):
    """A store whose blob is invalid builds instead (outcome miss)."""
    store = SnapshotStore(str(tmp_path))
    store.ensure(CONFIG)
    path = _blob_path(tmp_path, CONFIG)
    data = bytearray(path.read_bytes())
    data[-10] ^= 0xFF
    path.write_bytes(bytes(data))

    fresh_store = SnapshotStore(str(tmp_path))
    scenario, outcome = fresh_store.world_for(CONFIG)
    assert outcome == "miss"
    assert fresh_store.stats.builds == 1 and fresh_store.stats.restores == 0
    assert scenario.world_checkpoint is not None


# --------------------------------------------------------------------- #
# Store bookkeeping
# --------------------------------------------------------------------- #

def test_fingerprint_covers_key_and_versions(monkeypatch):
    base = snapshot_fingerprint(CONFIG)
    assert snapshot_fingerprint(CONFIG) == base
    assert snapshot_fingerprint(replace(CONFIG, seed=6)) != base
    monkeypatch.setattr(worldbuild, "SNAPSHOT_SCHEMA",
                        worldbuild.SNAPSHOT_SCHEMA + 1)
    assert snapshot_fingerprint(CONFIG) != base


def test_memory_store_one_build_many_restores():
    store = SnapshotStore()
    assert store.ensure(CONFIG) == "build"
    assert store.ensure(CONFIG) == "hit"
    first, outcome = store.world_for(CONFIG)
    assert outcome == "restore"
    store.world_for(replace(CONFIG, seed=6))  # lets the first world go...
    second, outcome = store.world_for(CONFIG)
    assert outcome == "restore"  # ...so its blob is deserialized again
    assert first is not second  # every restore is an independent world
    assert store.stats.builds == 2
    assert store.stats.restores == 2
    assert len(store) == 1  # the on-demand seed-6 world is gone, blobless


def test_world_for_outcome_table(tmp_path, monkeypatch):
    """Live -> hit (same object); blob only -> restore; nothing -> miss;
    corrupt blob -> miss, counted and unlinked."""
    directory = tmp_path / "worlds"
    store = SnapshotStore(str(directory))
    built, outcome = store.world_for(CONFIG)
    assert outcome == "miss" and store.last_outcome == "miss"
    assert _blob_path(directory, CONFIG).exists()  # a miss persists its blob
    assert store.world_for(CONFIG) == (built, "hit")
    assert store.world_for(CONFIG)[0] is built

    blob_only = SnapshotStore(str(directory))
    restored, outcome = blob_only.world_for(CONFIG)
    assert outcome == "restore" and restored is not built
    assert blob_only.stats.as_dict() == {"builds": 0, "restores": 1,
                                         "hits": 1, "invalidated": 0}

    path = _blob_path(directory, CONFIG)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    corrupt = SnapshotStore(str(directory))
    blob_seen_by_build = []

    def recording_build(config):
        blob_seen_by_build.append(path.exists())
        return build_world(config)
    monkeypatch.setattr(worldbuild, "build_world", recording_build)
    assert corrupt.world_for(CONFIG)[1] == "miss"
    assert corrupt.stats.invalidated == 1
    assert blob_seen_by_build == [False]  # unlinked before the rebuild
    assert SnapshotStore(str(directory)).has_snapshot(CONFIG)  # and rewritten


def test_world_cache_stats_counts_restores(tmp_path):
    """run_sweep's per-cell outcome tally: a restore is a miss that did not
    build; hits are everything after a world's first cell."""
    snapshot_dir = str(tmp_path / "worlds")
    cold = run_sweep(GRID, workers=1, snapshot_dir=snapshot_dir)["world_cache"]
    warm = run_sweep(GRID, workers=1, snapshot_dir=snapshot_dir)["world_cache"]
    assert set(cold) == {"builds", "hits", "misses", "restores", "store"}
    counts = [{key: cache[key] for key in ("builds", "hits", "misses",
                                           "restores")}
              for cache in (cold, warm)]
    assert counts == [{"builds": 2, "hits": 2, "misses": 2, "restores": 0},
                      {"builds": 0, "hits": 2, "misses": 2, "restores": 2}]


def test_prebuild_worlds_builds_each_distinct_world_once():
    cells = expand_grid(GRID)
    configs = distinct_world_configs(cells)
    assert len(configs) == 2  # one per control plane; zipf is workload-only
    assert len({world_key(c) for c in configs}) == 2
    store = SnapshotStore()
    prebuild_worlds(store, cells, workers=1)
    assert store.stats.builds == 2
    prebuild_worlds(store, cells, workers=1)  # idempotent: all blobs valid
    assert store.stats.builds == 2


def test_prebuild_worlds_blob_pool_path(tmp_path):
    """The spawn-platform tier: a build pool returns blobs to the parent,
    which stores them; restores deserialize independent worlds."""
    cells = expand_grid(GRID)
    store = SnapshotStore(str(tmp_path / "worlds"))
    prebuild_worlds(store, cells, workers=2, live=False)
    assert store.stats.builds == 2
    assert len(list((tmp_path / "worlds").glob("*.world"))) == 2
    assert len(store) == 0  # blobs live on disk only: the parent holds none
    world, outcome = store.world_for(cells[0].scenario)
    assert outcome == "restore" and world.config == cells[0].scenario


def test_ensure_live_composes_with_directory(tmp_path):
    """live=True with a directory populates both tiers in one build: the
    live world serves this run's workers, the blob outlives the run."""
    directory = str(tmp_path / "worlds")
    store = SnapshotStore(directory)
    assert store.ensure(CONFIG, live=True) == "build"
    assert store.stats.builds == 1
    assert _blob_path(tmp_path / "worlds", CONFIG).exists()
    first, outcome = store.world_for(CONFIG)
    assert outcome == "hit"
    assert first is store.world_for(CONFIG)[0]  # live tier: shared object

    # A warm store hydrates its live tier from the blob: zero builds.
    warm = SnapshotStore(directory)
    assert warm.ensure(CONFIG, live=True) == "hit"
    assert warm.stats.builds == 0
    hydrated = warm.world_for(CONFIG)[0]
    assert hydrated is warm.world_for(CONFIG)[0]  # reset live, in place


# --------------------------------------------------------------------- #
# Sweep integration: the acceptance criteria at test scale
# --------------------------------------------------------------------- #

def test_fanned_sweep_builds_each_world_once_and_matches_serial():
    serial = run_sweep(GRID, workers=1)
    fanned = run_sweep(GRID, workers=4)
    assert payload_digest(serial) == payload_digest(fanned)
    assert cell_sim_events(serial) == cell_sim_events(fanned)
    cache = fanned["world_cache"]
    assert cache["store"]["builds"] == 2   # exactly one per distinct key
    assert cache["builds"] == 2            # and no worker-side builds
    assert cache["restores"] == cache["misses"]


_SPAWN_SWEEP = """
import json, multiprocessing
from repro.experiments.sweep import SweepGrid, payload_digest, run_sweep
multiprocessing.set_start_method("spawn")
GRID = {grid!r}
serial = run_sweep(GRID, workers=1)
fanned = run_sweep(GRID, workers=2)
events = [[cell["metrics"]["sim_events"] for cell in payload["cells"]]
          for payload in (serial, fanned)]
print(json.dumps({{"same": payload_digest(serial) == payload_digest(fanned),
                  "events": events, "cache": fanned["world_cache"]}}))
"""


def test_spawn_fan_out_matches_serial_and_builds_each_world_once():
    """The blob-only path (no fork inheritance): build pool, temporary
    directory, workers deserializing — same digest, one build per world."""
    done = subprocess.run(
        [sys.executable, "-c", _SPAWN_SWEEP.format(grid=GRID)],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    report = json.loads(done.stdout)
    assert report["same"] is True
    # Deserialized worlds pop exactly the events a built one does.
    assert report["events"][0] == report["events"][1]
    assert all(count > 0 for count in report["events"][0])
    cache = report["cache"]
    assert cache["builds"] == len(distinct_world_configs(expand_grid(GRID)))
    assert cache["restores"] == cache["misses"] >= 2  # no worker-side builds
    assert cache["hits"] + cache["restores"] == 4


def test_snapshot_dir_rerun_performs_zero_builds(tmp_path):
    snapshot_dir = str(tmp_path / "worlds")
    cold = run_sweep(GRID, workers=2, snapshot_dir=snapshot_dir)
    warm = run_sweep(GRID, workers=2, snapshot_dir=snapshot_dir)
    assert cold["world_cache"]["store"]["builds"] == 2
    assert warm["world_cache"]["builds"] == 0
    assert warm["world_cache"]["store"]["builds"] == 0
    assert warm["world_cache"]["store"]["blob_hits"] == 2
    assert payload_digest(cold) == payload_digest(warm)
    assert cell_sim_events(cold) == cell_sim_events(warm)
    # The store outlives the sweep: blobs are content-addressed files.
    stored = list((tmp_path / "worlds").glob("*.world"))
    assert len(stored) == 2


def test_snapshot_dir_serial_run_restores_instead_of_building(tmp_path):
    snapshot_dir = str(tmp_path / "worlds")
    run_sweep(GRID, workers=1, snapshot_dir=snapshot_dir)
    warm = run_sweep(GRID, workers=1, snapshot_dir=snapshot_dir)
    assert warm["world_cache"]["builds"] == 0
    assert warm["world_cache"]["restores"] == 2  # one blob restore per world
    assert warm["world_cache"]["store"]["persistent"] is True


def test_probing_failover_worlds_snapshot_cleanly(tmp_path):
    """The hardest worlds (armed periodic tasks, prober state) round-trip
    through the file-backed store with byte-identical results."""
    grid = SweepGrid(name="snapfail", control_planes=("pce",),
                     site_counts=(3,), seeds=(21,), fail_fractions=(0.0, 0.5),
                     fail_at=0.3, repair_at=1.5, num_flows=8,
                     arrival_rate=10.0, packets_per_flow=4,
                     scenario_overrides={"enable_probing": True,
                                         "probe_period": 0.3,
                                         "probe_timeout": 0.15})
    serial = run_sweep(grid, workers=1)
    snapshot_dir = str(tmp_path / "worlds")
    stored = run_sweep(grid, workers=2, snapshot_dir=snapshot_dir)
    rerun = run_sweep(grid, workers=2, snapshot_dir=snapshot_dir)
    assert payload_digest(serial) == payload_digest(stored)
    assert payload_digest(serial) == payload_digest(rerun)
    assert cell_sim_events(serial) == cell_sim_events(stored) \
        == cell_sim_events(rerun)
    assert rerun["world_cache"]["builds"] == 0


def test_blob_is_pure_bytes_and_worlds_are_independent():
    """Restored worlds share nothing: mutating one leaves the blob intact."""
    store = SnapshotStore()
    store.ensure(CONFIG)
    first = store.world_for(CONFIG)[0]
    checkpoint_now = first.sim.now
    # Dirty the first world thoroughly.
    from repro.experiments.workload import WorkloadConfig, run_workload
    run_workload(first, WorkloadConfig(num_flows=6, arrival_rate=10.0))
    assert first.sim.now > checkpoint_now
    store.world_for(replace(CONFIG, seed=6))  # the store lets `first` go
    second, outcome = store.world_for(CONFIG)
    assert outcome == "restore" and second is not first
    assert second.sim.now == checkpoint_now
    for xtrs in second.xtrs_by_site.values():
        for xtr in xtrs:
            assert xtr.map_cache.hits == 0 and xtr.map_cache.misses == 0


# --------------------------------------------------------------------- #
# Deep worlds travel as blobs
# --------------------------------------------------------------------- #
#
# Pickle used to recurse link -> interface -> node -> link along the
# topology and ran out of stack on tiered worlds of 263+ sites.
# Interfaces now pickle without their link and the scenario re-attaches
# them from its link table, so the depth no longer follows the topology.



@pytest.mark.parametrize("topology,sites", (("tiered", 300), ("caida", 500)))
def test_deep_worlds_round_trip_record_for_record(topology, sites):
    config = ScenarioConfig(control_plane="pce", topology=topology,
                            num_sites=sites, seed=1, tracing=False)
    world = build_world(config)
    twin = deserialize_world(serialize_world(world), config)
    # The links the interfaces pickled without are back, each on its own
    # sending interface, in the order the original walks them.
    assert [link.name for link in twin.iter_links()] == \
        [link.name for link in world.iter_links()]
    assert all(link.src_interface.link is link for link in twin.iter_links())
    flows = WorkloadConfig(num_flows=10)
    assert run_workload(twin, flows) == run_workload(world, flows)
    assert twin.sim.processed_events == world.sim.processed_events
    del world, twin
    gc.collect()    # bare-built worlds are their builder's to collect


def test_thousand_site_twelve_ix_world_serializes():
    """A 1 000-site tiered world serializes: the pickle's depth does not
    follow the topology, whatever its layout (hand-built twelve-IX layouts
    belong to the routing oracle's ``TierLayout``; this one is derived)."""
    config = ScenarioConfig(control_plane="pce", topology="tiered",
                            num_sites=1000, seed=1, tracing=False)
    world = build_world(config)
    assert len(world.topology.sites) == 1000
    blob = serialize_world(world)
    assert worldbuild.validate_blob(blob, config)["key"] == world_key(config)
    del world
    gc.collect()


# --------------------------------------------------------------------- #
# A world pickle cannot carry fails with a message, not a traceback
# --------------------------------------------------------------------- #

#: Any size will do: the recursion limit is reached by the fixture below,
#: no longer by a world this suite can afford to build.
DEEP_SITES = 6

DEEP_GRID = SweepGrid(name="deep", control_planes=("pce", "alt"),
                      topologies=("tiered",), site_counts=(DEEP_SITES,),
                      seeds=(1,), zipf_values=(1.0,), num_flows=2)


@pytest.fixture
def shallow_stack(monkeypatch):
    """Pickling a world runs out of stack (fork workers inherit the patch)."""
    dumps = pickle.dumps

    def out_of_stack(obj, *args, **kwargs):
        if isinstance(obj, Scenario):
            raise RecursionError("maximum recursion depth exceeded")
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(worldbuild.pickle, "dumps", out_of_stack)


def test_deep_world_serialization_raises_snapshot_error(shallow_stack):
    config = ScenarioConfig(control_plane="pce", topology="tiered",
                            num_sites=DEEP_SITES, seed=1, tracing=False)
    world = build_world(config)
    with pytest.raises(SnapshotError, match="too deep to pickle") as caught:
        serialize_world(world)
    assert caught.value.reason == "world graph too deep to pickle"
    assert f"tiered world of {DEEP_SITES} sites" in str(caught.value)
    assert isinstance(caught.value.__cause__, RecursionError)


def test_snapshot_error_survives_pickling():
    """Build-pool workers hand errors back pickled: message and reason hold."""
    error = SnapshotError("world graph too deep to pickle", "tiered world")
    clone = pickle.loads(pickle.dumps(error))
    assert str(clone) == str(error)
    assert clone.reason == error.reason


def test_prebuild_pool_surfaces_deep_world_message(tmp_path, shallow_stack):
    store = SnapshotStore(str(tmp_path))
    with pytest.raises(SnapshotError, match=r"^invalid world snapshot "
                       r"\(world graph too deep to pickle\): tiered world"):
        prebuild_worlds(store, expand_grid(DEEP_GRID), workers=2, live=False)


def test_cli_sweep_reports_deep_world_without_traceback(tmp_path, capsys,
                                                        shallow_stack):
    code = main(["sweep", "--preset", "smoke", "--control-planes", "pce",
                 "--topologies", "tiered", "--sites", str(DEEP_SITES),
                 "--seeds", "1", "--flows", "2",
                 "--jsonl", str(tmp_path / "cells.jsonl"),
                 "--snapshot-dir", str(tmp_path / "worlds")])
    assert code == 1
    out = capsys.readouterr().out
    assert "sweep error: invalid world snapshot (world graph too deep " \
           "to pickle)" in out
    assert "Traceback" not in out
