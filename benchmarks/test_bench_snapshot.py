"""Benchmarks for the shared world-snapshot store.

BENCH tracks both store tiers from this PR on:

- the *live* tier (fork fan-out): one parent-side build amortizes across
  all workers, whose first touch of a world is an in-place checkpoint
  reset — the gate asserts it beats a fresh build by the same
  restore-vs-build floor the worldbuild benchmarks enforce;
- the *file-backed* tier (``--snapshot-dir`` / spawn platforms): warm
  restores deserialize a validated blob, gated to beat the store's cold
  path (a fresh build serialized into the store) by the snapshot floor.

The 500-site amortization benchmark stays local-only (CI filters on
``-k "not 500"``) like the 500-site worldbuild benchmarks.
"""

import gc
import os
import time

from conftest import best_of

from repro.experiments.scenario import ScenarioConfig
from repro.experiments.worldbuild import SnapshotStore, build_world

#: Shared restore-vs-build floor (same machinery as test_bench_worldbuild;
#: CI relaxes it via the env var on noisy runners).
SPEEDUP_FLOOR = float(os.environ.get("REPRO_SPEEDUP_FLOOR", "5.0"))

#: Floor for the file-backed tier: deserializing a blob must beat building
#: one into the store.  Generic unpickling reconstructs the whole object
#: graph, so its margin over this codebase's already-optimized builds is
#: structurally smaller than the in-place restore's — it gets its own
#: env-tunable floor (falling back to a conservative default rather than
#: the in-place floor).
SNAPSHOT_FLOOR = float(os.environ.get("REPRO_SNAPSHOT_SPEEDUP_FLOOR", "1.5"))


def _config(sites):
    return ScenarioConfig(control_plane="pce", num_sites=sites,
                          num_providers=8, tracing=False)


def test_bench_live_store_restore_speedup(benchmark):
    """Live-tier restore (in-place reset) must beat a fresh 60-site build.

    This is the fork fan-out hot path: workers inherit the parent's
    prebuilt world and reset it, so N workers cost one build plus N of
    these restores instead of N builds.
    """
    config = _config(60)
    store = SnapshotStore()
    assert store.ensure(config, live=True) == "build"

    build_elapsed = best_of(lambda: build_world(config))
    restore_elapsed = best_of(lambda: store.world_for(config))
    gc.collect()  # don't bill dropped benchmark worlds to the timed rounds
    benchmark.pedantic(store.world_for, args=(config,), rounds=3, iterations=1)

    speedup = build_elapsed / restore_elapsed
    print(f"\n  60 sites: fresh build {build_elapsed:.4f}s, live restore "
          f"{restore_elapsed:.4f}s -> {speedup:.0f}x")
    assert speedup >= SPEEDUP_FLOOR, (
        f"live store restore only {speedup:.1f}x faster than a fresh build")


def test_bench_file_store_cold_build(benchmark, tmp_path):
    """The file tier's cold path: build a 60-site world and serialize it
    into an empty content-addressed store (what a store miss costs, and
    the numerator of the file-tier speedup ratio in BENCH summaries)."""
    config = _config(60)

    def cold_build(directory):
        store = SnapshotStore(directory)
        assert store.ensure(config) == "build"

    gc.collect()
    benchmark.pedantic(
        cold_build, setup=lambda: ((str(tmp_path / f"w{time.monotonic_ns()}"),), {}),
        rounds=3, iterations=1)


def test_bench_file_store_restore_speedup(benchmark, tmp_path):
    """File-tier restore must beat building a 60-site world into the store.

    The cold path (what a store miss costs) builds the world and
    serializes it into the content-addressed directory; the warm path
    reads, validates and deserializes the blob.  Warm reruns of
    ``repro sweep --snapshot-dir`` pay only the latter.
    """
    config = _config(60)
    directory = str(tmp_path / "worlds")

    started = time.perf_counter()
    cold_store = SnapshotStore(directory)
    assert cold_store.ensure(config) == "build"
    cold_elapsed = time.perf_counter() - started

    def warm_restore():
        store = SnapshotStore(directory)  # fresh store: no memory cache
        assert store.world_for(config)[1] == "restore"

    restore_elapsed = best_of(warm_restore)
    gc.collect()
    benchmark.pedantic(warm_restore, rounds=3, iterations=1)

    speedup = cold_elapsed / restore_elapsed
    print(f"\n  60 sites: cold build+serialize {cold_elapsed:.4f}s, "
          f"file restore {restore_elapsed:.4f}s -> {speedup:.1f}x")
    assert speedup >= SNAPSHOT_FLOOR, (
        f"file-store restore only {speedup:.1f}x faster than a cold build")


def test_bench_snapshot_500_site_amortization(benchmark):
    """One 500-site build amortizes across workers (local-only, like all
    500-site benchmarks): N first touches cost one build plus N in-place
    restores, each of which must beat a fresh build by the floor."""
    config = _config(500)
    store = SnapshotStore()

    started = time.perf_counter()
    assert store.ensure(config, live=True) == "build"
    build_elapsed = time.perf_counter() - started

    workers = 4
    restore_elapsed = best_of(lambda: store.world_for(config), rounds=workers)
    benchmark.pedantic(store.world_for, args=(config,), rounds=1, iterations=1)

    amortized = (build_elapsed + workers * restore_elapsed) / workers
    speedup = build_elapsed / restore_elapsed
    print(f"\n  500 sites: build {build_elapsed:.3f}s, live restore "
          f"{restore_elapsed:.4f}s ({speedup:.0f}x); {workers} workers pay "
          f"{amortized:.3f}s/world vs {build_elapsed:.3f}s each without "
          f"the store")
    assert speedup >= SPEEDUP_FLOOR, (
        f"500-site live restore only {speedup:.1f}x faster than a build")
    assert amortized < build_elapsed, (
        "shared store failed to amortize the 500-site build")
