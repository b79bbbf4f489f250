"""Parameter sweeps: declarative scenario grids fanned out over processes.

The experiment modules (E1-E9) each run a handful of hand-picked worlds.
This module is the scaling counterpart: a :class:`SweepGrid` declares axes
(control plane x topology family x site count x seed x workload skew x
flow-size distribution
x pacing mode x RLOC-failure fraction), :func:`expand_grid` turns it into concrete
:class:`SweepCell` objects — one
:class:`~repro.experiments.scenario.ScenarioConfig` /
:class:`~repro.experiments.workload.WorkloadConfig` pair per cell — and
:func:`run_sweep` fans the cells out across worker processes.

Worlds come from one cache, a
:class:`~repro.experiments.worldbuild.SnapshotStore` that every run owns
(memory-only unless ``snapshot_dir`` names a directory), through one call:
``store.world_for(config)`` inside :func:`run_cell` resets a live world
in place (``hit``), deserializes a stored blob (``restore``) or builds
(``miss``).  Cells are visited world by world, so a serial run builds
each world when its first cell comes up and holds one at a time.  Fan-out
runs first pre-build every distinct world *exactly once* into the store
(:func:`prebuild_worlds`), then dispatch cells to workers individually —
any worker serves any cell: on ``fork`` platforms the parent builds
serially with the cyclic GC paused (measured cheaper per world than the
build-pool + serialize + deserialize round trip, though a grid with many
distinct worlds pays it unparallelized) and every worker inherits the
pinned live worlds; elsewhere a short-lived build pool serializes blobs
into a directory and workers deserialize them.  A persistent
``snapshot_dir`` carries blobs across invocations, so a repeated sweep
performs zero builds.  The per-cell outcome tally and the store's
counters surface in the sweep outcome under ``world_cache``.

Cell results stream to a JSONL artifact as they complete (one JSON object
per line, in completion order, each tagged with its world-cache outcome)
instead of accumulating a single in-memory payload; aggregation is an
incremental, order-independent fold over the live stream
(:class:`AggregateFold`) and CSV writing streams row-by-row
(:class:`CsvStreamWriter`), so >10k-cell grids aggregate holding only
per-group scalars and per-seed samples — never the per-cell result
payloads — while aggregates and artifacts stay byte-identical for
``workers=1`` vs ``workers=N``.  ``include_cells=False`` (CLI
``--no-json``) skips materialising the per-cell list entirely.

Determinism: each cell's world is either freshly built or restored to the
post-build checkpoint, so a cell's metrics depend only on its configs —
never on which cells ran before it in the same worker.  Nothing
wall-clock-dependent or scheduling-dependent is written into the JSON/CSV
artifacts (the per-cell world-cache outcome lives only in the JSONL lines
and the non-digested ``world_cache`` summary).

Sweep cells run with tracing disabled (``ScenarioConfig.tracing=False``):
metrics come from counters and flow records, and skipping per-packet trace
allocation is what makes the >=100-site cells cheap.

Usage::

    from repro.experiments.sweep import PRESETS, run_sweep
    outcome = run_sweep(PRESETS["scale"], workers=4,
                        json_path="sweep.json", csv_path="sweep.csv",
                        jsonl_path="sweep.cells.jsonl")

or from the command line: ``python -m repro sweep --preset scale --workers 4``.
"""

import csv
import heapq
import json
import math
import multiprocessing
import os
import shutil
import tempfile
from dataclasses import dataclass, field, fields

from repro.experiments.e9_failover import schedule_access_failure
from repro.experiments.scenario import CONTROL_PLANES, ScenarioConfig
from repro.experiments.workload import (WorkloadConfig, classify_first_packet,
                                        peak_concurrent_flows, run_workload)
from repro.experiments.worldbuild import (SnapshotStore, build_world,
                                          serialize_world, world_key)
from repro.metrics.stats import summarize
from repro.net.topogen import FAMILIES
from repro.traffic.popularity import PACING_MODES, SIZE_DISTRIBUTIONS

#: Schema tag written into every JSON artifact: the shape of the payload
#: — grid description, aggregate group key (``_GROUP_FIELDS``) and folds,
#: per-cell rows and their ``metrics`` keys — and of the CSV columns.
#: Bump it when a consumer of the artifacts would have to change; what is
#: pickled into world blobs is versioned separately (``SNAPSHOT_SCHEMA``,
#: see the "Versions" paragraph of ``docs/contracts.md``).
SCHEMA = "repro.sweep/v6"


@dataclass(frozen=True)
class SweepGrid:
    """Declarative axes of a sweep plus shared scenario/workload knobs.

    The cross product ``control_planes x topologies x site_counts x
    zipf_values x size_dists x pacings x fail_fractions x seeds`` defines
    the cells, in that nesting order.  ``topologies`` names topology
    families (see :mod:`repro.net.topogen`); non-flat families derive
    their own provider population from the site count, so
    ``num_providers`` only shapes ``flat``/``fig1`` cells.  ``scenario_overrides`` and ``workload_overrides``
    apply to every cell (any :class:`ScenarioConfig` /
    :class:`WorkloadConfig` field).

    ``size_dists`` selects per-cell flow-size distributions (heavy-tailed
    bounded Pareto / lognormal around ``packets_per_flow``; see
    :class:`~repro.traffic.popularity.FlowSizeSampler`).  ``pacings``
    selects how those sizes hit the links per cell: ``constant`` keeps the
    historical fixed inter-packet spacing, ``shaped`` bursts mice
    back-to-back and paces elephants at the workload's target rate (see
    :class:`~repro.traffic.popularity.FlowShaper`).  ``fail_fractions``
    injects the E9 RLOC-failure machinery as an axis: a fraction of sites
    lose their primary access link at ``fail_at`` and regain it at
    ``repair_at`` (simulated seconds after the workload starts).
    """

    name: str = "sweep"
    control_planes: tuple = ("pce", "alt")
    topologies: tuple = ("flat",)
    site_counts: tuple = (4,)
    seeds: tuple = (1,)
    zipf_values: tuple = (1.0,)
    size_dists: tuple = ("constant",)
    pacings: tuple = ("constant",)
    fail_fractions: tuple = (0.0,)
    fail_at: float = 1.0
    repair_at: float = 3.0
    num_providers: int = 4
    hosts_per_site: int = 2
    num_flows: int = 40
    arrival_rate: float = 20.0
    mode: str = "udp"
    packets_per_flow: int = 3
    mapping_ttl: float = 60.0
    scenario_overrides: dict = field(default_factory=dict)
    workload_overrides: dict = field(default_factory=dict)

    def describe(self):
        """JSON-ready description of the grid (stable field order)."""
        description = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            description[spec.name] = list(value) if isinstance(value, tuple) else value
        return description


@dataclass(frozen=True)
class FailureConfig:
    """RLOC failure injected into a cell (reuses the E9 machinery)."""

    fraction: float
    fail_at: float = 1.0
    repair_at: float = 3.0


@dataclass(frozen=True)
class SweepCell:
    """One point of the grid: everything a worker needs to run it."""

    index: int
    cell_id: str
    scenario: ScenarioConfig
    workload: WorkloadConfig
    failure: FailureConfig = None


def expand_grid(grid):
    """The grid's cells, in deterministic axis-nesting order."""
    for control_plane in grid.control_planes:
        if control_plane not in CONTROL_PLANES:
            raise ValueError(f"unknown control plane {control_plane!r}")
    for topology in grid.topologies:
        if topology not in FAMILIES:
            raise ValueError(f"unknown topology family {topology!r}")
    for size_dist in grid.size_dists:
        if size_dist not in SIZE_DISTRIBUTIONS:
            raise ValueError(f"unknown size distribution {size_dist!r}")
    for pacing in grid.pacings:
        if pacing not in PACING_MODES:
            raise ValueError(f"unknown pacing mode {pacing!r}")
    for fraction in grid.fail_fractions:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fail fraction {fraction!r} outside [0, 1]")
    cells = []
    for control_plane in grid.control_planes:
        for topology in grid.topologies:
            for num_sites in grid.site_counts:
                for zipf_s in grid.zipf_values:
                    for size_dist in grid.size_dists:
                        for pacing in grid.pacings:
                            for fraction in grid.fail_fractions:
                                for seed in grid.seeds:
                                    cells.append(_make_cell(
                                        grid, len(cells), control_plane,
                                        topology, num_sites, zipf_s,
                                        size_dist, pacing, fraction, seed))
    return cells


def _make_cell(grid, index, control_plane, topology, num_sites, zipf_s,
               size_dist, pacing, fraction, seed):
    # Overrides win over axis-derived values (so a grid can e.g. force
    # miss_policy or hosts_per_site per cell).
    scenario_kwargs = dict(
        control_plane=control_plane,
        topology=topology,
        num_sites=num_sites,
        num_providers=grid.num_providers,
        hosts_per_site=grid.hosts_per_site,
        seed=seed,
        mapping_ttl=grid.mapping_ttl,
        tracing=False)
    scenario_kwargs.update(grid.scenario_overrides)
    scenario = ScenarioConfig(**scenario_kwargs)
    workload_kwargs = dict(
        num_flows=grid.num_flows,
        arrival_rate=grid.arrival_rate,
        zipf_s=zipf_s,
        mode=grid.mode,
        size_dist=size_dist,
        pacing=pacing,
        packets_per_flow=grid.packets_per_flow)
    workload_kwargs.update(grid.workload_overrides)
    workload = WorkloadConfig(**workload_kwargs)
    failure = None
    if fraction > 0.0:
        failure = FailureConfig(fraction=fraction, fail_at=grid.fail_at,
                                repair_at=grid.repair_at)
    cell_id = f"{control_plane}-sites{num_sites}-zipf{zipf_s:g}"
    if topology != "flat":
        cell_id = f"{control_plane}-{topology}-sites{num_sites}-zipf{zipf_s:g}"
    if size_dist != "constant":
        cell_id += f"-size{size_dist}"
    if pacing != "constant":
        cell_id += f"-{pacing}"
    if fraction > 0.0:
        cell_id += f"-fail{fraction:g}"
    cell_id += f"-seed{seed}"
    return SweepCell(index=index, cell_id=cell_id, scenario=scenario,
                     workload=workload, failure=failure)


# --------------------------------------------------------------------- #
# Per-cell execution
# --------------------------------------------------------------------- #

def _apply_failures(scenario, failure):
    """Schedule the cell's RLOC failures (E9 machinery as a sweep axis).

    Site choice draws from the dedicated ``failover`` RNG stream, so it is
    a pure function of the scenario seed — independent of the workload
    stream and of world reuse (restores drop the stream, and it re-derives
    identically).
    """
    if failure is None or failure.fraction <= 0.0:
        return
    sim = scenario.sim
    sites = scenario.topology.sites
    count = min(len(sites), max(1, round(failure.fraction * len(sites))))
    rng = sim.rng.stream("failover")
    for index in sorted(rng.sample(range(len(sites)), count)):
        schedule_access_failure(sim, sites[index], 0,
                                sim.now + failure.fail_at,
                                sim.now + failure.repair_at)


def run_cell(cell, store=None):
    """Get the cell's world from *store*, run its workload, and measure it.

    The world is whatever
    :meth:`~repro.experiments.worldbuild.SnapshotStore.world_for` serves —
    reset in place, deserialized or built (``store.last_outcome`` says
    which); without a *store* a throwaway one builds it.  Returns a
    JSON-ready dict; everything in it is derived from the simulation alone
    (no wall-clock values, no cache outcomes), keeping sweep artifacts
    reproducible.
    """
    if store is None:
        store = SnapshotStore()
    scenario, _outcome = store.world_for(cell.scenario)
    _apply_failures(scenario, cell.failure)
    records = run_workload(scenario, cell.workload)

    cache_hits = cache_misses = cache_expirations = 0
    resolutions_started = resolutions_failed = 0
    no_rloc_drops = encapsulated = decapsulated = 0
    fib_nodes = fib_entries = 0
    for xtr_list in scenario.xtrs_by_site.values():
        for xtr in xtr_list:
            cache_hits += xtr.map_cache.hits
            cache_misses += xtr.map_cache.misses
            cache_expirations += xtr.map_cache.expirations
            resolutions_started += xtr.resolutions_started
            resolutions_failed += xtr.resolutions_failed
            no_rloc_drops += xtr.no_rloc_drops
            encapsulated += xtr.encapsulated
            decapsulated += xtr.decapsulated
            fib_nodes += xtr.map_cache.node_count()
            fib_entries += len(xtr.map_cache)
    lookups = cache_hits + cache_misses

    fates = {}
    for record in records:
        fate = classify_first_packet(record)
        fates[fate] = fates.get(fate, 0) + 1

    completed = [r for r in records if not r.failed]
    dns_latencies = [r.dns_elapsed for r in records if r.dns_elapsed is not None]
    setup_latencies = [r.setup_elapsed for r in completed
                       if r.setup_elapsed is not None]

    if scenario.mapping_system is not None:
        control_messages = scenario.mapping_system.stats.messages
        control_bytes = scenario.mapping_system.stats.bytes
    elif scenario.control_plane is not None:
        control_messages = scenario.control_plane.total_control_messages()
        control_bytes = scenario.control_plane.total_push_bytes()
    else:
        control_messages = control_bytes = 0

    # World-wide link byte accounting: conservation is checked per link and
    # per flow (in-flight bytes at the workload deadline are legal; a
    # negative residue anywhere is not), and access-link utilization is the
    # peak busy-window fraction over every site's access links.
    accounting = scenario.byte_accounting()
    access_util_peak = max(
        (utilization
         for site in scenario.topology.sites
         for direction in ("in", "out")
         for utilization in scenario.access_link_utilization(site, direction)),
        default=0.0)

    metrics = {
        "flows": len(records),
        "flows_failed": sum(1 for r in records if r.failed),
        "packets_sent": sum(r.packets_sent for r in records),
        "packets_delivered": sum(r.packets_delivered for r in records),
        "packets_lost": sum(r.packets_lost for r in completed),
        "first_packet_fates": dict(sorted(fates.items())),
        "first_packet_drops": scenario.total_first_packet_drops(),
        "cache_hit_ratio": round(cache_hits / lookups, 6) if lookups else None,
        "cache_expirations": cache_expirations,
        "resolutions_started": resolutions_started,
        "resolutions_failed": resolutions_failed,
        "no_rloc_drops": no_rloc_drops,
        "encapsulated": encapsulated,
        "decapsulated": decapsulated,
        "map_cache_trie_nodes": fib_nodes,
        "map_cache_entries": fib_entries,
        "dns_latency": _round_summary(summarize(dns_latencies))
        if dns_latencies else None,
        "setup_latency": _round_summary(summarize(setup_latencies))
        if setup_latencies else None,
        "control_messages": control_messages,
        "control_bytes": control_bytes,
        "bytes_offered": accounting["bytes_offered"],
        "bytes_delivered": accounting["bytes_delivered"],
        "bytes_dropped": accounting["bytes_dropped"],
        "bytes_in_flight": accounting["bytes_in_flight"],
        "bytes_conserved": accounting["conserved"],
        "flow_bytes_budget": sum(r.bytes_budget for r in records),
        "flow_bytes_sent": sum(r.bytes_sent for r in records),
        "fluid_bytes": sum(link.stats.fluid_bytes
                           for link in scenario.iter_links()),
        "peak_concurrent_flows": peak_concurrent_flows(records),
        "access_util_peak": round(access_util_peak, 6),
        "sim_events": scenario.sim.processed_events,
        "sim_end_time": round(scenario.sim.now, 9),
    }
    return {
        "index": cell.index,
        "cell_id": cell.cell_id,
        "control_plane": cell.scenario.control_plane,
        "topology": cell.scenario.topology_family,
        "num_sites": cell.scenario.num_sites,
        "seed": cell.scenario.seed,
        "zipf_s": cell.workload.zipf_s,
        "size_dist": cell.workload.size_dist,
        "pacing": cell.workload.pacing,
        "fail_fraction": cell.failure.fraction if cell.failure else 0.0,
        "mode": cell.workload.mode,
        "metrics": metrics,
    }


def _round_summary(summary):
    return {key: (round(value, 9) if isinstance(value, float) else value)
            for key, value in summary.items()}


# --------------------------------------------------------------------- #
# Fan-out: one store in the parent, inherited or reopened by each worker
# --------------------------------------------------------------------- #

def distinct_world_configs(cells):
    """The distinct scenario configs among *cells*, first-appearance order."""
    seen = set()
    configs = []
    for cell in cells:
        key = world_key(cell.scenario)
        if key not in seen:
            seen.add(key)
            configs.append(cell.scenario)
    return configs


def order_cells_by_world(cells):
    """Cells reordered so same-world cells are adjacent.

    A store keeps only the most recent on-demand world live, so visiting
    cells world by world is what makes every cell after a world's first a
    hit; worlds appear in first-appearance order.
    """
    grouped = {}
    for cell in cells:
        grouped.setdefault(world_key(cell.scenario), []).append(cell)
    return [cell for group in grouped.values() for cell in group]


def _build_blob(config):
    """Build-stage worker entry point: one world built and serialized."""
    return serialize_world(build_world(config))


def prebuild_worlds(store, cells, workers=1, live=False):
    """Guarantee *store* holds every distinct world before cells fan out.

    The build stage of a fan-out run — each world is built exactly once,
    and run workers afterwards get it from the store instead of building
    (serial runs skip this stage: ``world_for`` builds on demand).  With
    ``live=True`` (fork platforms) worlds are pinned live in the store —
    workers inherit the built graphs and reset them in place — while a
    store ``directory`` still gets its persistent blobs (warm directories
    hydrate the live worlds instead of rebuilding).  Without it (spawn
    fan-out, where workers cannot inherit parent memory), missing worlds
    are built in parallel across a short-lived build pool when *workers*
    allows and serialized into blobs; worlds already stored are validated
    and trusted without a rebuild.
    """
    if live:
        for config in distinct_world_configs(cells):
            store.ensure(config, live=True)
        return
    missing = [config for config in distinct_world_configs(cells)
               if not store.has_snapshot(config)]
    if workers > 1 and len(missing) > 1:
        context = multiprocessing.get_context()
        processes = min(workers, len(missing))
        with context.Pool(processes=processes) as pool:
            # imap (not map): blobs stream back one at a time, so peak
            # parent memory is one in-flight blob, not the whole grid's.
            for config, blob in zip(missing,
                                    pool.imap(_build_blob, missing,
                                              chunksize=1), strict=True):
                store.put_built(config, blob)
    else:
        for config in missing:
            store.ensure(config)


#: The store this process's pool cells draw worlds from.  The parent sets
#: it around pool creation, so ``fork`` workers inherit the store itself —
#: pinned live worlds and all; spawn workers re-import this module, find
#: None, and open the store's directory instead.
_WORKER_STORE = None


def _init_worker(snapshot_dir):
    global _WORKER_STORE
    if _WORKER_STORE is None:
        _WORKER_STORE = SnapshotStore(snapshot_dir)


def _run_single_cell(cell):
    """Worker entry point: one cell, any world (no affinity grouping).

    Returns ``(result, world_cache_outcome)``.
    """
    return run_cell(cell, _WORKER_STORE), _WORKER_STORE.last_outcome


def _iter_completed(cells, workers, store):
    """Yield ``(result, outcome)`` per cell as cells complete.

    Cells are taken world by world.  ``workers<=1`` runs them inline
    against *store*; otherwise they are dispatched individually to a
    persistent pool — any worker can serve any world from its copy of
    (fork) or a fresh store over (spawn) the parent's *store*.
    Completion order is arbitrary under fan-out — consumers must not rely
    on it (the aggregation path reorders by cell index).
    """
    cells = order_cells_by_world(cells)
    if workers <= 1 or len(cells) <= 1:
        for cell in cells:
            yield run_cell(cell, store), store.last_outcome
        return
    global _WORKER_STORE
    context = multiprocessing.get_context()
    _WORKER_STORE = store
    try:
        with context.Pool(processes=min(workers, len(cells)),
                          initializer=_init_worker,
                          initargs=(store.directory,)) as pool:
            yield from pool.imap_unordered(_run_single_cell, cells,
                                           chunksize=1)
    finally:
        _WORKER_STORE = None


# --------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------- #

#: Result fields that identify one aggregate group (everything but the seed).
_GROUP_FIELDS = ("control_plane", "topology", "num_sites", "zipf_s",
                 "size_dist", "pacing", "fail_fraction")

#: Integer counters summed straight off each cell's metrics dict.
_SUM_FIELDS = ("flows", "packets_lost", "first_packet_drops",
               "control_messages", "sim_events", "bytes_offered",
               "bytes_delivered", "bytes_dropped", "fluid_bytes")


class AggregateFold:
    """Incremental seed-averaging fold, one :meth:`add` per cell result.

    Per-group state is a handful of integer sums, the seed list, and the
    per-seed float samples the exact means need — so peak memory scales
    with the number of aggregate groups times the seeds axis, never with
    the per-cell result payloads (metrics dicts, fate maps, latency
    summaries), which are released as soon as :meth:`add` returns.

    Float means are computed with :func:`math.fsum` (exactly-rounded), so
    the output is independent of insertion order — folding a
    completion-order stream yields byte-identical aggregates to folding an
    index-sorted list, which is what keeps ``--workers 1`` vs ``N``
    digests equal.
    """

    def __init__(self):
        self._groups = {}

    def add(self, result):
        key = tuple(result[field] for field in _GROUP_FIELDS)
        state = self._groups.get(key)
        if state is None:
            state = self._groups[key] = {
                "cells": 0, "seeds": [], "hit_ratios": [], "setup_p95s": [],
                "dns_p95_max": None, "bytes_conserved": True,
                "access_util_peak": 0.0, "peak_concurrent_flows": 0,
                **{name: 0 for name in _SUM_FIELDS},
            }
        metrics = result["metrics"]
        state["cells"] += 1
        state["seeds"].append(result["seed"])
        for name in _SUM_FIELDS:
            state[name] += metrics[name]
        state["bytes_conserved"] = (state["bytes_conserved"]
                                    and metrics["bytes_conserved"])
        state["access_util_peak"] = max(state["access_util_peak"],
                                        metrics["access_util_peak"])
        state["peak_concurrent_flows"] = max(state["peak_concurrent_flows"],
                                             metrics["peak_concurrent_flows"])
        if metrics["cache_hit_ratio"] is not None:
            state["hit_ratios"].append(metrics["cache_hit_ratio"])
        if metrics["setup_latency"] is not None:
            state["setup_p95s"].append(metrics["setup_latency"]["p95"])
        if metrics["dns_latency"] is not None:
            p95 = metrics["dns_latency"]["p95"]
            if state["dns_p95_max"] is None or p95 > state["dns_p95_max"]:
                state["dns_p95_max"] = p95

    def finish(self):
        """The aggregates, sorted by group key."""
        aggregates = []
        for key in sorted(self._groups):
            state = self._groups[key]
            aggregate = dict(zip(_GROUP_FIELDS, key, strict=True))
            aggregate["cells"] = state["cells"]
            aggregate["seeds"] = sorted(state["seeds"])
            for name in _SUM_FIELDS:
                aggregate[name] = state[name]
            aggregate["bytes_conserved"] = state["bytes_conserved"]
            aggregate["access_util_peak"] = round(state["access_util_peak"], 6)
            aggregate["peak_concurrent_flows"] = state["peak_concurrent_flows"]
            aggregate["cache_hit_ratio_mean"] = _exact_mean(
                state["hit_ratios"], 6)
            aggregate["setup_p95_mean"] = _exact_mean(state["setup_p95s"], 9)
            aggregate["dns_p95_max"] = (None if state["dns_p95_max"] is None
                                        else round(state["dns_p95_max"], 9))
            aggregates.append(aggregate)
        return aggregates


def aggregate_cells(results):
    """Seed-averaged aggregates per (cp, topology, sites, zipf, size_dist,
    pacing, fail) group — ``_GROUP_FIELDS``, everything but the seed.

    A convenience wrapper folding any iterable — including a one-shot
    generator over the JSONL artifact — through :class:`AggregateFold`;
    the full cell list is never materialised.
    """
    fold = AggregateFold()
    for result in results:
        fold.add(result)
    return fold.finish()


def _exact_mean(values, digits):
    """Order-independent mean: fsum is exact, so shuffling can't move it."""
    if not values:
        return None
    return round(math.fsum(values) / len(values), digits)


# --------------------------------------------------------------------- #
# Streaming artifact + sweep driver
# --------------------------------------------------------------------- #

def iter_jsonl(path):
    """Yield result dicts from a per-cell JSONL artifact, one at a time.

    The per-line ``world`` tag (cache outcome, scheduling-dependent) is
    stripped so the yielded results are exactly what the deterministic
    payload carries.  This is the memory-flat access path for re-reading
    an artifact after the fact: :func:`aggregate_cells` and
    :func:`write_csv_stream` fold over this generator without ever
    materialising the full cell list.
    """
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            entry.pop("world", None)
            yield entry


def _check_outputs(artifact_paths, snapshot_dir):
    """Reject unwritable outputs before any world is built.

    Raises ``ValueError`` for an artifact path whose directory does not
    exist and for a *snapshot_dir* that exists but is not a directory —
    the failures that would otherwise surface as an ``OSError`` only after
    the whole sweep has run.
    """
    for label, path in artifact_paths.items():
        if path is None:
            continue
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise ValueError(f"cannot write {label} artifact {path!r}: "
                             f"no such directory {directory!r}")
    if (snapshot_dir is not None and os.path.exists(snapshot_dir)
            and not os.path.isdir(snapshot_dir)):
        raise ValueError(f"snapshot directory {snapshot_dir!r} exists and "
                         "is not a directory")


def run_sweep(grid, workers=1, json_path=None, csv_path=None, jsonl_path=None,
              include_cells=True, snapshot_dir=None):
    """Expand *grid*, run every cell, aggregate, and write artifacts.

    Every run owns one :class:`~repro.experiments.worldbuild.SnapshotStore`
    and every cell gets its world from it.  Serial runs build on demand,
    one resident world at a time.  Fan-out runs (``workers>1``) first
    pre-build every distinct world exactly once into the store (serially
    in the parent on ``fork`` platforms, via a short-lived build pool
    elsewhere — see :func:`prebuild_worlds`), then dispatch cells
    individually; the store then holds one world (or blob) per distinct
    world key for the duration of the run phase, so parent memory scales
    with the number of distinct worlds, not with cells; it is released
    before aggregation.  *snapshot_dir* persists the blobs: a second sweep
    pointed at the same directory performs zero builds.  On platforms
    whose multiprocessing start method is not ``fork``, a temporary
    directory stands in for fan-out when *snapshot_dir* is not given
    (workers cannot inherit parent memory there).

    Cell results stream to *jsonl_path* as they complete (a temporary file
    is used — and removed — when no path is given) while aggregation and
    CSV writing fold over the same live stream in one pass:
    :class:`AggregateFold` is order-independent and
    :class:`CsvStreamWriter` reorders by index with a small heap, so
    neither depends on completion order or worker count — and neither
    holds the full cell list.

    With ``include_cells=True`` (the default) the returned payload also
    carries the index-sorted per-cell results (one JSONL read-back), which
    is what lands in ``json_path``.  ``include_cells=False`` (the CLI's
    ``--no-json``) keeps the whole run memory-flat for giant grids: the
    payload then carries only the grid, aggregates and the
    non-deterministic ``world_cache`` summary (excluded from
    :func:`payload_digest`).

    Raises ``ValueError`` — before anything is built — for an artifact
    path in a missing directory or a *snapshot_dir* that is a file.
    """
    if json_path is not None and not include_cells:
        raise ValueError("json_path requires include_cells=True "
                         "(the JSON payload embeds the per-cell results)")
    _check_outputs({"json": json_path, "csv": csv_path, "jsonl": jsonl_path},
                   snapshot_dir)
    cells = expand_grid(grid)
    outcomes = {"hit": 0, "restore": 0, "miss": 0}
    store_dir = snapshot_dir
    temp_store_dir = None
    stream_path = None
    fold = AggregateFold()
    csv_writer = None
    try:
        fork = multiprocessing.get_start_method() == "fork"
        if store_dir is None and workers > 1 and not fork:
            store_dir = temp_store_dir = tempfile.mkdtemp(
                prefix="repro-worlds-")
        store = SnapshotStore(store_dir)
        if workers > 1:
            # Fork workers inherit this process's memory, so pre-build
            # *live*: every worker resets the parent's worlds in place —
            # the cheapest restore there is — while a snapshot_dir still
            # gets its persistent blobs.  Spawn fan-out is blob-only
            # (workers must deserialize from disk).
            prebuild_worlds(store, cells, workers=workers, live=fork)
        prebuilt = store.stats.builds
        if jsonl_path is None:
            handle = tempfile.NamedTemporaryFile(
                mode="w", suffix=".cells.jsonl", prefix="repro-sweep-",
                delete=False)
            stream_path = handle.name
        else:
            handle = open(jsonl_path, "w")
            stream_path = jsonl_path
        # Aggregation and CSV writing fold over the live results inside
        # the completion loop — the JSONL artifact is write-only here (the
        # fold is order-independent and the CSV writer reorders by index
        # itself), so the memory-flat path never re-parses what it just
        # serialised.
        with handle:
            if csv_path is not None:
                csv_writer = CsvStreamWriter(csv_path)
            for result, outcome in _iter_completed(cells, workers, store):
                line = dict(result)
                line["world"] = outcome
                handle.write(json.dumps(line, sort_keys=True))
                handle.write("\n")
                handle.flush()
                outcomes[outcome] += 1
                fold.add(result)
                if csv_writer is not None:
                    csv_writer.add(result)
        # Tallied from per-cell outcomes (workers mutate their own copies
        # of the store, invisible here): a ``miss`` is a world built where
        # the cell ran, so ``builds`` — every world built anywhere — adds
        # the pre-build stage's.  The nested ``store`` dict carries the
        # parent-observable store totals.
        world_cache = {
            "builds": prebuilt + outcomes["miss"],
            "hits": outcomes["hit"],
            "misses": outcomes["restore"] + outcomes["miss"],
            "restores": outcomes["restore"],
            "store": {
                "builds": store.stats.builds,
                "blob_hits": store.stats.hits,
                "invalidated": store.stats.invalidated,
                "worlds": len(store),
                "persistent": snapshot_dir is not None,
            },
        }
        # The run phase is over: nothing asks this store for a world
        # again, so drop its worlds before aggregation materialises the
        # payload (parent memory then scales with aggregate groups, not
        # with distinct worlds).
        store.release_worlds()
        payload = {
            "schema": SCHEMA,
            "grid": grid.describe(),
            "num_cells": sum(outcomes.values()),
            "aggregates": fold.finish(),
            "world_cache": world_cache,
        }
        if include_cells:
            # The payload embeds the per-cell results: the one read-back,
            # index-sorted (JSON round-trips numbers exactly, so this list
            # matches the live results byte-for-byte).
            payload["cells"] = sorted(iter_jsonl(stream_path),
                                      key=lambda r: r["index"])
    finally:
        if csv_writer is not None:
            csv_writer.close()
        if jsonl_path is None and stream_path is not None:
            os.unlink(stream_path)
        if temp_store_dir is not None:
            shutil.rmtree(temp_store_dir, ignore_errors=True)
    if json_path is not None:
        write_json(payload, json_path)
    return payload


#: Payload keys that may vary between runs (scheduling-dependent) and are
#: therefore excluded from determinism digests and JSON artifacts' digests.
NON_DETERMINISTIC_KEYS = ("world_cache",)


def payload_digest(payload):
    """Canonical JSON string of *payload* (determinism checks diff this).

    Scheduling-dependent bookkeeping (``world_cache``) is excluded: the
    digest covers exactly the simulation-derived content, which is
    byte-identical for any worker count.
    """
    digestable = {key: value for key, value in payload.items()
                  if key not in NON_DETERMINISTIC_KEYS}
    return json.dumps(digestable, sort_keys=True, separators=(",", ":"))


def write_json(payload, path):
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


#: Flat per-cell CSV columns (scalars only; nested summaries get p50/p95).
CSV_COLUMNS = ("index", "cell_id", "control_plane", "topology", "num_sites",
               "seed", "zipf_s", "size_dist", "pacing", "fail_fraction", "mode",
               "flows", "flows_failed", "packets_sent", "packets_delivered",
               "packets_lost", "first_packet_drops", "cache_hit_ratio",
               "cache_expirations", "resolutions_started",
               "resolutions_failed", "map_cache_trie_nodes",
               "map_cache_entries", "dns_p50", "dns_p95", "setup_p50",
               "setup_p95", "control_messages", "control_bytes",
               "bytes_offered", "bytes_delivered", "bytes_dropped",
               "bytes_in_flight", "bytes_conserved", "flow_bytes_budget",
               "flow_bytes_sent", "fluid_bytes", "peak_concurrent_flows",
               "access_util_peak", "sim_events")


def _csv_row(cell):
    """One cell result flattened to a CSV row (CSV_COLUMNS order)."""
    metrics = cell["metrics"]
    dns = metrics["dns_latency"] or {}
    setup = metrics["setup_latency"] or {}
    row = {
        **{key: cell[key] for key in
           ("index", "cell_id", "control_plane", "topology", "num_sites",
            "seed", "zipf_s", "size_dist", "pacing", "fail_fraction", "mode")},
        **{key: metrics[key] for key in
           ("flows", "flows_failed", "packets_sent",
            "packets_delivered", "packets_lost", "first_packet_drops",
            "cache_hit_ratio", "cache_expirations",
            "resolutions_started", "resolutions_failed",
            "map_cache_trie_nodes", "map_cache_entries",
            "control_messages", "control_bytes", "bytes_offered",
            "bytes_delivered", "bytes_dropped", "bytes_in_flight",
            "bytes_conserved", "flow_bytes_budget", "flow_bytes_sent",
            "fluid_bytes", "peak_concurrent_flows",
            "access_util_peak", "sim_events")},
        "dns_p50": dns.get("median", ""), "dns_p95": dns.get("p95", ""),
        "setup_p50": setup.get("median", ""),
        "setup_p95": setup.get("p95", ""),
    }
    return [row[column] for column in CSV_COLUMNS]


class CsvStreamWriter:
    """Per-cell CSV writer fed one result at a time, rows index-sorted.

    Rows are flattened and written as results arrive; out-of-order
    completions wait in a heap keyed on cell index and are flushed the
    moment the next expected index shows up, so the artifact is
    deterministic regardless of completion order.  An index-ordered feed
    (serial runs, the payload's sorted cells) writes with O(1) buffering;
    a fanned-out feed buffers the completion *skew* of flattened rows —
    typically a few world-groups' worth, though a worst-case schedule
    (the group holding index 0 finishing last) can buffer most rows.
    Either way only the ~30-column flattened rows are held, never the
    full per-cell result payloads.
    """

    def __init__(self, path):
        self._handle = open(path, "w", newline="")
        self._writer = csv.writer(self._handle)
        self._writer.writerow(CSV_COLUMNS)
        self._pending = []
        self._next_index = 0

    def add(self, cell):
        heapq.heappush(self._pending, (cell["index"], _csv_row(cell)))
        while self._pending and self._pending[0][0] == self._next_index:
            self._writer.writerow(heapq.heappop(self._pending)[1])
            self._next_index += 1

    def close(self):
        # Index gaps (a partial stream) flush in sorted order at the end.
        while self._pending:
            self._writer.writerow(heapq.heappop(self._pending)[1])
        self._handle.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def write_csv_stream(results, path):
    """Write the per-cell CSV from *results* (any order), rows index-sorted."""
    with CsvStreamWriter(path) as writer:
        for cell in results:
            writer.add(cell)


# --------------------------------------------------------------------- #
# Presets
# --------------------------------------------------------------------- #

PRESETS = {
    # Tiny grid for smoke tests and CLI demos (seconds).
    "smoke": SweepGrid(
        name="smoke",
        control_planes=("pce", "alt"),
        site_counts=(3,),
        seeds=(1, 2),
        zipf_values=(1.0,),
        num_flows=12,
        arrival_rate=10.0,
    ),
    # Every control plane at moderate scale; cache-tail behaviour appears.
    "baselines": SweepGrid(
        name="baselines",
        control_planes=("pce", "alt", "cons", "nerd"),
        site_counts=(4, 8),
        seeds=(11, 12),
        zipf_values=(0.0, 1.2),
        num_flows=40,
        arrival_rate=20.0,
    ),
    # The ROADMAP's production-scale target: >=100 sites, Zipf-skewed
    # destinations, all four control planes, constant vs heavy-tailed flow
    # sizes (the pairs share worlds, exercising worker-side reuse).  TCP
    # mode with post-handshake data bursts, so the artifacts carry both
    # connection-setup latency percentiles and size-shaped data traffic.
    "scale": SweepGrid(
        name="scale",
        control_planes=("pce", "alt", "cons", "nerd"),
        site_counts=(8, 32, 120),
        seeds=(11, 12),
        zipf_values=(1.2,),
        size_dists=("constant", "pareto"),
        num_providers=8,
        num_flows=80,
        arrival_rate=40.0,
        mode="tcp",
        workload_overrides={"tcp_data_burst": True},
    ),
    # Size-aware traffic shaping: heavy-tailed flow sizes on rated access
    # links, constant vs shaped pacing sharing worlds cell-to-cell.  Shaped
    # cells burst mice back-to-back and pace elephants at 2 Mbit/s over
    # 10 Mbit/s access links, so queueing, per-flow byte conservation and
    # real link utilization all become visible in the artifacts.
    "shaped": SweepGrid(
        name="shaped",
        control_planes=("pce", "alt"),
        site_counts=(6,),
        seeds=(31, 32),
        zipf_values=(1.2,),
        size_dists=("pareto",),
        pacings=("constant", "shaped", "fluid"),
        num_flows=40,
        arrival_rate=20.0,
        packets_per_flow=6,
        scenario_overrides={"access_rate_bps": 10_000_000.0},
        workload_overrides={"pace_rate_bps": 2_000_000.0,
                            "payload_bytes": 1200},
    ),
    # The fluid tier's headline: one cell, a hundred thousand concurrent
    # bulk flows, interactive wall-clock.  Every flow goes fluid
    # (``fluid_threshold`` 1 with constant 2000-packet sizes), so the data
    # plane advances as one-second rate chunks: ~10 s of 2 Mbit/s per
    # flow, 12k arrivals/s for 10 s — peak concurrency well past 100k with
    # a dozen events per flow instead of thousands.  Access links stay
    # infinite-rate: this preset measures scale, not congestion (the
    # ``shaped`` preset covers rated-link contention).
    "megaflow": SweepGrid(
        name="megaflow",
        control_planes=("pce",),
        site_counts=(4,),
        seeds=(41,),
        zipf_values=(1.0,),
        size_dists=("constant",),
        pacings=("fluid",),
        num_flows=120_000,
        arrival_rate=12_000.0,
        packets_per_flow=2000,
        workload_overrides={"payload_bytes": 1200,
                            "pace_rate_bps": 2_000_000.0,
                            "fluid_threshold": 1.0,
                            "fluid_chunk_interval": 1.0,
                            "grace_period": 15.0},
    ),
    # Topology shape as an axis: the same mapping systems and workload on
    # the flat mesh vs tiered and CAIDA-skewed internets (hierarchical
    # routing, IXPs, multihomed stubs).  Sites and flows stay modest —
    # the point is cross-family comparison, not scale (the topology bench
    # gate covers 1k-4k-site builds).
    "tiered": SweepGrid(
        name="tiered",
        control_planes=("pce", "alt"),
        topologies=("flat", "tiered", "caida"),
        site_counts=(12,),
        seeds=(51, 52),
        zipf_values=(1.0,),
        num_flows=30,
        arrival_rate=15.0,
    ),
    # RLOC failure as a sweep axis: half the sites lose their primary
    # access link mid-workload; PCE runs with probing + backup locators so
    # failover happens, the reactive baseline blackholes (E9 at grid scale).
    "failover": SweepGrid(
        name="failover",
        control_planes=("pce", "alt"),
        site_counts=(6,),
        seeds=(21, 22),
        zipf_values=(1.0,),
        fail_fractions=(0.0, 0.5),
        fail_at=1.0,
        repair_at=3.0,
        num_flows=40,
        arrival_rate=15.0,
        packets_per_flow=6,
        scenario_overrides={"enable_probing": True, "probe_period": 0.3,
                            "probe_timeout": 0.15},
    ),
}
