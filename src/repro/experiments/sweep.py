"""Parameter sweeps: declarative scenario grids fanned out over processes.

The experiment modules (E1-E9) each run a handful of hand-picked worlds.
This module is the scaling counterpart: a :class:`SweepGrid` lists the
values of every sweep axis, :func:`expand_grid` turns it into concrete
:class:`SweepCell` objects — one
:class:`~repro.experiments.scenario.ScenarioConfig` /
:class:`~repro.experiments.workload.WorkloadConfig` pair per cell — and
:func:`run_sweep` fans the cells out across worker processes.

Which axes and metrics exist is defined once, in the :data:`AXES` and
:data:`METRICS` tables; everything else that names one is derived from
them (see "Sweep artifacts" in ``docs/contracts.md``).

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
and the non-digested ``world_cache`` summary).  :func:`payload_digest`
pins behaviour only: each cell's ``sim_events`` — engine queue pops, a
cost — rides in its ``metrics`` but is in no CSV column, no aggregate and
no digest, so an engine change moves no golden file.

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
import gc
import heapq
import itertools
import json
import math
import multiprocessing
import operator
import os
import shutil
import tempfile
from collections import Counter
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
#: — grid description, aggregate group key and folds, per-cell rows and
#: their ``metrics`` keys — and of the CSV columns.  Bump it when a
#: consumer of the artifacts would have to change (see "Sweep artifacts"
#: in ``docs/contracts.md``); what is pickled into world blobs is
#: versioned separately (``SNAPSHOT_SCHEMA``, see "Versions" there).
SCHEMA = "repro.sweep/v7"


@dataclass(frozen=True)
class SweepGrid:
    """The values of every sweep axis plus shared scenario/workload knobs.

    One tuple field per :data:`AXES` row; their cross product defines the
    cells, nested in table order with the seed innermost.  Non-flat
    topology families derive their own provider population from the site
    count, so ``num_providers`` only shapes ``flat``/``fig1`` cells.
    Failed sites lose their primary access link at ``fail_at`` and regain
    it at ``repair_at`` (simulated seconds after the workload starts).
    ``scenario_overrides`` and ``workload_overrides`` apply to every cell
    (any :class:`ScenarioConfig` / :class:`WorkloadConfig` field) and win
    over axis values.
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
    failure: FailureConfig


# --------------------------------------------------------------------- #
# The axis table
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class Axis:
    """One sweep axis: all that the grid, cells, artifacts and CLI know of it."""

    key: str               # in cell results, CSV columns, aggregate groups
    field: str             # SweepGrid field listing the values
    flag: str              # ``repro sweep`` flag overriding that field ...
    type: type             # ... and its element type
    config: str            # SweepCell config the value lands in ...
    #: ... as this keyword (default: key), the config attribute results
    #: report back: read from the config, because overrides may shadow the
    #: axis value.
    kwarg: str = None
    fragment: str = "{}"   # cell-id fragment ...
    unmarked: object = None    # ... left out of the id at this value
    valid: object = None   # validity predicate ...
    error: str = None      # ... and the ValueError text where it fails
    label: str = None      # column header in the printed aggregate table
    show: str = None       # its cell format (default: the table's own)
    help: str = None

    def __post_init__(self):
        object.__setattr__(self, "kwarg", self.kwarg or self.key)


#: The replication axis: aggregates fold over it instead of grouping by
#: it, and it varies fastest in the grid.
_SEED = Axis("seed", "seeds", "--seeds", int, "scenario", fragment="seed{}")

#: Every sweep axis, in result/CSV column order.
AXES = (
    Axis("control_plane", "control_planes", "--control-planes", str,
         "scenario", valid=CONTROL_PLANES.__contains__,
         error="unknown control plane {!r}", label="system"),
    Axis("topology", "topologies", "--topologies", str, "scenario",
         unmarked="flat",
         valid=FAMILIES.__contains__, error="unknown topology family {!r}",
         label="topo",
         help="topology families (fig1/flat/tiered/caida; "
              "see repro.net.topogen)"),
    Axis("num_sites", "site_counts", "--sites", int, "scenario",
         fragment="sites{}", label="sites"),
    _SEED,
    Axis("zipf_s", "zipf_values", "--zipf", float, "workload",
         fragment="zipf{:g}", label="zipf"),
    # Heavy-tailed bounded Pareto / lognormal around packets_per_flow
    # (see repro.traffic.popularity.FlowSizeSampler).
    Axis("size_dist", "size_dists", "--size-dists", str, "workload",
         fragment="size{}", unmarked="constant",
         valid=SIZE_DISTRIBUTIONS.__contains__,
         error="unknown size distribution {!r}", label="sizes",
         help="flow-size distributions (constant/pareto/lognormal)"),
    # How those sizes hit the links (see repro.traffic.popularity.FlowShaper).
    Axis("pacing", "pacings", "--pacings", str, "workload",
         unmarked="constant", valid=PACING_MODES.__contains__,
         error="unknown pacing mode {!r}", label="pacing",
         help="pacing modes (constant/shaped/fluid: shaped bursts mice and "
              "paces elephants at the workload's target rate, fluid also "
              "moves bulk flows as rate chunks)"),
    # The E9 RLOC-failure machinery as an axis.
    Axis("fail_fraction", "fail_fractions", "--fail-fractions", float,
         "failure", kwarg="fraction", fragment="fail{:g}", unmarked=0.0,
         valid=lambda fraction: 0.0 <= fraction <= 1.0,
         error="fail fraction {!r} outside [0, 1]", label="fail",
         show="{:g}", help="fractions of sites whose primary RLOC fails"),
)

#: The axes that identify one aggregate group: every axis but the seed.
GROUP_AXES = tuple(axis for axis in AXES if axis is not _SEED)

#: Scalar grid fields ``repro sweep`` can override, as
#: ``(flag, SweepGrid field, argparse keywords)``.
GRID_FLAGS = (("--flows", "num_flows", {"type": int}),
              ("--mode", "mode", {"choices": ("udp", "tcp")}))


def expand_grid(grid):
    """The grid's cells, in deterministic axis-nesting order.

    Raises ``ValueError`` naming the grid field for an axis that is empty
    or repeats a value, and for a value its axis does not accept.
    """
    for axis in AXES:
        values = getattr(grid, axis.field)
        if not values:
            raise ValueError(f"grid field {axis.field!r} is empty")
        if len(set(values)) != len(values):
            raise ValueError(f"grid field {axis.field!r} repeats a value: "
                             f"{values!r}")
        for value in values:
            if axis.valid is not None and not axis.valid(value):
                raise ValueError(axis.error.format(value))
    nesting = (*GROUP_AXES, _SEED)
    return [_make_cell(grid, index, tuple(zip(nesting, values, strict=True)))
            for index, values in enumerate(itertools.product(
                *(getattr(grid, axis.field) for axis in nesting)))]


def _make_cell(grid, index, values):
    """The cell at *values*, ``(axis, value)`` pairs in nesting order."""
    kwargs = {
        "scenario": dict(num_providers=grid.num_providers,
                         hosts_per_site=grid.hosts_per_site,
                         mapping_ttl=grid.mapping_ttl, tracing=False),
        "workload": dict(num_flows=grid.num_flows,
                         arrival_rate=grid.arrival_rate, mode=grid.mode,
                         packets_per_flow=grid.packets_per_flow),
        "failure": dict(fail_at=grid.fail_at, repair_at=grid.repair_at),
    }
    for axis, value in values:
        kwargs[axis.config][axis.kwarg] = value
    # Overrides win over axis-derived values (so a grid can e.g. force
    # miss_policy or hosts_per_site per cell).
    kwargs["scenario"].update(grid.scenario_overrides)
    kwargs["workload"].update(grid.workload_overrides)
    cell_id = "-".join(axis.fragment.format(value)
                       for axis, value in values if value != axis.unmarked)
    return SweepCell(index=index, cell_id=cell_id,
                     scenario=ScenarioConfig(**kwargs["scenario"]),
                     workload=WorkloadConfig(**kwargs["workload"]),
                     failure=FailureConfig(**kwargs["failure"]))


# --------------------------------------------------------------------- #
# The metric table
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class FinishedCell:
    """What the metric collectors see: a world after its workload ran.

    The passes more than one metric shares are taken once, here.
    """

    world: object
    records: list
    completed: list        # the records of flows that did not fail
    xtrs: list
    control: tuple         # the world's control_overhead(): (messages, bytes)
    #: World-wide link byte accounting: conservation is checked per link
    #: and per flow (in-flight bytes at the workload deadline are legal; a
    #: negative residue anywhere is not).  The one walk over the world's
    #: links a cell pays: a collector reads this, it does not walk again.
    accounting: dict


@dataclass(frozen=True)
class Metric:
    """One per-cell metric: how it is collected, written and folded."""

    key: str               # in a cell result's ``metrics`` dict
    collect: object        # collector over a FinishedCell
    #: CSV columns (default: one, named ``key``; ``()`` keeps the metric
    #: out of the CSV).  Two columns mark a latency summary, which fans
    #: out to its median and p95.
    columns: tuple = None
    fold: str = None       # a _FOLDS name: how a group's cells combine ...
    aggregate: str = None  # ... under this aggregate key (default: key)
    digits: int = None     # rounds a ``mean``

    def __post_init__(self):
        if self.columns is None:
            object.__setattr__(self, "columns", (self.key,))
        object.__setattr__(self, "aggregate", self.aggregate or self.key)

    def parts(self, value):
        """The scalars of *value*: itself, or a summary's median and p95.

        The CSV takes one per column and the fold takes the last; both
        are None where nothing was measured.
        """
        if len(self.columns) < 2:
            return (value,)
        if value is None:
            return (None, None)
        return (value["median"], value["p95"])


def _per(items, attr):
    """Collector summing (dotted) *attr* over the cell's *items*."""
    read = operator.attrgetter(attr)
    return lambda cell: sum(read(item) for item in getattr(cell, items))


def _accounted(key):
    return lambda cell: cell.accounting[key]


def _cache_hit_ratio(cell):
    hits, lookups = cell.world.map_cache_lookups()
    return round(hits / lookups, 6) if lookups else None


def _latency(records, attr):
    """Rounded summary of the latencies measured, None when there are none."""
    samples = [getattr(record, attr) for record in records
               if getattr(record, attr) is not None]
    if not samples:
        return None
    return {key: (round(value, 9) if isinstance(value, float) else value)
            for key, value in summarize(samples).items()}


def _access_util_peak(cell):
    """Peak busy-window fraction over every site's access links."""
    world = cell.world
    return round(max(
        (utilization
         for site in world.topology.sites
         for direction in ("in", "out")
         for utilization in world.access_link_utilization(site, direction)),
        default=0.0), 6)


#: Every per-cell metric, in CSV column order.
METRICS = (
    Metric("flows", lambda cell: len(cell.records), fold="sum"),
    Metric("flows_failed",
           lambda cell: len(cell.records) - len(cell.completed)),
    Metric("packets_sent", _per("records", "packets_sent")),
    Metric("packets_delivered", _per("records", "packets_delivered")),
    Metric("packets_lost", _per("completed", "packets_lost"), fold="sum"),
    Metric("first_packet_fates",
           lambda cell: dict(sorted(Counter(
               map(classify_first_packet, cell.records)).items())),
           columns=()),
    Metric("first_packet_drops",
           lambda cell: cell.world.total_first_packet_drops(), fold="sum"),
    Metric("cache_hit_ratio", _cache_hit_ratio, fold="mean",
           aggregate="cache_hit_ratio_mean", digits=6),
    Metric("cache_expirations", _per("xtrs", "map_cache.expirations")),
    Metric("resolutions_started", _per("xtrs", "resolutions_started")),
    Metric("resolutions_failed", _per("xtrs", "resolutions_failed")),
    Metric("no_rloc_drops", _per("xtrs", "no_rloc_drops"), columns=()),
    Metric("encapsulated", _per("xtrs", "encapsulated"), columns=()),
    Metric("decapsulated", _per("xtrs", "decapsulated"), columns=()),
    Metric("map_cache_entries",
           lambda cell: sum(len(xtr.map_cache) for xtr in cell.xtrs)),
    Metric("dns_latency", lambda cell: _latency(cell.records, "dns_elapsed"),
           columns=("dns_p50", "dns_p95"), fold="max",
           aggregate="dns_p95_max"),
    Metric("setup_latency",
           lambda cell: _latency(cell.completed, "setup_elapsed"),
           columns=("setup_p50", "setup_p95"), fold="mean",
           aggregate="setup_p95_mean", digits=9),
    Metric("control_messages", lambda cell: cell.control[0], fold="sum"),
    Metric("control_bytes", lambda cell: cell.control[1]),
    Metric("bytes_offered", _accounted("bytes_offered"), fold="sum"),
    Metric("bytes_delivered", _accounted("bytes_delivered"), fold="sum"),
    Metric("bytes_dropped", _accounted("bytes_dropped"), fold="sum"),
    Metric("bytes_in_flight", _accounted("bytes_in_flight")),
    Metric("bytes_conserved", _accounted("conserved"), fold="all"),
    Metric("flow_bytes_budget", _per("records", "bytes_budget")),
    Metric("flow_bytes_sent", _per("records", "bytes_sent")),
    Metric("fluid_bytes", _accounted("fluid_bytes"), fold="sum"),
    Metric("peak_concurrent_flows",
           lambda cell: peak_concurrent_flows(cell.records), fold="max"),
    Metric("access_util_peak", _access_util_peak, fold="max"),
    # Engine queue pops: what the run cost, not something it simulated.
    # Carried per cell for the perf ledger; never a column, an aggregate
    # or digested (see NON_DIGESTED_KEYS).
    Metric("sim_events", lambda cell: cell.world.sim.processed_events,
           columns=()),
    Metric("sim_end_time", lambda cell: round(cell.world.sim.now, 9),
           columns=()),
)


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
    if failure.fraction <= 0.0:
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
    JSON-ready dict — the value of every :data:`AXES` row the cell ran
    with and every :data:`METRICS` row's collection; everything in it is
    derived from the simulation alone (no wall-clock values, no cache
    outcomes), keeping sweep artifacts reproducible.
    """
    if store is None:
        store = SnapshotStore()
    world, _outcome = store.world_for(cell.scenario)
    _apply_failures(world, cell.failure)
    records = run_workload(world, cell.workload)
    finished = FinishedCell(
        world=world, records=records,
        completed=[record for record in records if not record.failed],
        xtrs=list(world.iter_xtrs()), control=world.control_overhead(),
        accounting=world.byte_accounting())
    return {
        "index": cell.index,
        "cell_id": cell.cell_id,
        **{axis.key: getattr(getattr(cell, axis.config), axis.kwarg)
           for axis in AXES},
        "mode": cell.workload.mode,
        "metrics": {metric.key: metric.collect(finished)
                    for metric in METRICS},
    }


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
    """Build-stage worker entry point: one world built and serialized.

    The world is dropped here, so it is collected here (a world is one
    reference cycle): a pool worker would otherwise hold every world it
    has built until an automatic full pass happened by.
    """
    blob = serialize_world(build_world(config))
    gc.collect()
    return blob


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

def _keep(samples, value):
    samples.append(value)  # an exactly-rounded mean needs every sample
    return samples


#: The order-independent folds, as ``name: (initial state, step)``; None
#: samples (a ratio or latency nothing measured) never reach a step.
_FOLDS = {
    "sum": (int, operator.add),
    "all": (lambda: True, operator.and_),
    "max": (lambda: None, lambda peak, value:
            value if peak is None else max(peak, value)),
    "mean": (list, _keep),
}

_FOLDED = tuple(metric for metric in METRICS if metric.fold)


class AggregateFold:
    """Incremental seed-averaging fold, one :meth:`add` per cell result.

    Cells group by every axis but the seed (:data:`GROUP_AXES`); each
    :data:`METRICS` row with a ``fold`` contributes one aggregate.
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
        key = tuple(result[axis.key] for axis in GROUP_AXES)
        state = self._groups.get(key)
        if state is None:
            state = self._groups[key] = {
                _SEED.field: [],
                **{metric.aggregate: _FOLDS[metric.fold][0]()
                   for metric in _FOLDED}}
        state[_SEED.field].append(result[_SEED.key])
        metrics = result["metrics"]
        for metric in _FOLDED:
            sample = metric.parts(metrics[metric.key])[-1]
            if sample is not None:
                state[metric.aggregate] = _FOLDS[metric.fold][1](
                    state[metric.aggregate], sample)

    def finish(self):
        """The aggregates, sorted by group key."""
        aggregates = []
        for key in sorted(self._groups):
            state = self._groups[key]
            aggregate = dict(zip((axis.key for axis in GROUP_AXES), key,
                                 strict=True))
            aggregate["cells"] = len(state[_SEED.field])
            aggregate[_SEED.field] = sorted(state[_SEED.field])
            for metric in _FOLDED:
                folded = state[metric.aggregate]
                if metric.fold == "mean":
                    # fsum is exact, so shuffling the cells can't move it.
                    folded = (round(math.fsum(folded) / len(folded),
                                    metric.digits) if folded else None)
                aggregate[metric.aggregate] = folded
            aggregates.append(aggregate)
        return aggregates


# --------------------------------------------------------------------- #
# Streaming artifact + sweep driver
# --------------------------------------------------------------------- #

def iter_jsonl(path):
    """Yield result dicts from a per-cell JSONL artifact, one at a time.

    The per-line ``world`` tag (cache outcome, scheduling-dependent) is
    stripped so the yielded results are exactly what the deterministic
    payload carries.  This is the memory-flat access path for re-reading
    an artifact after the fact: :class:`AggregateFold` and
    :class:`CsvStreamWriter` take its results one at a time, so the full
    cell list is never materialised.

    A final line without its newline is what a killed run leaves behind
    (each result is written, terminated and flushed as one step): it is
    skipped.  A terminated line that does not parse still raises.
    """
    with open(path) as handle:
        for line in handle:
            if not line.endswith("\n"):
                break
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
    scheduling-dependent ``world_cache`` summary (excluded from
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


#: Payload keys the digest leaves out, wherever they sit: what a run
#: cost rather than what it simulated.  ``world_cache`` depends on
#: scheduling; ``sim_events`` counts engine queue pops, which an engine
#: change moves without moving the simulation.
NON_DIGESTED_KEYS = ("world_cache", "sim_events")


def _digested(value):
    if isinstance(value, dict):
        return {key: _digested(item) for key, item in value.items()
                if key not in NON_DIGESTED_KEYS}
    if isinstance(value, list):
        return [_digested(item) for item in value]
    return value


def payload_digest(payload):
    """Canonical JSON string of *payload*'s behaviour (determinism checks
    and the golden digests diff this).

    Every :data:`NON_DIGESTED_KEYS` key is dropped at any depth: the
    digest covers exactly the simulated content, which is byte-identical
    for any worker count and any engine scheduling.
    """
    return json.dumps(_digested(payload), sort_keys=True,
                      separators=(",", ":"))


def write_json(payload, path):
    """Write *payload* to *path* through a temp file beside it.

    ``os.replace`` is atomic, so a killed run leaves the previous artifact
    or none — never half of one.  The temp file is opened like the
    artifact would be, so the artifact keeps the mode the umask gives it.
    """
    temp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(temp, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(temp, path)
    except BaseException:
        if os.path.exists(temp):
            os.unlink(temp)
        raise


#: Result keys written ahead of the metrics, one CSV column each.
_CELL_COLUMNS = ("index", "cell_id", *(axis.key for axis in AXES), "mode")

#: Flat per-cell CSV columns (scalars only; latency summaries get p50/p95).
CSV_COLUMNS = (*_CELL_COLUMNS, *(column for metric in METRICS
                                 for column in metric.columns))


def _csv_row(cell):
    """One cell result flattened to a CSV row (CSV_COLUMNS order)."""
    metrics = cell["metrics"]
    row = [cell[key] for key in _CELL_COLUMNS]
    for metric in METRICS:
        row += metric.parts(metrics[metric.key])[:len(metric.columns)]
    return row


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
