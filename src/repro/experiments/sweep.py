"""Parameter sweeps: declarative scenario grids fanned out over processes.

The loop-shaped paper experiments (E1, E3, E5, E6, E7, E10) run here
too and read the aggregates; E1, E3, E6 and E7 run one grid each, the
systems they compare named bundles on the ``variant`` axis.  A
:class:`SweepGrid` lists the values of every sweep axis, and
:func:`expand_grid` turns it into concrete :class:`SweepCell` objects —
one :class:`~repro.experiments.scenario.ScenarioConfig` /
:class:`~repro.experiments.workload.WorkloadConfig` pair per cell: axis
values, then overrides, then the variant's bundle — and :func:`run_sweep`
fans the cells out across worker processes.

Which axes and metrics exist is defined once, in the :data:`AXES` and
:data:`METRICS` tables; everything else that names one is derived from
them (see "Sweep artifacts" in ``docs/contracts.md``).

A sweep is a list of world runs.  :func:`world_chunks` cuts the grid into
runs of same-world cells, and :func:`run_world` runs one as *families*,
the cells that differ only in their failure fraction: its first family
builds the world, every later one resets it in place
(:func:`~repro.experiments.worldbuild.restore_world`), and the world is
torn down when the run ends, so it dies by reference count.  A family
runs its workload once up to ``fail_at`` and forks one child there per
further cell, one child at a time, each finishing its cell as if run
alone (see "Branching runs" in ``docs/contracts.md``).  Each family runs
with the cyclic collector paused, so a sweep makes no full collection
(see "World lifecycle cost" there).  A serial run takes one chunk per
world; fan-out hands the chunks to a worker pool, fork and spawn alike,
and the parent builds nothing.  Each world's families are split into at
most ``ceil(workers / distinct worlds)`` chunks, so with at least as many
worlds as workers each world is built exactly once.  The ``world_cache``
summary counts one build per chunk.

:func:`run_sweep` keeps every result in a list and, when asked, appends
each to a JSONL artifact as it completes (one JSON object per line, in
completion order, each tagged with its world-cache outcome).  At the end
it sorts the list by cell index, folds it with :func:`aggregate` and
writes the CSV and JSON from the sorted list, so the artifacts are
byte-identical for ``workers=1`` and ``workers=N``.

Determinism: each cell's world is either freshly built or restored to the
post-build checkpoint, so a cell's metrics depend only on its configs —
never on which cells ran before it in the same worker, nor on whether it
branched off a family's run.  Nothing
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
import itertools
import json
import math
import multiprocessing
import operator
import os
import pickle
import sys
import threading
from collections import Counter
from dataclasses import astuple, dataclass, field, fields

from repro.experiments.e9_failover import schedule_access_failure
from repro.experiments.scenario import CONTROL_PLANES, ScenarioConfig
from repro.experiments.workload import (WorkloadConfig, classify_first_packet,
                                        finish_workload, peak_concurrent_flows,
                                        start_workload)
from repro.experiments.worldbuild import (build_world, gc_paused,
                                           restore_world, world_key)
from repro.metrics.stats import summarize
from repro.net.topogen import FAMILIES
from repro.traffic.popularity import PACING_MODES, SIZE_DISTRIBUTIONS

#: Schema tag written into every JSON artifact: the shape of the payload
#: — grid description, aggregate group key and folds, per-cell rows and
#: their ``metrics`` keys — and of the CSV columns.  Bump it when a
#: consumer of the artifacts would have to change (see "Sweep artifacts"
#: in ``docs/contracts.md``); world blobs are versioned separately
#: (``SNAPSHOT_SCHEMA``, see "Versions" there).
SCHEMA = "repro.sweep/v9"


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
    over axis values; ``variants``, ``(name, {ScenarioConfig field:
    value})`` bundles, is an axis whose bundle wins over both.
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
    variants: tuple = (("default", {}),)
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
        return {spec.name: _listed(getattr(self, spec.name))
                for spec in fields(self)}


def _listed(value):
    """*value* with its tuples as lists, as JSON gives it back."""
    if isinstance(value, tuple):
        return [_listed(item) for item in value]
    return value


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
    variant: str           # the name of the bundle its scenario applied
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
    flag: str              # ``repro sweep`` flag (or None) for that field ...
    type: type             # ... and its element type
    config: str            # SweepCell config the value lands in (or None) ...
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

#: The variant axis: its values name the grid's bundles, and a cell keeps
#: its own (:attr:`SweepCell.variant`).
_VARIANT = Axis("variant", "variants", None, str, None, unmarked="default",
                label="variant")

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
    _VARIANT,
)

#: The axes that identify one aggregate group: every axis but the seed.
GROUP_AXES = tuple(axis for axis in AXES if axis is not _SEED)

#: Scalar grid fields ``repro sweep`` can override, as
#: ``(flag, SweepGrid field, argparse keywords)``.
GRID_FLAGS = (("--flows", "num_flows", {"type": int}),
              ("--mode", "mode", {"choices": ("udp", "tcp")}))


#: What a variant bundle may set.
_SCENARIO_FIELDS = frozenset(spec.name for spec in fields(ScenarioConfig))


def expand_grid(grid):
    """The grid's cells, in deterministic axis-nesting order.

    Raises ``ValueError`` naming the grid field for an axis that is empty
    or repeats a value, and for a value its axis does not accept; and the
    field a variant bundle sets when no :class:`ScenarioConfig` has it or
    an axis sweeps it (its cells would fold together as seeds).
    """
    axis_values = {axis: getattr(grid, axis.field) for axis in AXES}
    axis_values[_VARIANT] = tuple(name for name, _bundle in grid.variants)
    for axis, values in axis_values.items():
        if not values:
            raise ValueError(f"grid field {axis.field!r} is empty")
        if len(set(values)) != len(values):
            raise ValueError(f"grid field {axis.field!r} repeats a value: "
                             f"{values!r}")
        for value in values:
            if axis.valid is not None and not axis.valid(value):
                raise ValueError(axis.error.format(value))
    swept = {axis.kwarg: axis.field for axis, values in axis_values.items()
             if axis.config == "scenario" and len(values) > 1}
    for name, bundle in grid.variants:
        for key in bundle:
            if key not in _SCENARIO_FIELDS:
                raise ValueError(f"variant {name!r} sets {key!r}, which is "
                                 f"not a ScenarioConfig field")
            if key in swept:
                raise ValueError(f"variant {name!r} sets {key!r}, which grid "
                                 f"field {swept[key]!r} sweeps")
    nesting = (*GROUP_AXES, _SEED)
    return [_make_cell(grid, index, tuple(zip(nesting, values, strict=True)))
            for index, values in enumerate(itertools.product(
                *(axis_values[axis] for axis in nesting)))]


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
        if axis is _VARIANT:
            variant = value
        else:
            kwargs[axis.config][axis.kwarg] = value
    # Overrides win over axis values, and a variant's bundle over both.
    kwargs["scenario"].update(grid.scenario_overrides)
    kwargs["workload"].update(grid.workload_overrides)
    kwargs["scenario"].update(dict(grid.variants)[variant])
    cell_id = "-".join(axis.fragment.format(value)
                       for axis, value in values if value != axis.unmarked)
    return SweepCell(index=index, cell_id=cell_id, variant=variant,
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
    #: The completed flows past set-up: all of them in UDP mode, those
    #: whose handshake finished in TCP mode.
    set_up: list
    xtrs: list
    control: tuple         # the world's control_overhead(): (messages, bytes)
    control_state: list    # the world's control_state(): entries per router
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
    digits: int = None     # rounds a ``mean`` (None: left exact)

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
    return lambda cell: sum(  # repro: allow=DET03  (counters: ints)
        read(item) for item in getattr(cell, items))


def _accounted(key):
    return lambda cell: cell.accounting[key]


def _cache_hit_ratio(cell):
    hits, lookups = cell.world.map_cache_lookups()
    return round(hits / lookups, 6) if lookups else None


def _samples(records, attr):
    """The *attr* values measured over *records* (None: not measured)."""
    return [value for record in records
            if (value := getattr(record, attr)) is not None]


def _latency(records, attr):
    """Rounded summary of the latencies measured, None when there are none."""
    samples = _samples(records, attr)
    if not samples:
        return None
    return {key: (round(value, 9) if isinstance(value, float) else value)
            for key, value in summarize(samples).items()}


def _mean(values):
    """Mean of *values*, None when there are none.

    ``math.fsum``, exactly rounded: the built-in ``sum`` over floats is
    compensated from CPython 3.12 on, so its last bits depend on the
    interpreter, and these means reach the digests.
    """
    return math.fsum(values) / len(values) if values else None


def _queue_delay_mean(cell):
    """Mean wait of the packets an ITR queued for a mapping."""
    policy = cell.world.miss_policy
    return _mean(policy.stats.queue_delays) if policy is not None else None


def _pce_total(method):
    """Collector of a PCE control plane total (0 in a world without one)."""
    def collect(cell):
        plane = cell.world.control_plane
        return 0 if plane is None else getattr(plane, method)()
    return collect


def _fabric(key):
    return lambda cell: cell.world.fabric[key]


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
           lambda cell: len(cell.records) - len(cell.completed), fold="sum"),
    Metric("packets_sent", _per("records", "packets_sent")),
    Metric("packets_delivered", _per("records", "packets_delivered")),
    Metric("packets_lost", _per("completed", "packets_lost"), fold="sum"),
    Metric("first_packet_fates",
           lambda cell: dict(sorted(Counter(
               map(classify_first_packet, cell.records)).items())),
           columns=(), fold="tally"),
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
    Metric("control_bytes", lambda cell: cell.control[1], fold="sum"),
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
    # Appended in v8: what the paper experiments' tables read.
    Metric("flows_set_up", lambda cell: len(cell.set_up), fold="sum"),
    Metric("dns_mean", lambda cell: _mean(_samples(cell.set_up, "dns_elapsed")),
           fold="mean"),
    Metric("setup_mean",
           lambda cell: _mean(_samples(cell.set_up, "setup_elapsed")),
           fold="mean"),
    Metric("syn_retransmissions", _per("set_up", "syn_retransmissions"),
           fold="sum"),
    Metric("queue_delay_mean", _queue_delay_mean, fold="mean"),
    Metric("control_state_max",
           lambda cell: max(cell.control_state, default=0), fold="max"),
    Metric("control_state_total",
           lambda cell: sum(cell.control_state),  # repro: allow=DET03  (ints)
           fold="sum"),
    Metric("envelopes", _pce_total("total_envelopes"), fold="sum"),
    Metric("envelope_bytes", _pce_total("total_envelope_bytes"), fold="sum"),
    # World constants, computed once per world (Scenario.fabric).
    Metric("providers", _fabric("providers"), fold="max"),
    Metric("ixps", _fabric("ixps"), fold="max"),
    Metric("hierarchical_routing", _fabric("hierarchical_routing"),
           fold="all"),
    Metric("mesh_delay_mean", _fabric("mesh_delay_mean"), fold="mean"),
)


# --------------------------------------------------------------------- #
# Per-cell execution
# --------------------------------------------------------------------- #

def _failed_count(scenario, failure):
    """How many sites *failure* takes down in *scenario* (0: none)."""
    if failure.fraction <= 0.0:
        return 0
    sites = len(scenario.topology.sites)
    return min(sites, max(1, round(failure.fraction * sites)))


def _apply_failures(scenario, failure, start, queue):
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


def run_cell(world, cell, prefix):
    """Finish *cell* on *world*, which has run its family's *prefix*, and
    measure it.

    Queues the cell's failures, runs the workload to its end and returns
    a JSON-ready dict — the value of every :data:`AXES` row the cell ran
    with and every :data:`METRICS` row's collection; everything in it is
    derived from the simulation alone (no wall-clock values, no cache
    outcomes), keeping sweep artifacts reproducible.
    """
    _apply_failures(world, cell.failure, prefix.start, prefix.keys)
    records = finish_workload(world, prefix.records, prefix.end)
    completed = [record for record in records if not record.failed]
    tcp = cell.workload.mode == "tcp"
    finished = FinishedCell(
        world=world, records=records, completed=completed,
        set_up=[record for record in completed
                if not tcp or record.established_at is not None],
        xtrs=list(world.iter_xtrs()), control=world.control_overhead(),
        control_state=world.control_state(),
        accounting=world.byte_accounting())
    return {
        "index": cell.index,
        "cell_id": cell.cell_id,
        **{axis.key: getattr(cell if axis.config is None
                             else getattr(cell, axis.config), axis.kwarg)
           for axis in AXES},
        "mode": cell.workload.mode,
        "metrics": {metric.key: metric.collect(finished)
                    for metric in METRICS},
    }


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
    return [run_cell(world, first, prefix), *branched]


def _branched(world, cell, prefix):
    """:func:`run_cell` of *cell* in a forked child; its result.

    The child pickles its result, or its exception's type and traceback,
    into a pipe and leaves with ``os._exit``.  The parent reads the pipe
    to its end before it reaps the child, and raises, naming the cell,
    for a child that raised or died.
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
                reply = (True, run_cell(world, cell, prefix))
            except Exception as error:
                # Imported where it is needed: at the top of the module it
                # cost reuse_sweep about 1 MB of peak RSS (allocator
                # layout), five times its own size.
                import traceback
                reply = (False, (type(error).__name__, traceback.format_exc()))
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
    ok, value = pickle.loads(data)
    if not ok:
        name, trace = value
        raise RuntimeError(f"cell {cell.cell_id!r} (index {cell.index}) "
                           f"raised {name} in its branch:\n{trace}")
    return value


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
    """
    world = None
    results = [None] * len(cells)
    try:
        for family in _families(cells):
            members = [cells[position] for position in family]
            with gc_paused():
                if world is None:
                    world = build_world(members[0].scenario)
                else:
                    restore_world(world)
                for position, result in zip(
                        family, _run_family(world, members), strict=True):
                    results[position] = result
    finally:
        if world is not None:
            world.teardown()
    return results


# --------------------------------------------------------------------- #
# Fan-out: world-aligned chunks
# --------------------------------------------------------------------- #

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


def _completed_runs(cells, workers):
    """Yield each chunk's results as the chunk completes.

    ``workers<=1`` runs one chunk per world, inline; otherwise the
    :func:`world_chunks` go to a pool of at most one worker per chunk,
    each chunk's world built in the worker that runs it (fork and spawn
    alike: nothing is built here).  Completion order is arbitrary under
    fan-out; :func:`run_sweep` sorts by cell index.  A worker that dies
    breaks the pool, and the sweep raises ``BrokenProcessPool`` instead
    of waiting for it.
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


# --------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------- #

def _tally(counts):
    """Per-key sums of count dicts (first_packet_fates), keys sorted."""
    tally = Counter()
    for count in counts:
        tally.update(count)
    return dict(sorted(tally.items()))


#: How a group's samples combine, by :attr:`Metric.fold` name; None
#: samples (a ratio or latency nothing measured) are left out first.
_FOLDS = {
    "sum": lambda samples: sum(samples),  # repro: allow=DET03  (counters: ints)
    "all": all,
    "max": lambda samples: max(samples, default=None),
    "mean": _mean,
    "tally": _tally,
}

_FOLDED = tuple(metric for metric in METRICS if metric.fold)


def aggregate(results):
    """Seed-averaged aggregates of cell *results*, sorted by group key.

    Cells group by every axis but the seed (:data:`GROUP_AXES`); each
    :data:`METRICS` row with a ``fold`` contributes one aggregate.  Float
    means are :func:`math.fsum` sums (exactly rounded), so the aggregates
    do not depend on the order of *results*.
    """
    groups = {}
    for result in results:
        groups.setdefault(tuple(result[axis.key] for axis in GROUP_AXES),
                          []).append(result)
    aggregates = []
    for key in sorted(groups):
        group = groups[key]
        folded = dict(zip((axis.key for axis in GROUP_AXES), key, strict=True))
        folded["cells"] = len(group)
        folded[_SEED.field] = sorted(result[_SEED.key] for result in group)
        for metric in _FOLDED:
            samples = [sample for result in group if (sample := metric.parts(
                result["metrics"][metric.key])[-1]) is not None]
            value = _FOLDS[metric.fold](samples)
            if value is not None and metric.digits is not None:
                value = round(value, metric.digits)
            folded[metric.aggregate] = value
        aggregates.append(folded)
    return aggregates


# --------------------------------------------------------------------- #
# Artifacts + sweep driver
# --------------------------------------------------------------------- #

def iter_jsonl(path):
    """Yield result dicts from a per-cell JSONL artifact, one at a time.

    The per-line ``world`` tag (cache outcome, scheduling-dependent) is
    stripped so the yielded results are exactly what the deterministic
    payload carries.

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


def _check_outputs(artifact_paths):
    """Reject unwritable outputs before any world is built.

    Raises ``ValueError`` for an artifact path that is a directory or
    whose directory does not exist — failures that would otherwise
    surface as an ``OSError`` only after the whole sweep has run.
    """
    for label, path in artifact_paths.items():
        if path is None:
            continue
        if os.path.isdir(path):
            raise ValueError(f"cannot write {label} artifact {path!r}: "
                             f"it is a directory")
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise ValueError(f"cannot write {label} artifact {path!r}: "
                             f"no such directory {directory!r}")


def run_sweep(grid, workers=1, json_path=None, csv_path=None, jsonl_path=None):
    """Expand *grid*, run every cell, aggregate, and write artifacts.

    The cells run as :func:`world_chunks`, each through :func:`run_world`:
    inline with ``workers<=1``, else on a pool of worker processes, and
    the parent builds nothing.  Each result is kept and, with
    *jsonl_path*, written to the JSONL as it completes, tagged with its
    world-cache outcome (``miss`` for the cell that built its chunk's
    world, ``hit`` for the rest).  The returned payload carries the grid,
    the :func:`aggregate` of the index-sorted results, the results
    themselves and the scheduling-dependent ``world_cache`` summary
    (excluded from :func:`payload_digest`); it is what lands in
    *json_path*, and the CSV is written from the same sorted list.

    Raises ``ValueError`` — before anything is built — for an artifact
    path that is a directory or lies in a missing one.
    """
    _check_outputs({"json": json_path, "csv": csv_path, "jsonl": jsonl_path})
    cells = expand_grid(grid)
    results = []
    builds = 0
    handle = None if jsonl_path is None else open(jsonl_path, "w")
    try:
        for run in _completed_runs(cells, workers):
            results.extend(run)
            builds += 1
            if handle is not None:
                for position, result in enumerate(run):
                    line = {**result, "world": "hit" if position else "miss"}
                    handle.write(json.dumps(line, sort_keys=True) + "\n")
                    handle.flush()
    finally:
        if handle is not None:
            handle.close()
    results.sort(key=operator.itemgetter("index"))
    payload = {
        "schema": SCHEMA,
        "grid": grid.describe(),
        "num_cells": len(results),
        "aggregates": aggregate(results),
        "world_cache": {"builds": builds, "hits": len(results) - builds},
        "cells": results,
    }
    if csv_path is not None:
        with open(csv_path, "w", newline="") as csv_handle:
            writer = csv.writer(csv_handle)
            writer.writerow(CSV_COLUMNS)
            writer.writerows(map(_csv_row, results))
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
