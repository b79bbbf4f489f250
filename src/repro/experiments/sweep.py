"""Parameter sweeps: declarative scenario grids fanned out over processes.

Every paper experiment but the Fig. 1 walkthrough and E9 (a hand-paced
stream) runs here as one grid and reads its aggregates; what it compares
(systems, sizes, depths) are named bundles on the ``variant`` axis.  A
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
summary counts the builds :func:`run_world` reports: one per chunk, plus
one per rebuild after a raising family.

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
metrics come from counters, flow records and component state, never a
trace, and skipping per-packet trace allocation is what makes the
>=100-site cells cheap.

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
from bisect import bisect_left
from collections import Counter
from dataclasses import astuple, dataclass, field, fields

from repro.experiments.scenario import CONTROL_PLANES, ScenarioConfig
from repro.experiments.workload import (WorkloadConfig, classify_first_packet,
                                        finish_workload, peak_concurrent_flows,
                                        start_workload)
from repro.experiments.worldbuild import (build_world, gc_paused,
                                           restore_world, world_key)
from repro.metrics.stats import percentile, summarize
from repro.net.topogen import FAMILIES
from repro.traffic.popularity import PACING_MODES, SIZE_DISTRIBUTIONS

#: Schema tag written into every JSON artifact: the shape of the payload
#: — grid description, aggregate group key and folds, per-cell rows and
#: their ``metrics`` keys — and of the CSV columns.  Bump it when a
#: consumer of the artifacts would have to change (see "Sweep artifacts"
#: in ``docs/contracts.md``); world blobs are versioned separately
#: (``SNAPSHOT_SCHEMA``, see "Versions" there).
SCHEMA = "repro.sweep/v10"


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
    over axis values; ``variants``, ``(name, {ScenarioConfig or
    WorkloadConfig field: value})`` bundles, is an axis whose bundle wins
    over both.  The paper experiments E1-E8 and E10 are one grid each.
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


#: What a variant bundle may set: each field, by the config it lands in.
_BUNDLE_FIELDS = {spec.name: config
                  for config, klass in (("scenario", ScenarioConfig),
                                        ("workload", WorkloadConfig))
                  for spec in fields(klass)}


def expand_grid(grid):
    """The grid's cells, in deterministic axis-nesting order.

    Raises ``ValueError`` naming the grid field for an axis that is empty
    or repeats a value, and for a value its axis does not accept; and the
    field a variant bundle sets when neither :class:`ScenarioConfig` nor
    :class:`WorkloadConfig` has it or an axis sweeps it (its cells would
    fold together as seeds).
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
             if axis.config in ("scenario", "workload") and len(values) > 1}
    for name, bundle in grid.variants:
        for key in bundle:
            if key not in _BUNDLE_FIELDS:
                raise ValueError(f"variant {name!r} sets {key!r}, which "
                                 f"neither config has")
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
    for key, value in dict(grid.variants)[variant].items():
        kwargs[_BUNDLE_FIELDS[key]][key] = value
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
    workload: WorkloadConfig
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
    """Peak busy-window fraction over every site's access links (0.0
    unless ``ScenarioConfig.access_rate_bps`` gives them a rate)."""
    return round(max((link.stats.peak_utilization()
                      for site in cell.world.topology.sites
                      for pair in site.access_links for link in pair.values()),
                     default=0.0), 6)


def _spread(samples):
    """Count, mean and p95 of *samples* (None when there are none)."""
    return {"count": len(samples), "mean": _mean(samples),
            "p95": percentile(samples, 95)} if samples else None


def _first_at(times, since):
    """The first of ascending *times* at or after *since* (None: none)."""
    first = bisect_left(times, since)
    return times[first] if first < len(times) else None


def _mapping_wait(cell):
    """E2's wait (claim C2): from each flow's DNS answer until a mapping of
    its destination was usable at its source site (0.0 if it came first).

    Usable, in a PCE world, from the first Step-7b push there, from the
    flow's start on, of a prefix covering the destination; elsewhere from
    the destination's first resolution at any xTR from the DNS answer on.
    A :func:`_spread` of the waits, plus ``dns_mean`` of the same flows and
    ``overlap``, the share of them that waited at most 1 us; None when no
    flow's mapping was resolved after it started.
    """
    plane = cell.world.control_plane
    index = {}
    if plane is None:
        for xtr in cell.xtrs:
            for when, eid in xtr.mappings_resolved:
                index.setdefault(eid, []).append(when)
        for times in index.values():
            times.sort()
    else:   # keyed by the prefixes' int pairs: a flow's join makes no object
        index = {(site, prefix._mask, prefix._network): times
                 for site, pce in plane.pces.items()
                 for prefix, times in pce.stats.push_times.items()}
        masks = sorted({mask for _site, mask, _network in index})
        site_of = {}    # a source address -> its site index
    dns, waits = [], []
    for record in cell.records:
        if record.failed or record.dns_elapsed is None:
            continue
        if plane is None:
            ready = _first_at(index.get(record.destination, ()),
                              record.dns_done_at)
        else:
            source, value = record.source.value, record.destination.value
            if source not in site_of:
                site_of[source] = cell.world.topology.site_of_eid(source).index
            found = [_first_at(index.get((site_of[source], mask, value & mask),
                                         ()), record.started_at)
                     for mask in masks]
            ready = min((when for when in found if when is not None),
                        default=None)
        if ready is not None:
            dns.append(record.dns_elapsed)
            waits.append(max(0.0, ready - record.dns_done_at))
    summary = _spread(waits)
    if summary is not None:
        summary.update(dns_mean=_mean(dns), overlap=sum(
            wait <= 1e-6 for wait in waits) / len(waits))
    return summary


def _reverse_completion(cell):
    """E8's reverse multicast (closing paragraph): per announce, the time
    until every sibling ETR of the announcing site had installed it; a
    :func:`_spread`, None outside a PCE world."""
    plane = cell.world.control_plane
    if plane is None:
        return None
    completions = []
    for when, site, prefix in plane.reverse_announces:
        last = len(plane.xtrs_by_site[site]) - 2    # the last sibling's turn
        times = plane.reverse_installs.get((site, prefix), ())
        first = bisect_left(times, when)
        if last >= 0 and first + last < len(times):
            completions.append(times[first + last] - when)
    return _spread(completions)


def _resolution_latency(cell):
    """E8's two-way pull: the mapping system's resolution latencies."""
    system = cell.world.mapping_system
    return None if system is None else _spread(
        system.stats.resolution_latencies)


def _access_te(cell):
    """E4's TE view (claim C3) when every flow aims at one site: per
    provider, the share of the flow bytes an access link delivered and its
    peak utilisation, inbound there and outbound at each site; None,
    walking no site, without a ``dest_site``."""
    world, dest = cell.world, cell.workload.dest_site
    if dest is None:
        return None

    def view(site, key):
        links = [pair[key] for pair in site.access_links]
        delivered = [sum(account.delivered  # repro: allow=DET03  (bytes: ints)
                         for account in link.stats.flows.values())
                     for link in links]
        total = sum(delivered)  # repro: allow=DET03  (bytes: ints)
        return {"shares": [count / total if total else 0.0
                           for count in delivered],
                "util_peak": max(link.stats.peak_utilization()
                                 for link in links)}
    sites = world.topology.sites
    return {"inbound": view(sites[dest], "downlink"),
            "outbound": [view(site, "uplink") for site in sites]}


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
    # Appended in v10: what E2, E4 and E8 read, kept whole per cell.
    Metric("mapping_wait", _mapping_wait, columns=(), fold="each"),
    Metric("access_te", _access_te, columns=(), fold="each"),
    Metric("reverse_completion", _reverse_completion, columns=(), fold="each"),
    Metric("resolution_latency", _resolution_latency, columns=(), fold="each"),
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
        world=world, workload=cell.workload, records=records,
        completed=completed,
        set_up=[record for record in completed
                if not tcp or record.established_at is not None],
        xtrs=list(world.iter_xtrs()), control=world.control_overhead(),
        control_state=world.control_state(),
        accounting=world.byte_accounting())
    return {
        "index": cell.index,
        "cell_id": cell.cell_id,
        **_config(cell),
        "metrics": {metric.key: metric.collect(finished)
                    for metric in METRICS},
    }


def _config(cell):
    """The value of every :data:`AXES` row *cell* runs with, and its mode."""
    return {**{axis.key: getattr(cell if axis.config is None
                                 else getattr(cell, axis.config), axis.kwarg)
               for axis in AXES},
            "mode": cell.workload.mode}


def _failure(cell, error):
    """The error record of *cell*, which raised *error* (being handled).

    Imports where needed: at the top of the module ``traceback`` cost
    reuse_sweep about 1 MB of peak RSS (allocator layout).
    """
    import hashlib
    import traceback
    trace = traceback.format_exc()
    return {"index": cell.index, "cell_id": cell.cell_id,
            "config": _config(cell), "exception": type(error).__name__,
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
    return [run_cell(world, first, prefix), *branched]


def _branched(world, cell, prefix):
    """:func:`run_cell` of *cell* in a forked child; its result.

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
                reply = run_cell(world, cell, prefix)
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
    """Yield each chunk's :func:`run_world` outcome as the chunk completes.

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
#: samples (a ratio or latency nothing measured) are left out first,
#: except by ``each``, which keeps every cell's value whole, in the order
#: of the aggregate's ``seeds``: what no sum or mean pools (summaries,
#: share vectors).
_FOLDS = {
    "sum": lambda samples: sum(samples),  # repro: allow=DET03  (counters: ints)
    "all": all,
    "max": lambda samples: max(samples, default=None),
    "mean": _mean,
    "tally": _tally,
    "each": list,
}

_FOLDED = tuple(metric for metric in METRICS if metric.fold)


def aggregate(results):
    """Seed-averaged aggregates of cell *results*, sorted by group key.

    Cells group by every axis but the seed (:data:`GROUP_AXES`); each
    :data:`METRICS` row with a ``fold`` contributes one aggregate.  Float
    means are :func:`math.fsum` sums (exactly rounded), and a group's
    cells are taken in seed order, so the aggregates do not depend on the
    order of *results*.
    """
    groups = {}
    for result in results:
        groups.setdefault(tuple(result[axis.key] for axis in GROUP_AXES),
                          []).append(result)
    aggregates = []
    for key in sorted(groups):
        group = sorted(groups[key], key=operator.itemgetter(_SEED.key))
        folded = dict(zip((axis.key for axis in GROUP_AXES), key, strict=True))
        folded["cells"] = len(group)
        folded[_SEED.field] = [result[_SEED.key] for result in group]
        for metric in _FOLDED:
            samples = [metric.parts(result["metrics"][metric.key])[-1]
                       for result in group]
            if metric.fold != "each":
                samples = [sample for sample in samples if sample is not None]
            value = _FOLDS[metric.fold](samples)
            if value is not None and metric.digits is not None:
                value = round(value, metric.digits)
            folded[metric.aggregate] = value
        aggregates.append(folded)
    return aggregates


# --------------------------------------------------------------------- #
# Artifacts + sweep driver
# --------------------------------------------------------------------- #

def _grid_tag(grid):
    """Short digest of ``grid.describe()``: every JSONL line carries it, so
    a resume can tell the grid that wrote a line."""
    import hashlib  # loaded already (repro.sim.rng): no import at startup
    described = json.dumps(grid.describe(), sort_keys=True)
    return hashlib.sha256(described.encode()).hexdigest()[:16]


def iter_jsonl(path):
    """Yield ``(grid tag, result)`` per line of a per-cell JSONL artifact.

    The result is stripped of the line's tags, so it is exactly what the
    deterministic payload carries: its ``grid`` tag (None if it has none)
    is yielded beside it, its ``world`` tag (scheduling-dependent) dropped.

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
            yield entry.pop("grid", None), entry


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


def _resumed(cells, tag, path):
    """``{index: result}`` of the cells an earlier run of *cells*' grid,
    tagged *tag*, wrote to the JSONL at *path* (a cut-off last line skipped).

    Raises ``ValueError``, naming the index, for a line that is not the
    grid's cell at its index or lacks the grid's tag: the JSONL of another
    grid (whose cell ids match when only ``num_flows`` or overrides differ).
    """
    if not os.path.isfile(path):
        raise ValueError(f"cannot resume from {path!r}: no such file")
    done = {}
    for line_tag, result in iter_jsonl(path):
        index = result.get("index")
        expected = (cells[index].cell_id if type(index) is int
                    and 0 <= index < len(cells) else None)
        if expected is None or result.get("cell_id") != expected:
            raise ValueError(
                f"cannot resume from {path!r}: its line for index {index} is "
                f"cell {result.get('cell_id')!r}, the grid's is {expected!r}")
        if line_tag != tag:
            raise ValueError(
                f"cannot resume from {path!r}: its line for index {index} is "
                f"from grid {line_tag!r}, this grid is {tag!r}")
        done[index] = result
    return done


def _write_line(handle, result, world, tag):
    handle.write(json.dumps({**result, "world": world, "grid": tag},
                            sort_keys=True) + "\n")
    handle.flush()


def run_sweep(grid, workers=1, json_path=None, csv_path=None, jsonl_path=None,
              resume_path=None):
    """Expand *grid*, run every cell, aggregate, and write artifacts.

    The cells run as :func:`world_chunks`, each through :func:`run_world`:
    inline with ``workers<=1``, else on a pool of worker processes, and
    the parent builds nothing.  Each result is kept and, with
    *jsonl_path*, written to the JSONL as it completes, tagged with its
    world-cache outcome (``miss`` for a cell whose family built its
    world, a rebuild after a raising family included; ``hit`` for the
    rest).  The returned payload carries the grid,
    the :func:`aggregate` of the index-sorted results, the results
    themselves and the scheduling-dependent ``world_cache`` summary
    (excluded from :func:`payload_digest`); it is what lands in
    *json_path*, and the CSV is written from the same sorted list.  A
    cell that raised is left out; its error record is in ``errors``
    (undigested, present only then).

    *resume_path* names the JSONL of an earlier run of this grid, cut short:
    its cells are kept (and written first to *jsonl_path*, which may be
    the same file, tagged ``resumed``), only the rest run, and the
    artifacts are those of one uninterrupted run (``world_cache`` counts
    this run's cells, and the resumed ones under ``resumed``).

    Raises ``ValueError`` — before anything is built — for an artifact
    path that is a directory or lies in a missing one, and for a
    *resume_path* that is missing or holds a line that is not this grid's
    cell at its index or was written by another grid.
    """
    _check_outputs({"json": json_path, "csv": csv_path, "jsonl": jsonl_path})
    cells = expand_grid(grid)
    tag = _grid_tag(grid)
    done = {} if resume_path is None else _resumed(cells, tag, resume_path)
    pending = [cell for cell in cells if cell.index not in done]
    results = list(done.values())
    errors = []
    builds = 0
    handle = None if jsonl_path is None else open(jsonl_path, "w")
    try:
        if handle is not None:
            for result in results:
                _write_line(handle, result, "resumed", tag)
        for run, built in _completed_runs(pending, workers) if pending else ():
            builds += len(built)
            for position, result in enumerate(run):
                if "exception" in result:
                    errors.append(result)
                    continue
                results.append(result)
                if handle is not None:
                    _write_line(handle, result,
                                "miss" if position in built else "hit", tag)
    finally:
        if handle is not None:
            handle.close()
    results.sort(key=operator.itemgetter("index"))
    payload = {
        "schema": SCHEMA,
        "grid": grid.describe(),
        "num_cells": len(results),
        "aggregates": aggregate(results),
        "world_cache": {"builds": builds, "hits": len(pending) - builds},
        "cells": results,
    }
    if resume_path is not None:
        payload["world_cache"]["resumed"] = len(done)
    if errors:
        payload["errors"] = sorted(errors, key=operator.itemgetter("index"))
    if csv_path is not None:
        with open(csv_path, "w", newline="") as csv_handle:
            writer = csv.writer(csv_handle)
            writer.writerow(CSV_COLUMNS)
            writer.writerows(map(_csv_row, results))
    if json_path is not None:
        write_json(payload, json_path)
    return payload


def grid_aggregates(grid):
    """The :func:`aggregate` rows of *grid*, run serially; raises, naming
    them, if any cell raised (the paper experiments read only these)."""
    payload = run_sweep(grid)
    errors = payload.get("errors")
    if errors:
        raise RuntimeError("sweep cells raised: " + ", ".join(
            f"{error['cell_id']} ({error['exception']})" for error in errors))
    return payload["aggregates"]


#: Payload keys the digest leaves out, wherever they sit: what a run
#: cost rather than what it simulated.  ``world_cache`` depends on
#: scheduling; ``sim_events`` counts engine queue pops, which an engine
#: change moves without moving the simulation; ``errors`` digests tracebacks.
NON_DIGESTED_KEYS = ("world_cache", "sim_events", "errors")


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
