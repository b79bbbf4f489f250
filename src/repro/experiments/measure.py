"""What a sweep cell measures, and how a group of cells folds.

Every per-cell metric is one row of the :data:`METRICS` table — how it is
collected from a finished world, which CSV columns it fans out to and how
the cells of an aggregate group combine — and everything else that names
a metric is derived from it (see "Sweep artifacts" in
``docs/contracts.md``).  :func:`collect_metrics` takes a world after its
workload ran and returns every row's value, each derived from the
simulation alone; :func:`aggregate` folds cell results over their seeds.
"""

import math
import operator
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

from repro.experiments.grid import GROUP_AXES, SEED
from repro.experiments.workload import WorkloadConfig
from repro.metrics.stats import percentile, summarize


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
    pces: list             # the world's PCEs (none outside a PCE world)
    control: tuple         # control-plane (messages, bytes)
    control_state: list    # control-plane state entries per router
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


def collect_metrics(world, workload, records):
    """Every :data:`METRICS` row's value for *world*, on which *workload*
    ran to its end and gave flow *records*."""
    completed = [record for record in records if not record.failed]
    tcp = workload.mode == "tcp"
    plane = world.control_plane
    finished = FinishedCell(
        world=world, workload=workload, records=records, completed=completed,
        set_up=[record for record in completed
                if not tcp or record.established_at is not None],
        xtrs=list(world.iter_xtrs()),
        pces=[] if plane is None else list(plane.pces.values()),
        control=_control(world), control_state=_control_state(world),
        accounting=world.byte_accounting())
    return {metric.key: metric.collect(finished) for metric in METRICS}


def _control(world):
    """Control-plane ``(messages, bytes)`` the world spent.

    The baseline mapping system's counters; in a PCE world the pushes,
    the Step-6 envelopes and two messages per reverse announce (the
    siblings' and the PCE's copies, a lower bound) against the push
    bytes; zeros in a ``plain`` world.
    """
    if world.mapping_system is not None:
        stats = world.mapping_system.stats
        return stats.messages, stats.bytes
    plane = world.control_plane
    if plane is None:
        return 0, 0
    stats = [pce.stats for pce in plane.pces.values()]
    messages = sum(  # repro: allow=DET03  (counters: ints)
        item.push_messages + item.replies_encapsulated for item in stats)
    return (messages + 2 * len(plane.reverse_announces),
            sum(item.push_bytes for item in stats))  # repro: allow=DET03  (ints)


def _control_state(world):
    """Durable control-plane state entries, one count per router.

    Counts what a router must *hold to operate the control plane* —
    overlay RIBs (ALT), tree pointers (CONS), the pushed database (NERD),
    a PCE's mapping database — deliberately excluding transient
    demand-driven map-cache entries, which every system accrues at the
    same per-flow rate.  Empty in a ``plain`` world.
    """
    if world.control_plane is not None:
        return [len(pce.mapping_db)
                for pce in world.control_plane.pces.values()]
    if world.mapping_system is not None:
        return list(world.mapping_system.state_entries_per_router().values())
    return []


def _per(items, attr):
    """Collector summing (dotted) *attr* over the cell's *items*."""
    read = operator.attrgetter(attr)
    return lambda cell: sum(  # repro: allow=DET03  (counters: ints)
        read(item) for item in getattr(cell, items))


def _accounted(key):
    return lambda cell: cell.accounting[key]


def _cache_hit_ratio(cell):
    """World-wide map-cache hits over lookups (None: no lookup)."""
    hits = _per("xtrs", "map_cache.hits")(cell)
    lookups = hits + _per("xtrs", "map_cache.misses")(cell)
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


def _first_packet_drops(cell):
    """First packets the ITRs' miss policy dropped."""
    policy = cell.world.miss_policy
    return 0 if policy is None else policy.stats.dropped


def _queue_delay_mean(cell):
    """Mean wait of the packets an ITR queued for a mapping."""
    policy = cell.world.miss_policy
    return _mean(policy.stats.queue_delays) if policy is not None else None


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


def peak_concurrent_flows(records):
    """Most flows simultaneously in their send phase (megaflow's headline).

    A flow is active from ``started_at`` until ``finished_at``; flows cut
    off at the workload deadline (``finished_at`` None) count as active to
    the end.  Ties break ends-before-starts so back-to-back flows don't
    double count.
    """
    marks = []
    for record in records:
        marks.append((record.started_at, 1))
        if record.finished_at is not None:
            marks.append((record.finished_at, -1))
    marks.sort()
    peak = current = 0
    for _when, delta in marks:
        current += delta
        if current > peak:
            peak = current
    return peak


def classify_first_packet(record):
    """E1 classification of a flow's first data packet."""
    fates = record.first_packet_fates
    if not fates:
        if record.failed:
            return "not-sent"
        # No LISP on the path (plain mode): judge by delivery.
        if record.packets_sent > 0 and record.packets_delivered >= record.packets_sent:
            return "sent-immediately"
        return "unknown"
    if "dropped-at-itr" in fates or "dropped-queue-overflow" in fates \
            or "dropped-no-rloc" in fates:
        return "dropped"
    if "flushed-after-queue" in fates:
        return "queued-then-sent"
    if "carried-over-cp" in fates:
        return "carried-over-cp"
    if "encapsulated" in fates or "decapsulated" in fates:
        return "sent-immediately"
    if "queued-at-itr" in fates:
        return "stuck-in-queue"
    return "unknown"


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
    Metric("first_packet_drops", _first_packet_drops, fold="sum"),
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
    # or digested (see NON_DIGESTED_KEYS in repro.experiments.sweep).
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
    # Step-6 replies the PCEs encapsulated, and their bytes.
    Metric("envelopes", _per("pces", "stats.replies_encapsulated"),
           fold="sum"),
    Metric("envelope_bytes", _per("pces", "stats.envelope_bytes"), fold="sum"),
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
        group = sorted(groups[key], key=operator.itemgetter(SEED.key))
        folded = dict(zip((axis.key for axis in GROUP_AXES), key, strict=True))
        folded["cells"] = len(group)
        folded[SEED.field] = [result[SEED.key] for result in group]
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
