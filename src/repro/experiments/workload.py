"""Workload driver: Poisson flow arrivals over a scenario.

Every flow mimics a connecting application: resolve the destination name,
then either open a TCP connection (``mode="tcp"``) or emit a sized UDP
data phase (``mode="udp"``).  With ``tcp_data_burst`` a successful
handshake is followed by the sized data phase too, so flow-size
distributions shape TCP workloads as well (the sweep engine's ``scale``
preset relies on this).

The data phase is driven by a :class:`~repro.traffic.popularity.FlowShaper`:
each flow draws a byte budget from its size distribution and a pacing plan.
``pacing="constant"`` reproduces the historical constant-spacing sender
byte-for-byte; ``pacing="shaped"`` makes the heavy tail temporal — mice
burst back-to-back, elephants pace their packets at ``pace_rate_bps`` — so
the size axis changes *when* bytes hit the links, not just how many.

Per-flow :class:`~repro.traffic.flows.FlowRecord` objects collect DNS
time, setup time, retransmissions, byte budgets and packet fates — the raw
material for experiments E1/E3/E4/E7.
"""

from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

from repro.experiments.scenario import FLOW_TCP_PORT, FLOW_UDP_PORT
from repro.traffic.flows import FlowRecord, send_flow
from repro.traffic.popularity import FlowShaper, FlowSizeSampler, ZipfSampler

#: The random stream a workload draws arrivals, sites, hosts and sizes from.
WORKLOAD_STREAM = "workload"


@dataclass
class WorkloadConfig:
    num_flows: int = 40
    arrival_rate: float = 20.0      # flows per second (Poisson)
    zipf_s: float = 1.0             # destination-site popularity skew
    mode: str = "udp"               # "udp" | "tcp"
    packets_per_flow: int = 5
    payload_bytes: int = 1000
    #: In TCP mode, follow a successful handshake with the sized data
    #: burst (False keeps the handshake-only behaviour of E3).
    tcp_data_burst: bool = False
    #: Flow-size distribution for data phases ("constant"|"pareto"|"lognormal"):
    #: heavy tails around a mean of ``packets_per_flow`` packets.  The
    #: default draws nothing from the RNG, so constant-size workloads are
    #: byte-identical to the pre-size-distribution behaviour.
    size_dist: str = "constant"
    #: Pacing mode ("constant"|"shaped"|"fluid").  ``constant`` sends every
    #: flow's packets 1 ms apart (the historical sender, event-level
    #: identical); ``shaped`` bursts mice back-to-back and paces elephants
    #: at ``pace_rate_bps``; ``fluid`` additionally advances bulk flows as
    #: byte chunks with no per-packet events.
    pacing: str = "constant"
    pace_rate_bps: float = 2_000_000.0
    #: Flows above this many packets are elephants (None: 2x the size mean).
    elephant_threshold: Optional[float] = None
    #: Fluid pacing only: flows above this many packets go fluid (None:
    #: the elephant threshold — every elephant advances as chunks).
    fluid_threshold: Optional[float] = None
    #: Seconds of pace-rate bytes per fluid chunk.
    fluid_chunk_interval: float = 0.25
    source_site: Optional[int] = None   # None = uniformly random
    dest_site: Optional[int] = None     # None = Zipf over the other sites
    grace_period: float = 8.0       # settle time after the last arrival

    def __post_init__(self):
        # NaN passes no bound either: a bad grid then fails at expansion
        # with the field named, not inside a worker's cell.
        for name, value in (("arrival_rate", self.arrival_rate),
                            ("pace_rate_bps", self.pace_rate_bps),
                            ("fluid_chunk_interval", self.fluid_chunk_interval)):
            if not value > 0:
                raise ValueError(f"{name} must be > 0, got {value!r}")
        for name, value, floor in (("num_flows", self.num_flows, 0),
                                   ("packets_per_flow", self.packets_per_flow, 1),
                                   ("payload_bytes", self.payload_bytes, 1),
                                   ("grace_period", self.grace_period, 0),
                                   ("zipf_s", self.zipf_s, 0)):
            if not value >= floor:
                raise ValueError(f"{name} must be >= {floor}, got {value!r}")


def build_shaper(workload, rng):
    """The :class:`FlowShaper` a workload's data phases draw plans from."""
    sizes = FlowSizeSampler(rng, dist=workload.size_dist,
                            mean=workload.packets_per_flow)
    return FlowShaper(sizes, workload.payload_bytes, pacing=workload.pacing,
                      pace_rate_bps=workload.pace_rate_bps,
                      elephant_threshold=workload.elephant_threshold,
                      fluid_threshold=workload.fluid_threshold,
                      chunk_interval=workload.fluid_chunk_interval)


def run_workload(scenario, workload):
    """Run *workload* to completion; returns the list of FlowRecords.

    Draw order on the workload's stream is what it always was: the
    ``num_flows`` inter-arrival draws first (the deadline needs the last
    arrival), then, in event order, each flow's sites and hosts when it
    arrives and its size when its data phase starts.  The arrival times
    themselves are replayed from a clone of the stream taken before the
    first draw, one flow at a time, so nothing per flow exists before the
    flow is due.

    It is :func:`start_workload` then :func:`finish_workload`; a sweep
    family calls the two itself and runs its shared prefix in between.
    """
    return finish_workload(scenario, *start_workload(scenario, workload))


def start_workload(scenario, workload):
    """Queue *workload*'s first arrival on *scenario*; nothing runs yet.

    Returns ``(records, end)``: the list each flow's record joins when it
    arrives, and the instant the workload ends (its last arrival plus the
    grace period).  The arrival source is owned by its pending engine
    event and by nothing else from here on.
    """
    arrivals = _Arrivals(scenario, workload)
    arrivals.schedule_next()
    return (arrivals.records,
            scenario.sim.now + arrivals.last_arrival + workload.grace_period)


def finish_workload(scenario, records, end):
    """Run *scenario* to *end* and complete *records*; returns them.

    Flows the deadline strands in the fluid pump are settled, so their
    records show every chunk the pump sent for them.
    """
    scenario.sim.run(until=end)
    scenario.fluid_pump.settle()

    # Attribute deliveries back to flows via the sinks.
    delivered_by_flow = defaultdict(int)
    for sink in scenario.udp_sinks.values():
        for flow_id, count in sink.by_flow.items():
            delivered_by_flow[flow_id] += count
    for record in records:
        record.packets_delivered = delivered_by_flow.get(record.flow_id, 0)
        # A flow cut off at the deadline before its DNS resolution finished
        # never got an answer: mark it failed so downstream consumers (which
        # treat destination/dns_done_at as Optional) can rely on the flag
        # instead of re-deriving "incomplete" from a None timestamp.
        if record.dns_done_at is None:
            record.failed = True
    return records


class _Arrivals:
    """The workload's one arrival source: flows exist from when they are due.

    Owned by its pending engine event and by nothing else — an object
    rather than two closures calling each other, which would be a
    reference cycle through the scenario and keep a dropped world alive
    until a full collection.
    """

    __slots__ = ("scenario", "workload", "rng", "zipf", "shaper", "replay",
                 "last_arrival", "records", "origin", "offset", "left")

    def __init__(self, scenario, workload):
        num_sites = len(scenario.topology.sites)
        if num_sites < 2:
            raise ValueError("workload needs at least two sites")
        streams = scenario.sim.rng
        rng = streams.stream(WORKLOAD_STREAM)
        self.scenario = scenario
        self.workload = workload
        # Lives one run: made after the restore, dropped with the queue.
        self.rng = rng  # repro: allow=DET01
        self.zipf = ZipfSampler(num_sites - 1, rng, s=workload.zipf_s)
        self.shaper = build_shaper(workload, rng)
        #: Second reader of the stream, positioned before the arrival draws
        #: that are burnt on the stream itself right here.
        self.replay = streams.clone(WORKLOAD_STREAM)
        self.last_arrival = 0.0
        for _ in range(workload.num_flows):
            self.last_arrival += rng.expovariate(workload.arrival_rate)
        self.records = []
        self.origin = scenario.sim.now
        self.offset = 0.0
        self.left = workload.num_flows

    def schedule_next(self):
        if self.left:
            self.left -= 1
            self.offset += self.replay.expovariate(self.workload.arrival_rate)
            self.scenario.sim.call_at(self.origin + self.offset, self._arrive)

    def _pick_sites(self):
        workload, rng = self.workload, self.rng
        num_sites = len(self.scenario.topology.sites)
        if workload.dest_site is not None:
            dst = workload.dest_site
            src = rng.randrange(num_sites - 1)
            if src >= dst:
                src += 1
            return src, dst
        if workload.source_site is not None:
            src = workload.source_site
        else:
            src = rng.randrange(num_sites)
        offset = self.zipf.sample() + 1
        dst = (src + offset) % num_sites
        if dst == src:  # only possible via modular wrap corner cases
            dst = (src + 1) % num_sites
        return src, dst

    def _arrive(self):
        scenario, rng = self.scenario, self.rng
        sites = scenario.topology.sites
        src_index, dst_index = self._pick_sites()
        src_site = sites[src_index]
        dst_site = sites[dst_index]
        src_host = src_site.hosts[rng.randrange(len(src_site.hosts))]
        dst_host_index = rng.randrange(len(dst_site.hosts))
        record = FlowRecord(flow_id=scenario.flow_ids.allocate(),
                            source=src_host.address,
                            qname=scenario.host_name(dst_site, dst_host_index),
                            started_at=scenario.sim.now)
        self.records.append(record)
        lookup = scenario.stub_for(src_host, src_site).lookup(record.qname)
        lookup.callbacks.append(_Flow(self, record, src_host).resolved)
        self.schedule_next()


class _Flow:
    """One flow between its arrival and its data phase.

    Its waits are callbacks on the events it waits for anyway — the stub's
    lookup, the TCP handshake — and once the sender has the flow nothing
    here is referenced any more.
    """

    __slots__ = ("arrivals", "record", "host")

    def __init__(self, arrivals, record, host):
        self.arrivals = arrivals
        self.record = record
        self.host = host

    def resolved(self, lookup):
        address, elapsed = lookup.value
        record = self.record
        scenario = self.arrivals.scenario
        record.dns_done_at = scenario.sim.now
        record.dns_elapsed = elapsed
        record.destination = address
        if address is None:
            record.failed = True
        elif self.arrivals.workload.mode == "tcp":
            connect = scenario.tcp_stacks[self.host.name].connect(
                address, FLOW_TCP_PORT)
            connect.callbacks.append(self.connected)
        else:
            self.send()

    def connected(self, connect):
        outcome = connect.value
        record = self.record
        if outcome is None:
            record.failed = True
            return
        setup, retries = outcome
        record.established_at = self.arrivals.scenario.sim.now
        record.setup_elapsed = setup
        record.syn_retransmissions = retries
        if self.arrivals.workload.tcp_data_burst:
            self.send()

    def send(self):
        scenario = self.arrivals.scenario
        send_flow(scenario.sim, self.host, self.record.destination,
                  FLOW_UDP_PORT, self.record, self.arrivals.shaper.plan(),
                  scenario.fluid_pump)


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
