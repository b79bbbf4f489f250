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


@dataclass
class WorkloadConfig:
    num_flows: int = 40
    arrival_rate: float = 20.0      # flows per second (Poisson)
    zipf_s: float = 1.0             # destination-site popularity skew
    mode: str = "udp"               # "udp" | "tcp"
    packets_per_flow: int = 5
    payload_bytes: int = 1000
    packet_spacing: float = 0.001
    #: In TCP mode, follow a successful handshake with the sized data
    #: burst (False keeps the handshake-only behaviour of E3).
    tcp_data_burst: bool = False
    #: Flow-size distribution for data phases ("constant"|"pareto"|"lognormal"):
    #: heavy tails around a mean of ``packets_per_flow`` packets.  The
    #: default draws nothing from the RNG, so constant-size workloads are
    #: byte-identical to the pre-size-distribution behaviour.
    size_dist: str = "constant"
    size_alpha: float = 1.4         # bounded-Pareto tail exponent
    size_sigma: float = 1.0         # lognormal shape
    size_max_factor: float = 50.0   # cap relative to the distribution scale
    #: Pacing mode ("constant"|"shaped"|"fluid").  ``constant`` sends every
    #: flow's packets ``packet_spacing`` apart (the historical sender,
    #: event-level identical); ``shaped`` bursts mice back-to-back and paces
    #: elephants at ``pace_rate_bps``; ``fluid`` additionally advances bulk
    #: flows as byte chunks with no per-packet events.
    pacing: str = "constant"
    pace_rate_bps: float = 2_000_000.0
    #: Flows above this many packets are elephants (None: 2x the size mean).
    elephant_threshold: Optional[float] = None
    burst_spacing: float = 0.0      # mouse inter-packet gap (0 = one burst)
    #: Fluid pacing only: flows above this many packets go fluid (None:
    #: the elephant threshold — every elephant advances as chunks).
    fluid_threshold: Optional[float] = None
    #: Seconds of pace-rate bytes per fluid chunk.
    fluid_chunk_interval: float = 0.25
    source_site: Optional[int] = None   # None = uniformly random
    dest_site: Optional[int] = None     # None = Zipf over the other sites
    grace_period: float = 8.0       # settle time after the last arrival
    rng_name: str = "workload"


def build_shaper(workload, rng=None):
    """The :class:`FlowShaper` a workload's data phases draw plans from."""
    sizes = FlowSizeSampler(dist=workload.size_dist,
                            mean=workload.packets_per_flow,
                            alpha=workload.size_alpha,
                            sigma=workload.size_sigma,
                            max_factor=workload.size_max_factor, rng=rng)
    return FlowShaper(sizes, workload.payload_bytes, pacing=workload.pacing,
                      spacing=workload.packet_spacing,
                      pace_rate_bps=workload.pace_rate_bps,
                      elephant_threshold=workload.elephant_threshold,
                      burst_spacing=workload.burst_spacing,
                      fluid_threshold=workload.fluid_threshold,
                      chunk_interval=workload.fluid_chunk_interval)


def run_workload(scenario, workload):
    """Run *workload* to completion; returns the list of FlowRecords."""
    sim = scenario.sim
    topology = scenario.topology
    rng = sim.rng.stream(workload.rng_name)
    num_sites = len(topology.sites)
    if num_sites < 2:
        raise ValueError("workload needs at least two sites")
    zipf = ZipfSampler(num_sites - 1, s=workload.zipf_s, rng=rng)
    shaper = build_shaper(workload, rng=rng)
    records = []

    def pick_sites():
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
        offset = zipf.sample() + 1
        dst = (src + offset) % num_sites
        if dst == src:  # only possible via modular wrap corner cases
            dst = (src + 1) % num_sites
        return src, dst

    def flow(start_delay):
        yield sim.timeout(start_delay)
        src_index, dst_index = pick_sites()
        src_site = topology.sites[src_index]
        dst_site = topology.sites[dst_index]
        src_host = src_site.hosts[rng.randrange(len(src_site.hosts))]
        dst_host_index = rng.randrange(len(dst_site.hosts))
        record = FlowRecord(flow_id=scenario.flow_ids.allocate(),
                            source=src_host.address,
                            qname=scenario.host_name(dst_site, dst_host_index),
                            started_at=sim.now)
        records.append(record)
        stub = scenario.stub_for(src_host, src_site)
        address, elapsed = yield stub.lookup(record.qname)
        record.dns_done_at = sim.now
        record.dns_elapsed = elapsed
        record.destination = address
        if address is None:
            record.failed = True
            return
        if workload.mode == "tcp":
            outcome = yield scenario.tcp_stacks[src_host.name].connect(
                address, FLOW_TCP_PORT)
            if outcome is None:
                record.failed = True
                return
            setup, retries = outcome
            record.established_at = sim.now
            record.setup_elapsed = setup
            record.syn_retransmissions = retries
            if workload.tcp_data_burst:
                yield send_flow(sim, src_host, address, FLOW_UDP_PORT,
                                record, shaper.plan(), scenario.fluid_pump)
        else:
            yield send_flow(sim, src_host, address, FLOW_UDP_PORT, record,
                            shaper.plan(), scenario.fluid_pump)

    arrival_time = 0.0
    last_arrival = 0.0
    for _ in range(workload.num_flows):
        arrival_time += rng.expovariate(workload.arrival_rate)
        last_arrival = arrival_time
        sim.process(flow(arrival_time), name=f"flow@{arrival_time:.3f}")

    sim.run(until=sim.now + last_arrival + workload.grace_period)

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
