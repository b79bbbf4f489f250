"""Flow-level traffic machinery: a minimal TCP model and UDP sinks.

The TCP model covers exactly what the paper's latency formulas need: the
three-way handshake (SYN, SYN+ACK, ACK), with retransmission of lost SYNs
after a retransmission timeout.  A SYN lost at an ITR during mapping
resolution therefore costs a full RTO — the mechanism behind the paper's
connection-setup comparison (§1).
"""

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

from repro.net.addresses import IPv4Address
from repro.net.packet import PROTO_TCP, TCP_ACK, TCP_SYN, tcp_packet, udp_packet

#: Classic initial TCP retransmission timeout (RFC 1122 era: 1 second was
#: common in 2008-vintage stacks; RFC 6298 later said 1 s as well).
DEFAULT_RTO = 1.0

#: Extra path-discovery packets a fluid sender may spend (beyond the first)
#: before declaring the flow failed, and again whenever a whole chunk is
#: lost and the path must be re-learned.
FLUID_PROBE_RETRIES = 2


class FlowIdAllocator:
    """Per-world flow-id sequence.

    Flow ids used to come from a module-level counter, which made them
    depend on how many worlds a worker process had already built — a fresh
    and a restored world would label the same flows differently.  The
    allocator is world state: built with the scenario, handed out through
    :meth:`allocate`, and checkpointed with the rest of the traffic layer
    so fresh and restored worlds assign identical ids.
    """

    __slots__ = ("_next",)

    def __init__(self, start=1):
        self._next = start

    def allocate(self):
        flow_id = self._next
        self._next += 1
        return flow_id

    def snapshot_state(self):
        return self._next

    def restore_state(self, state):
        self._next = state


@dataclass
class FlowRecord:
    """Everything measured about one application flow.

    ``source``/``destination``/``qname`` and the timing fields are
    genuinely :data:`~typing.Optional`: a flow that fails (or is cut off
    at the workload deadline) before DNS completes has ``destination`` and
    ``dns_done_at`` still ``None`` with ``failed`` set — consumers must
    treat these fields as nullable rather than assuming a completed
    resolution.
    """

    flow_id: int
    source: Optional[IPv4Address] = None
    destination: Optional[IPv4Address] = None
    qname: Optional[str] = None
    started_at: float = 0.0
    dns_done_at: Optional[float] = None
    dns_elapsed: Optional[float] = None
    established_at: Optional[float] = None
    setup_elapsed: Optional[float] = None
    syn_retransmissions: int = 0
    #: Real datagrams handed to the host.  For fluid flows these count the
    #: path-discovery packets only; the bulk advances through
    #: ``chunks_sent`` / ``bytes_sent``.
    packets_sent: int = 0
    packets_delivered: int = 0
    #: Application bytes this flow planned to send (packets x payload).
    bytes_budget: int = 0
    #: Application bytes actually handed to the host for sending.
    bytes_sent: int = 0
    #: Fluid chunks posted (0 for packet-level flows).
    chunks_sent: int = 0
    #: When the sender finished (all budget sent, or gave up), None while
    #: still active — the basis of concurrent-flow counts.
    finished_at: Optional[float] = None
    #: Pacing classification ("constant" | "mouse" | "elephant" | "fluid"),
    #: None when the flow never reached its data phase.
    flow_kind: Optional[str] = None
    first_packet_fates: list = field(default_factory=list)
    failed: bool = False

    @property
    def packets_lost(self):
        return self.packets_sent - self.packets_delivered


class TcpStack:
    """Per-host TCP service: listeners answer SYNs, clients track connects."""

    def __init__(self, sim, host):
        self.sim = sim
        self.host = host
        self._listeners = {}
        self._pending = {}
        self.segments_received = 0
        self.data_bytes_received = 0
        host.register_protocol(PROTO_TCP, self._on_segment)
        host.register_service("tcp", self)

    def listen(self, port):
        """Accept connections on *port* (responder role)."""
        self._listeners[port] = True

    def _on_segment(self, packet, _node):
        header = packet.tcp
        if header is None:
            return
        self.segments_received += 1
        if header.is_syn and header.dport in self._listeners:
            reply = tcp_packet(packet.ip.dst, packet.ip.src, header.dport, header.sport,
                               flags=TCP_SYN | TCP_ACK, seq=0, ack=header.seq + 1)
            self.host.send(reply)
            return
        if header.is_synack:
            waiter = self._pending.get(header.dport)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(packet)
            return
        # Anything else is data (or a bare ACK); count its payload.
        self.data_bytes_received += packet.size_bytes

    def connect(self, destination, dport, rto=DEFAULT_RTO, max_retries=5):
        """Process: three-way handshake; returns (elapsed, syn_retries) or None."""
        sim = self.sim
        sport = self.host.ephemeral_port()

        def _connect():
            started = sim.now
            for attempt in range(max_retries + 1):
                syn = tcp_packet(self.host.address, destination, sport, dport,
                                 flags=TCP_SYN, seq=attempt)
                waiter = sim.event(name=f"tcp-connect-{sport}")
                self._pending[sport] = waiter
                self.host.send(syn)
                deadline = sim.timeout(rto * (2 ** attempt))
                outcome = yield sim.any_of([waiter, deadline])
                if waiter in outcome:
                    self._pending.pop(sport, None)
                    ack = tcp_packet(self.host.address, destination, sport, dport,
                                     flags=TCP_ACK, seq=attempt + 1, ack=1)
                    self.host.send(ack)
                    return sim.now - started, attempt
                self._pending.pop(sport, None)
            return None

        return sim.process(_connect(), name=f"{self.host.name}-connect")

    #: Owning sim and host are independently checkpointed.
    _SNAPSHOT_EXEMPT = ("sim", "host")

    def snapshot_state(self):
        return (self.segments_received, self.data_bytes_received,
                dict(self._listeners))

    def restore_state(self, state):
        self.segments_received, self.data_bytes_received, listeners = state
        self._listeners = dict(listeners)
        self._pending.clear()


class UdpSink:
    """Counts datagrams per flow id on one UDP port.

    Fluid flows deliver almost all of their bytes without datagrams:
    :meth:`credit_fluid` books a chunk's surviving wire bytes (``bytes``,
    ``fluid_bytes``, ``fluid_by_flow``) when it reaches the destination,
    while ``received``/``by_flow`` keep counting real packets only.
    """

    def __init__(self, sim, host, port):
        self.sim = sim
        self.host = host
        self.port = port
        self.received = 0
        self.bytes = 0
        self.fluid_bytes = 0
        self.by_flow = defaultdict(int)
        self.fluid_by_flow = defaultdict(int)
        self.arrival_times = []
        host.bind_udp(port, self._on_datagram)

    def _on_datagram(self, packet, _node):
        self.received += 1
        self.bytes += packet.size_bytes
        self.arrival_times.append(self.sim.now)
        meta = packet.meta
        flow_id = meta.get("flow_id")
        if flow_id is not None:
            self.by_flow[flow_id] += 1
        probe = meta.get("fluid_probe")
        if probe is not None:
            # Complete the fluid sender's path discovery.
            probe["sink"] = self

    def credit_fluid(self, flow_id, size):
        """Book *size* fluid wire bytes arriving for *flow_id*."""
        self.bytes += size
        self.fluid_bytes += size
        self.fluid_by_flow[flow_id] += size

    #: Construction-time wiring: sim and host checkpoint themselves, the
    #: bound port never changes.
    _SNAPSHOT_EXEMPT = ("sim", "host", "port")

    def snapshot_state(self):
        return (self.received, self.bytes, self.fluid_bytes,
                dict(self.by_flow), dict(self.fluid_by_flow),
                list(self.arrival_times))

    def restore_state(self, state):
        (self.received, self.bytes, self.fluid_bytes,
         by_flow, fluid_by_flow, arrivals) = state
        self.by_flow = defaultdict(int, by_flow)
        self.fluid_by_flow = defaultdict(int, fluid_by_flow)
        self.arrival_times = list(arrivals)


def send_flow(sim, host, destination, port, record, plan):
    """Process: emit one flow's datagrams on its :class:`FlowPlan` schedule.

    The plan's byte budget and pacing kind are written onto *record*
    (``bytes_budget``, ``flow_kind``) and every handed-off datagram
    advances ``bytes_sent``, so flow-level byte accounting lines up with
    the per-link accounting in :mod:`repro.net.link`.  A zero-spacing plan
    (a shaped mouse) sends its whole burst back-to-back within one event;
    positive spacing yields between packets exactly like the historical
    constant-spacing sender.

    The first packet's fate list ends up in ``record.first_packet_fates``
    so experiment E1 can classify it (dropped / queued / carried over CP /
    encapsulated immediately).

    A ``fluid`` plan dispatches to the chunked sender instead: the first
    packet(s) double as path discovery, then the bulk advances as
    rate x interval chunks posted straight to the discovered links (see
    :meth:`repro.net.link.Link.post_fluid`).
    """
    record.bytes_budget = plan.byte_budget
    record.flow_kind = plan.kind
    if plan.kind == "fluid":
        return _send_fluid(sim, host, destination, port, record, plan)

    def _send():
        for index in range(plan.packets):
            meta = {"flow_id": record.flow_id, "index": index}
            packet = udp_packet(host.address, destination, 5000, port,
                                payload_bytes=plan.payload_bytes, meta=meta)
            if index == 0:
                packet.meta["fates"] = record.first_packet_fates
            record.packets_sent += 1
            record.bytes_sent += plan.payload_bytes
            host.send(packet)
            if index < plan.packets - 1 and plan.spacing > 0.0:
                yield sim.timeout(plan.spacing)
        record.finished_at = sim.now

    return sim.process(_send(), name=f"{host.name}-burst-{record.flow_id}")


def _send_fluid(sim, host, destination, port, record, plan):
    """Process: advance a fluid flow as path-probe packets plus byte chunks.

    The first packet is a normal datagram that carries a ``fluid_probe``
    marker: every link that delivers it appends itself, and the
    destination :class:`UdpSink` stamps itself in on arrival — so one
    event-exact traversal discovers the packet path (E1's first-packet
    fate classification rides it unchanged).  The remaining budget then
    advances without per-packet events: every ``chunk_interval`` the
    sender pushes a chunk of wire bytes through the discovered links —
    each link's :meth:`~repro.net.link.Link.post_fluid` returns what
    survived, which feeds the next hop — and credits the remainder to the
    sink.  A chunk that dies completely triggers re-discovery (the path
    may have failed over); when probing exhausts its retries with budget
    still unsent the flow is marked failed.

    Every probe spends one packet of the flow's own budget, so
    ``bytes_sent`` can never exceed ``bytes_budget``; a completed flow has
    spent its budget exactly.
    """
    payload = plan.payload_bytes
    interval = plan.chunk_interval
    wire_per_packet = payload + plan.overhead_bytes

    def _remaining():
        return (record.bytes_budget - record.bytes_sent) // payload

    def _probe(attempts):
        """Sub-process: discover the path; returns (links, sink) or None."""
        while attempts > 0 and _remaining() > 0:
            attempts -= 1
            probe = {"links": [], "sink": None}
            meta = {"flow_id": record.flow_id, "index": record.packets_sent,
                    "fluid_probe": probe}
            packet = udp_packet(host.address, destination, 5000, port,
                                payload_bytes=payload, meta=meta)
            if record.packets_sent == 0:
                packet.meta["fates"] = record.first_packet_fates
            record.packets_sent += 1
            record.bytes_sent += payload
            host.send(packet)
            yield sim.timeout(interval)
            if probe["sink"] is not None:
                return probe["links"], probe["sink"]
        return None

    def _give_up():
        if record.bytes_sent < record.bytes_budget:
            record.failed = True
        record.finished_at = sim.now

    def _send():
        path = yield from _probe(1 + FLUID_PROBE_RETRIES)
        if path is None:
            _give_up()
            return
        links, sink = path
        remaining = _remaining()
        while remaining > 0:
            chunk = plan.chunk_packets if plan.chunk_packets < remaining else remaining
            delivered = chunk * wire_per_packet
            for link in links:
                if delivered <= 0:
                    break
                delivered = link.post_fluid(delivered, record.flow_id, interval)
            record.bytes_sent += chunk * payload
            record.chunks_sent += 1
            remaining = _remaining()
            if delivered > 0:
                sink.credit_fluid(record.flow_id, delivered)
            elif links and remaining > 0:
                # The whole chunk died mid-path: re-learn the route (the
                # probe loop waits an interval per attempt, so no extra
                # sleep here).
                path = yield from _probe(FLUID_PROBE_RETRIES)
                if path is None:
                    _give_up()
                    return
                links, sink = path
                remaining = _remaining()  # probes spend budget too
                continue
            if remaining > 0:
                yield sim.timeout(interval)
        record.finished_at = sim.now

    return sim.process(_send(), name=f"{host.name}-fluid-{record.flow_id}")
