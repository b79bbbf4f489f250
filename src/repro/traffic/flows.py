"""Flow-level traffic machinery: a minimal TCP model and UDP sinks.

The TCP model covers exactly what the paper's latency formulas need: the
three-way handshake (SYN, SYN+ACK, ACK), with retransmission of lost SYNs
after a retransmission timeout.  A SYN lost at an ITR during mapping
resolution therefore costs a full RTO — the mechanism behind the paper's
connection-setup comparison (§1).

Bulk flows ride the fluid tier: after one real path-discovery packet a
flow joins its world's :class:`FluidPump`, which advances every active
flow in one engine event per chunk interval (see the fluid-chunk contract
in ``docs/contracts.md``).
"""

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

from repro.net.addresses import IPv4Address
from repro.net.packet import PROTO_TCP, TCP_ACK, TCP_SYN, tcp_packet, udp_packet
from repro.sim import Event
from repro.sim.state import Checkpointed, Journaled
from repro.traffic.popularity import HEADER_BYTES

#: Classic initial TCP retransmission timeout (RFC 1122 era: 1 second was
#: common in 2008-vintage stacks; RFC 6298 later said 1 s as well).
DEFAULT_RTO = 1.0
#: SYNs a connect re-sends before giving up (the RTO doubles each time).
MAX_SYN_RETRIES = 5
#: The first flow id of every world.
FIRST_FLOW_ID = 1

#: Extra path-discovery packets a fluid sender may spend (beyond the first)
#: before declaring the flow failed, and again whenever a whole chunk is
#: lost and the path must be re-learned.
FLUID_PROBE_RETRIES = 2


class FlowIdAllocator(Checkpointed):
    """Per-world flow-id sequence.

    Flow ids used to come from a module-level counter, which made them
    depend on how many worlds a worker process had already built — a fresh
    and a restored world would label the same flows differently.  The
    allocator is world state: built with the scenario, handed out through
    :meth:`allocate`, and checkpointed with the rest of the traffic layer
    so fresh and restored worlds assign identical ids.
    """

    __slots__ = ("_next",)

    def __init__(self):
        self._next = FIRST_FLOW_ID

    def allocate(self):
        flow_id = self._next
        self._next += 1
        return flow_id


@dataclass(slots=True)
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


class TcpStack(Journaled):
    """Per-host TCP service: listeners answer SYNs, clients track connects."""

    def __init__(self, sim, host):
        self.sim = sim
        self.host = host
        self._listeners = {}
        self._pending = {}
        host.register_protocol(PROTO_TCP, self._on_segment)
        host.register_service("tcp", self)

    def listen(self, port):
        """Accept connections on *port* (responder role)."""
        if self._journal is not None:
            self._touch()
        self._listeners[port] = True

    def _on_segment(self, packet, _node):
        header = packet.tcp
        if header is None:
            return
        if header.is_syn and header.dport in self._listeners:
            reply = tcp_packet(packet.ip.dst, packet.ip.src, header.dport, header.sport,
                               flags=TCP_SYN | TCP_ACK, seq=0, ack=header.seq + 1)
            self.host.send(reply)
            return
        if header.is_synack:
            # connect touched the journal before the handshake registered.
            handshake = self._pending.pop(header.dport, None)  # repro: allow=SNAP03
            if handshake is not None:
                handshake.answer()

    def connect(self, destination, dport):
        """Three-way handshake: an event for (elapsed, syn_retries) or None."""
        if self._journal is not None:
            self._touch()
        return _Handshake(self, destination, self.host.ephemeral_port(), dport)

    #: Owning sim and host are independently checkpointed.
    _SNAPSHOT_EXEMPT = ("sim", "host")


class _Handshake(Event):
    """A connect in flight: one SYN per attempt, the RTO doubling each time.

    The stack's ``_pending`` maps the source port to the handshake while a
    SYN is unanswered.  The SYN+ACK handler pops it and calls
    :meth:`answer`, which sends the ACK and succeeds with ``(elapsed,
    syn_retries)``.  An attempt's deadline finds the handshake answered
    and does nothing, or sends the next SYN, or after ``MAX_SYN_RETRIES +
    1`` unanswered SYNs takes the port out and succeeds with None.
    """

    __slots__ = ("stack", "destination", "sport", "dport", "attempt",
                 "started")

    def __init__(self, stack, destination, sport, dport):
        Event.__init__(self, stack.sim)
        self.stack = stack
        self.destination = destination
        self.sport = sport
        self.dport = dport
        self.attempt = 0
        self.started = stack.sim.now
        stack._pending[sport] = self
        self._syn()

    def _syn(self):
        stack, attempt = self.stack, self.attempt
        stack.host.send(tcp_packet(stack.host.address, self.destination,
                                   self.sport, self.dport, flags=TCP_SYN,
                                   seq=attempt))
        self.sim.call_in(DEFAULT_RTO * (2 ** attempt), self._deadline)

    def answer(self):
        """The SYN+ACK arrived: send the ACK and succeed."""
        stack, attempt = self.stack, self.attempt
        stack.host.send(tcp_packet(stack.host.address, self.destination,
                                   self.sport, self.dport, flags=TCP_ACK,
                                   seq=attempt + 1, ack=1))
        self.succeed((self.sim.now - self.started, attempt))

    def _deadline(self):
        if self._triggered:
            return  # answered: this deadline fires into nothing
        if self.attempt < MAX_SYN_RETRIES:
            self.attempt += 1
            self._syn()
        else:
            del self.stack._pending[self.sport]
            self.succeed(None)


class UdpSink(Journaled):
    """Counts datagrams per flow id on one UDP port.

    Fluid flows deliver almost all of their bytes without datagrams:
    :meth:`credit_fluid` books a tick's surviving wire bytes (``bytes``,
    ``fluid_bytes``) when they reach the destination, while
    ``received``/``by_flow`` keep counting real packets only.  A flow's
    fluid bytes are in its last hop's per-flow link ledger.
    """

    def __init__(self, sim, host, port):
        self.sim = sim
        self.host = host
        self.received = 0
        self.bytes = 0
        self.fluid_bytes = 0
        self.by_flow = defaultdict(int)
        self.arrival_times = []
        host.bind_udp(port, self._on_datagram)

    def _on_datagram(self, packet, _node):
        if self._journal is not None:
            self._touch()
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

    def credit_fluid(self, size):
        """Book *size* fluid wire bytes arriving, whichever flows sent them."""
        if self._journal is not None:
            self._touch()
        self.bytes += size
        self.fluid_bytes += size

    #: Construction-time wiring: sim and host checkpoint themselves.
    _SNAPSHOT_EXEMPT = ("sim", "host")


def send_flow(sim, host, destination, port, record, plan, pump=None):
    """Emit one flow's datagrams on its :class:`FlowPlan` schedule.

    Returns the event that fires when the sender is done.  The first
    packet leaves inside this call; the rest ride ``call_in`` callbacks,
    so a sender is a small object owned by its next pending event.

    The plan's byte budget and pacing kind are written onto *record*
    (``bytes_budget``, ``flow_kind``) and every handed-off datagram
    advances ``bytes_sent``, so flow-level byte accounting lines up with
    the per-link accounting in :mod:`repro.net.link`.  A zero-spacing plan
    (a shaped mouse) sends its whole burst back-to-back within one event;
    positive spacing waits between packets exactly like the historical
    constant-spacing sender.

    The first packet's fate list ends up in ``record.first_packet_fates``
    so experiment E1 can classify it (dropped / queued / carried over CP /
    encapsulated immediately).

    A ``fluid`` plan dispatches to the chunked sender instead: the first
    packet(s) double as path discovery, then the bulk advances as
    rate x interval chunks that *pump* — the world's
    :class:`FluidPump`, ``scenario.fluid_pump`` — posts straight to the
    discovered links.  Without one (a bare simulator and two hosts) the
    flow gets a pump of its own: same ticks, nobody to share a booking
    with.
    """
    record.bytes_budget = plan.byte_budget
    record.flow_kind = plan.kind
    if plan.kind == "fluid":
        sender = _FluidSender(sim, host, destination, port, record, plan,
                              pump if pump is not None else FluidPump(sim))
    else:
        sender = _PacketSender(sim, host, destination, port, record, plan)
    sender.send()
    return sender.done


class _PacketSender:
    """A packet-level flow in its data phase: one ``call_in`` per gap."""

    __slots__ = ("sim", "host", "destination", "port", "record", "plan",
                 "done", "index")

    def __init__(self, sim, host, destination, port, record, plan):
        self.sim = sim
        self.host = host
        self.destination = destination
        self.port = port
        self.record = record
        self.plan = plan
        self.done = sim.event()
        self.index = 0

    def _emit(self, meta):
        """Hand the flow's next datagram, described by *meta*, to the host."""
        record = self.record
        payload = self.plan.payload_bytes
        if record.packets_sent == 0:
            meta["fates"] = record.first_packet_fates
        packet = udp_packet(self.host.address, self.destination, 5000,
                            self.port, payload_bytes=payload, meta=meta)
        record.packets_sent += 1
        record.bytes_sent += payload
        self.host.send(packet)

    def send(self):
        """Send until a spacing gap is due; the last packet ends the flow."""
        plan = self.plan
        flow_id = self.record.flow_id
        for index in range(self.index, plan.packets):
            self._emit({"flow_id": flow_id, "index": index})
            if index < plan.packets - 1 and plan.spacing > 0.0:
                self.index = index + 1
                self.sim.call_in(plan.spacing, self.send)
                return
        self._finish()

    def _finish(self):
        self.record.finished_at = self.sim.now
        self.done.succeed()


class _FluidSender(_PacketSender):
    """A fluid flow in its data phase: discover the path, then ride the pump.

    The first packet is a normal datagram that carries a ``fluid_probe``
    marker: every link that delivers it appends itself and the wire size
    it saw, and the destination :class:`UdpSink` stamps itself in on
    arrival — so one event-exact traversal discovers the packet path and
    each hop's encapsulation (E1's first-packet fate classification rides
    it unchanged).  One chunk interval later the sender looks at the
    marker.  Answered, the remaining budget advances without per-packet
    or per-flow events: the flow joins *pump* and the sender hangs on the
    returned event until the pump has spent the budget, or a whole chunk
    of the flow died mid-path.  The latter triggers re-discovery (the path
    may have failed over) and a fresh join; when probing exhausts its
    retries with budget still unsent the flow is marked failed.

    Every probe spends one packet of the flow's own budget, so
    ``bytes_sent`` can never exceed ``bytes_budget``; a completed flow has
    spent its budget exactly.
    """

    __slots__ = ("pump", "probes_left", "probe")

    def __init__(self, sim, host, destination, port, record, plan, pump):
        _PacketSender.__init__(self, sim, host, destination, port, record, plan)
        self.pump = pump
        self.probes_left = 1 + FLUID_PROBE_RETRIES
        self.probe = None

    def _remaining(self):
        record = self.record
        return (record.bytes_budget - record.bytes_sent) // self.plan.payload_bytes

    def send(self):
        """Send one discovery packet and look at it an interval later."""
        if self.probes_left <= 0 or self._remaining() <= 0:
            self._finish()
            return
        self.probes_left -= 1
        record = self.record
        probe = self.probe = {"links": [], "sink": None}
        self._emit({"flow_id": record.flow_id, "index": record.packets_sent,
                    "fluid_probe": probe})
        self.sim.call_in(self.plan.chunk_interval, self._probed)

    def _probed(self):
        probe, self.probe = self.probe, None    # the pump keeps what it needs
        sink = probe["sink"]
        if sink is None:
            self.send()
            return
        remaining = self._remaining()
        if remaining <= 0:
            self._finish()
            return
        joined = self.pump.join(self.record, self.plan, remaining,
                                tuple(probe["links"]), sink)
        joined.callbacks.append(self._pumped)

    def _pumped(self, joined):
        if joined.value:
            self._finish()
            return
        # The flow's whole chunk died mid-path: re-learn the route (probes
        # spend budget too, hence the re-read of what remains).
        self.probes_left = FLUID_PROBE_RETRIES
        self.send()

    def _finish(self):
        record = self.record
        if record.bytes_sent < record.bytes_budget:
            record.failed = True
        _PacketSender._finish(self)


def _split_pro_rata(offers, granted, total):
    """Integral shares of *granted* bytes, proportional to *offers*.

    Largest-remainder apportionment: every flow gets the floor of its
    exact share ``offer * granted / total`` and the bytes left over go,
    one each, to the largest fractional parts (earlier flows first on a
    tie).  Shares sum to *granted* exactly, none exceeds its offer, and
    equal offers differ by at most one byte.
    """
    shares = [offer * granted // total for offer in offers]
    left = granted - sum(shares)  # repro: allow=DET03  (bytes: ints)
    if left:
        by_remainder = sorted(
            range(len(offers)),
            key=lambda index: (-(offers[index] * granted % total), index))
        for index in by_remainder[:left]:
            shares[index] += 1
    return shares


def _book_full_grant(flow_id, packets, hops):
    """Write *packets* that every one of *hops* granted in full into each
    hop's account for *flow_id*: ``packets x`` the hop's size, offered and
    delivered."""
    for link, size in hops:
        account = link.stats.flows[flow_id]
        account.offered += packets * size
        account.delivered += packets * size


class _PumpedFlow:
    """One flow's place in the pump: what is left and whom to wake.

    Counted lazily: ``remaining``, ``pending`` and the record's
    ``bytes_sent``/``chunks_sent`` are as of its group's tick ``written``.
    Every later tick of the group granted it in full (a short grant
    writes every flow), so the flow sent one chunk on each, and tick
    ``last`` sends what is left of its budget (see
    :meth:`_PathGroup.catch_up`).  ``pending`` counts the packets of
    full-grant ticks up to ``written`` that its per-flow accounts do not
    show yet (see :meth:`_PathGroup.settle`).
    """

    __slots__ = ("record", "payload", "chunk", "remaining", "pending", "done",
                 "written", "last")

    def __init__(self, record, plan, remaining, done, tick):
        self.record = record
        self.payload = plan.payload_bytes
        self.chunk = plan.chunk_packets
        self.remaining = remaining
        self.pending = 0
        self.done = done
        self.written = tick
        self.last = tick - (-remaining // self.chunk)

    def sent_by(self, tick):
        """Packets sent on the full-grant ticks after ``written`` up to *tick*."""
        sent = (tick - self.written) * self.chunk
        return sent if sent < self.remaining else self.remaining


class _PathGroup:
    """Every pumped flow that shares one hop list, wire size and sink.

    Flows are counted, not visited: ``packets`` is the sum of the active
    flows' chunks and ``ends`` maps a tick to the flows whose budget runs
    out on it (in join order), so a tick that grants the group in full
    knows its packets from the flows that leave on it and writes nothing
    for the others (see :class:`_PumpedFlow`).
    """

    __slots__ = ("hops", "sink", "last_size", "rateless", "flows", "packets",
                 "tick", "ends")

    def __init__(self, wire, hops, sink):
        self.hops = hops
        self.sink = sink
        #: Wire size of a packet as it reaches the sink (*wire*, the
        #: un-encapsulated size, when the sink is on the sender's host).
        self.last_size = hops[-1][1] if hops else wire
        #: Every hop rate-less: the group is granted in full while all are up.
        self.rateless = all(link.rate_bps is None for link, _size in hops)
        #: The active flows in join order (a dict, so one leaves in O(1)).
        self.flows = {}
        self.packets = 0
        #: Ticks this group has advanced.
        self.tick = 0
        self.ends = {}

    def add(self, record, plan, remaining, done):
        """Count a flow in from the next tick on."""
        flow = _PumpedFlow(record, plan, remaining, done, self.tick)
        self.flows[flow] = None
        self.packets += flow.chunk
        self.ends.setdefault(flow.last, []).append(flow)

    def start(self):
        """Count one more tick: its packets and the flows whose budget it spends."""
        tick = self.tick = self.tick + 1
        ending = self.ends.pop(tick, ())
        packets = self.packets
        for flow in ending:     # each sends its chunk short by this much
            packets -= (tick - flow.written) * flow.chunk - flow.remaining
        return packets, ending

    def advance(self, packets, ending, interval):
        """Book this tick's *packets* hop by hop, once per hop for the group.

        Each flow offers ``packets x wire size`` of the hop (tunnel
        headers included where the probe saw them).  While every hop
        grants the whole booking the tick stays counted: the sink is
        credited once and only the flows in *ending* are written, as they
        leave.  From the first hop that grants less, the tick goes per
        flow: it catches every flow up to the tick before, writes the
        full-grant hops before that hop into the per-flow accounts, splits
        each grant pro rata and carries the survivors to the next hop in
        proportion.  Per-flow accounts are written only on hops the
        group's ``post_fluid`` has moved ``bytes_offered`` on.
        """
        hops = self.hops
        for index, (link, size) in enumerate(hops):
            total = packets * size
            granted = link.post_fluid(total, None, interval)
            if granted != total:
                self._split(index, granted, total, interval)
                return
        self.sink.credit_fluid(packets * self.last_size)
        self.leave(ending)

    def _split(self, index, granted, total, interval):
        """The rest of a tick that hop *index* granted *granted* of *total*."""
        tick = self.tick
        flows = list(self.flows)
        for flow in flows:
            self.catch_up(flow, tick - 1)
        counts = [flow.chunk if flow.chunk < flow.remaining
                  else flow.remaining for flow in flows]
        ids = [flow.record.flow_id for flow in flows]
        hops = self.hops
        for flow_id, count in zip(ids, counts, strict=True):
            _book_full_grant(flow_id, count, hops[:index])
        link, size = hops[index]
        offers = [count * size for count in counts]
        while True:
            ledger = link.stats.flows
            if granted == total:
                carried = offers
                for flow_id, offer in zip(ids, offers, strict=True):
                    account = ledger[flow_id]
                    account.offered += offer
                    account.delivered += offer
            else:
                carried = _split_pro_rata(offers, granted, total)
                for flow_id, offer, share in zip(ids, offers, carried,
                                                  strict=True):
                    account = ledger[flow_id]
                    account.offered += offer
                    account.delivered += share
                    account.dropped += offer - share
            index += 1
            if index == len(hops):
                break
            carried_size = size
            link, size = hops[index]
            offers = (carried if size == carried_size
                      else [bytes_ * size // carried_size for bytes_ in carried])
            total = sum(offers)  # repro: allow=DET03  (bytes: ints)
            if not total:
                carried = offers
                break   # nothing survives to here: never post a zero chunk
            granted = link.post_fluid(total, None, interval)

        if arrived_total := sum(carried):  # repro: allow=DET03  (bytes: ints)
            self.sink.credit_fluid(arrived_total)
        leaving = []
        for flow, count, arrived in zip(flows, counts, carried, strict=True):
            record = flow.record
            record.bytes_sent += count * flow.payload
            record.chunks_sent += 1
            flow.remaining -= count
            flow.written = tick
            if not flow.remaining or not arrived:
                # Leaving: done (True) or its whole chunk died (False).
                leaving.append(flow)
        self.leave(leaving)

    def leave(self, flows):
        """Take *flows* out in join order: settle each, then wake it."""
        for flow in flows:
            self.settle(flow)
            del self.flows[flow]
            self.packets -= flow.chunk
            if flow.remaining:      # left early: it ends no tick any more
                ending = self.ends[flow.last]
                ending.remove(flow)
                if not ending:
                    del self.ends[flow.last]
            flow.done.succeed(not flow.remaining)

    def catch_up(self, flow, tick):
        """Write *flow* and its record up to *tick*.

        Every tick after ``flow.written`` up to *tick* granted the group
        in full, so each sent one chunk of the flow (its budget's last
        packets on tick ``flow.last``) and added it to ``pending``.
        """
        ticks = tick - flow.written
        if ticks:
            sent = flow.sent_by(tick)
            flow.written = tick
            flow.remaining -= sent
            flow.pending += sent
            record = flow.record
            record.bytes_sent += sent * flow.payload
            record.chunks_sent += ticks

    def lag(self, flow):
        """Packets of *flow* that its per-flow accounts do not show yet."""
        return flow.pending + flow.sent_by(self.tick)

    def settle(self, flow):
        """Write *flow* up to this tick, its per-flow accounts included.

        Each hop's account gets the flow's :meth:`lag` ``x`` that hop's
        size, offered and delivered: what every full-grant tick since the
        last settle would have written.  Every hop was booked by those
        ticks, so the write follows a ``post_fluid`` on it.
        """
        packets = self.lag(flow)
        if packets:
            self.catch_up(flow, self.tick)
            flow.pending = 0
            _book_full_grant(flow.record.flow_id, packets, self.hops)


class FluidPump(Checkpointed):
    """Advances every fluid flow of one world, one tick per chunk interval.

    A fluid flow that knows its path calls :meth:`join` and sleeps.
    While any flow is active the pump keeps one tick queued per chunk
    interval — the first at the first multiple of the interval at
    or after the join that armed it, then one every interval; each tick
    posts one chunk for every active flow.  Flows that share hop list,
    wire size and sink form a *path group*, counted rather than visited
    (see :class:`_PathGroup`).  A group whose hops are all rate-less and
    up is granted in full, so the tick sums such groups' bytes per link
    and calls ``post_fluid`` once per link; any other group books each of
    its hops once, in the order the groups formed (see
    :meth:`_PathGroup.advance`), because there the order decides the
    grant.  Link totals, windows, busy time and sink totals are exact
    after every tick.  A flow still in the pump lags: its record's
    ``bytes_sent``/``chunks_sent`` and its per-flow breakdown (each hop's
    ``FlowAccount``) are written when it leaves, when a tick cuts its
    group short, and for every active flow by :meth:`settle`, which
    readers call first.

    Because the tick is an ordinary queued event, ``sim.run()`` with no
    ``until`` drains active fluid flows like any other pending work, and
    an idle pump (no flows, nothing armed) leaves a world settled.  That
    is also its whole checkpoint: a world is captured settled (the engine
    refuses otherwise), so the captured lanes are empty, and a restore
    empties them — the armed tick dies with the engine queue the
    simulator's own restore clears, and the flows' lazy counts with the
    lanes.
    """

    def __init__(self, sim):
        self.sim = sim
        #: chunk interval -> {(wire, hops, sink): _PathGroup}; an interval
        #: is present exactly while its next tick is pending.
        self._lanes = {}

    def join(self, record, plan, remaining, hops, sink):
        """Pump *remaining* packets of *record*'s budget along *hops*.

        *hops* is the probe's ``(link, wire size)`` tuple and *sink* the
        :class:`UdpSink` it reached.  The first chunk goes out at the next
        tick of ``plan.chunk_interval``'s grid (now, if now is one), then
        one per tick.  Returns the event that wakes the flow: ``True``
        once the budget is spent, ``False`` when a whole chunk of this
        flow died and the path must be re-learned.
        """
        interval = plan.chunk_interval
        lane = self._lanes.get(interval)
        if lane is None:
            lane = self._lanes[interval] = {}
            now = self.sim.now
            first_tick = math.ceil(now / interval) * interval
            self.sim.call_in(max(first_tick - now, 0.0), self._tick, interval)
        key = (plan.payload_bytes + HEADER_BYTES, hops, sink)
        group = lane.get(key)
        if group is None:
            group = lane[key] = _PathGroup(*key)
        done = self.sim.event()
        group.add(record, plan, remaining, done)
        return done

    def _tick(self, interval):
        """Advance every group of *interval*'s lane by one chunk.

        Rate-less, up groups are summed per link and per sink, posted once
        each; then, in formation order, every other group books its hops
        and the flows that leave are settled and woken.  The sums go first
        so that a leaver's per-flow writes follow its links' bookings.
        """
        lane = self._lanes[interval]
        booked = {}     # link -> bytes of this tick's full-grant groups
        credits = {}    # sink -> bytes
        visits = []     # (key, group, packets, ending, summed), lane order
        for key, group in lane.items():
            packets, ending = group.start()
            hops = group.hops
            if group.rateless:
                for link, _size in hops:
                    if not link.up:
                        break
                else:
                    for link, size in hops:
                        booked[link] = booked.get(link, 0) + packets * size
                    sink = group.sink
                    credits[sink] = (credits.get(sink, 0)
                                     + packets * group.last_size)
                    if ending:
                        visits.append((key, group, packets, ending, True))
                    continue
            visits.append((key, group, packets, ending, False))
        for link, size in booked.items():
            link.post_fluid(size, None, interval)
        for sink, size in credits.items():
            sink.credit_fluid(size)
        for key, group, packets, ending, summed in visits:
            if summed:
                group.leave(ending)
            else:
                group.advance(packets, ending, interval)
            if not group.flows:
                del lane[key]
        if lane:
            # Re-arm from behind the wake-ups this tick scheduled: a flow
            # that left to re-probe sends its probe first, so its wait —
            # one interval, like the tick's — ends ahead of the next tick
            # and an answered probe costs the flow no extra interval.
            self.sim.call_in(0.0, self.sim.call_in,
                             interval, self._tick, interval)
        else:
            del self._lanes[interval]

    def settle(self):
        """Bring every active flow's record and per-flow accounts up to date."""
        for lane in self._lanes.values():
            for group in lane.values():
                for flow in group.flows:
                    group.settle(flow)

    #: The owning sim checkpoints itself (and with it the armed ticks).
    _SNAPSHOT_EXEMPT = ("sim",)
