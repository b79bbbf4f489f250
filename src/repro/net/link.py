"""Point-to-point links with delay, bandwidth and finite FIFO queues.

A :class:`Link` is simplex; :func:`connect` wires two interfaces with a pair
of opposite simplex links (full duplex).  On a rated link, transmission of a
packet occupies the link for ``size * 8 / rate`` seconds; packets arriving
while the transmitter is busy queue up to :data:`QUEUE_CAPACITY` packets, beyond
which they are tail-dropped, and propagation delay is added after
serialisation — two engine events per hop.  A rate-less link
(``rate_bps=None``) never serialises, so it has no transmitter to be busy,
no queue and no tail drop: :meth:`Link.send` books the packet and schedules
its delivery one propagation delay later — one engine event per hop.

Byte accounting
---------------

Every link meters the bytes that cross it: ``bytes_offered`` (presented to
:meth:`Link.send`), ``bytes_delivered`` (handed to the destination node) and
``bytes_dropped`` (tail drops plus down-link losses, whether at admission
or mid-flight).  The difference is :attr:`LinkStats.bytes_in_flight` — bytes
accepted but not yet delivered or dropped — so the conservation invariant

    ``bytes_offered == bytes_delivered + bytes_dropped + bytes_in_flight``

holds at *every* instant, and ``bytes_in_flight == 0`` once the simulation
drains.  Packets that carry a flow id (``meta["flow_id"]`` on the innermost
packet, so LISP encapsulation is transparent) are additionally accounted
per flow in :attr:`LinkStats.flows`, which is what the sweep's
byte-conservation columns and the TE experiments' data-plane load shares
read.  Transmitter busy time and offered bytes are also bucketed into
fixed-width utilization windows (:meth:`LinkStats.utilization_series`), the
per-link load signal behind E4's utilization report.

Fluid chunks
------------

Bulk flows may bypass per-packet events entirely: :meth:`Link.post_fluid`
advances ``rate x interval`` byte chunks through the same ledgers and
utilization windows synchronously (never in flight), sharing transmitter
capacity with packet traffic at window granularity.  The conservation
invariant above is unchanged — see ``docs/contracts.md`` for the
fluid-chunk contract.
"""

from collections import defaultdict, deque

from repro.sim.state import Journaled

#: Packets a rated link queues behind the one being serialised; the next
#: is tail-dropped.
QUEUE_CAPACITY = 1000
#: Width in simulated seconds of the utilization windows every link buckets
#: its transmitter busy time and offered bytes into.
WINDOW_WIDTH = 1.0

def _empty_window():
    """Fresh utilization-window cell (module-level so worlds stay picklable)."""
    return [0.0, 0]


class FlowAccount:
    """Byte counters for one flow on one link."""

    __slots__ = ("offered", "delivered", "dropped")

    def __init__(self, offered=0, delivered=0, dropped=0):
        self.offered = offered
        self.delivered = delivered
        self.dropped = dropped

    @property
    def in_flight(self):
        """Bytes accepted but not yet delivered or dropped (>= 0 always)."""
        return self.offered - self.delivered - self.dropped

    def as_tuple(self):
        return (self.offered, self.delivered, self.dropped)

    def __repr__(self):
        return (f"FlowAccount(offered={self.offered}, "
                f"delivered={self.delivered}, dropped={self.dropped})")


class LinkStats:
    """Counters accumulated by a link over its lifetime.

    Transmitter busy time and offered bytes are bucketed into fixed
    simulated-time windows (index ``int(now / WINDOW_WIDTH)``), kept sparse
    in :attr:`windows` as ``index -> [busy_seconds, bytes]``.
    """

    __slots__ = ("tx_packets", "tx_bytes", "fluid_bytes", "drops", "max_queue",
                 "busy_time", "bytes_offered", "bytes_delivered",
                 "bytes_dropped", "flows", "windows")

    def __init__(self):
        self.tx_packets = 0
        self.tx_bytes = 0
        #: Subset of ``tx_bytes`` that crossed the link as fluid chunks.
        self.fluid_bytes = 0
        self.drops = 0
        self.max_queue = 0
        self.busy_time = 0.0
        self.bytes_offered = 0
        self.bytes_delivered = 0
        self.bytes_dropped = 0
        #: flow id -> :class:`FlowAccount` (packets carrying a flow id only).
        self.flows = defaultdict(FlowAccount)
        #: window index -> [busy_seconds, bytes_offered_to_transmitter].
        self.windows = defaultdict(_empty_window)

    @property
    def bytes_in_flight(self):
        """Bytes accepted by the link but not yet delivered or dropped.

        Derived, not maintained: a hole in the delivery/drop accounting
        shows up as a permanently positive residue, which is exactly what
        the byte-conservation invariant tests look for.
        """
        return self.bytes_offered - self.bytes_delivered - self.bytes_dropped

    def utilization(self, elapsed):
        """Fraction of *elapsed* time the transmitter was busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    # ------------------------------------------------------------------ #
    # Byte accounting (the offered/delivered/dropped ledgers are updated
    # inline by Link's packet and fluid paths)
    # ------------------------------------------------------------------ #

    def account_transmission(self, start, tx_time, size):
        """Bucket one transmission into the utilization windows.

        Busy seconds are split exactly across the window boundaries the
        transmission spans; the packet's bytes land in the window where
        serialisation started.
        """
        width = WINDOW_WIDTH
        windows = self.windows
        index = int(start / width)
        windows[index][1] += size
        if tx_time <= 0.0:
            return
        remaining = tx_time
        position = start
        while remaining > 0.0:
            boundary = (index + 1) * width
            slice_time = min(remaining, boundary - position)
            windows[index][0] += slice_time
            remaining -= slice_time
            position = boundary
            index += 1

    def book_fluid(self, start, duration, size, rate_bps):
        """Book *size* fluid bytes over ``[start, start + duration)``.

        The fluid tier's transmitter model: a chunk asks for capacity in
        every utilization window it overlaps, and each window grants at
        most its remaining free transmitter time (window width minus busy
        seconds already booked by packets and earlier fluid chunks).  The
        grant is clipped to the chunk's own dwell time in the window, so a
        chunk can never claim transmitter seconds outside its interval.
        Granted bytes accrue busy time, window volume, ``tx_bytes`` and
        ``fluid_bytes`` exactly as packet serialisation would; the
        shortfall is returned to the caller to record as dropped.

        Capacity sharing with packet traffic is window-granular: a window
        looks full to a chunk once its busy seconds reach the window
        width, regardless of *where* inside the window those seconds fall.

        Returns the number of bytes granted (``<= size``).  Infinite-rate
        links (``rate_bps`` None) grant everything and book volume only,
        matching their zero serialisation time on the packet path.
        """
        windows = self.windows
        width = WINDOW_WIDTH
        if rate_bps is None:
            windows[int(start / width)][1] += size
            self.tx_bytes += size
            self.fluid_bytes += size
            return size
        byte_time = 8.0 / rate_bps
        remaining = size
        position = start
        end = start + duration
        index = int(start / width)
        while remaining > 0 and position < end:
            boundary = (index + 1) * width
            span = min(end, boundary) - position
            window = windows[index]
            free = width - window[0]
            if span < free:
                free = span
            if free > 0.0:
                grant = int(free / byte_time + 1e-9)
                if grant > remaining:
                    grant = remaining
                if grant:
                    busy = grant * byte_time
                    window[0] += busy
                    window[1] += grant
                    self.busy_time += busy
                    self.tx_bytes += grant
                    self.fluid_bytes += grant
                    remaining -= grant
            position = boundary
            index += 1
        return size - remaining

    def utilization_series(self):
        """Sorted ``(window_start, busy_fraction, bytes)`` tuples.

        ``busy_fraction`` is per-window transmitter utilization (0.0 on
        infinite-rate links, whose serialisation time is zero); ``bytes``
        is offered-to-transmitter volume, a load signal that works with or
        without a configured rate.
        """
        width = WINDOW_WIDTH
        return [(index * width, min(1.0, busy / width), volume)
                for index, (busy, volume) in sorted(self.windows.items())]

    def peak_utilization(self):
        """The busiest window's utilization (0.0 when nothing transmitted)."""
        if not self.windows:
            return 0.0
        return min(1.0, max(busy for busy, _volume in self.windows.values())
                   / WINDOW_WIDTH)

    def conservation_violations(self, drained=False):
        """Per-flow (and total) byte-conservation breaches on this link.

        Offered bytes may exceed delivered+dropped only by what is still
        in flight; with ``drained=True`` (the simulation has no pending
        work) nothing may remain in flight at all.  Returns a list of
        ``(flow_id, offered, delivered, dropped)`` tuples, flow id ``None``
        for the link totals.
        """
        violations = []
        floor = 0
        residue = self.bytes_in_flight
        if residue < floor or (drained and residue != 0):
            violations.append((None, self.bytes_offered,
                               self.bytes_delivered, self.bytes_dropped))
        for flow_id, account in self.flows.items():
            residue = account.in_flight
            if residue < floor or (drained and residue != 0):
                violations.append((flow_id, account.offered,
                                   account.delivered, account.dropped))
        return violations

    # ------------------------------------------------------------------ #
    # World-reuse checkpointing
    # ------------------------------------------------------------------ #

    def snapshot_state(self):
        return (self.tx_packets, self.tx_bytes, self.fluid_bytes, self.drops,
                self.max_queue, self.busy_time, self.bytes_offered,
                self.bytes_delivered, self.bytes_dropped,
                {flow_id: account.as_tuple()
                 for flow_id, account in self.flows.items()},
                {index: (busy, volume)
                 for index, (busy, volume) in self.windows.items()})

    def restore_state(self, state):
        (self.tx_packets, self.tx_bytes, self.fluid_bytes, self.drops,
         self.max_queue, self.busy_time, self.bytes_offered,
         self.bytes_delivered, self.bytes_dropped, flows, windows) = state
        self.flows = defaultdict(FlowAccount,
                                 {flow_id: FlowAccount(*counts)
                                  for flow_id, counts in flows.items()})
        self.windows = defaultdict(_empty_window,
                                   {index: [busy, volume]
                                    for index, (busy, volume) in windows.items()})


class Link(Journaled):
    """A simplex link from ``src_interface`` to ``dst_interface``.

    Parameters
    ----------
    sim:
        The simulator.
    delay:
        One-way propagation delay in seconds.
    rate_bps:
        Transmission rate in bits/second; ``None`` means infinite (zero
        serialisation delay), which most control-plane experiments use so
        that latency is dominated by propagation as in the paper's formulas.
        Only a rated link queues (up to :data:`QUEUE_CAPACITY` packets).
    """

    def __init__(self, sim, src_interface, dst_interface, delay=0.001, rate_bps=None,
                 name=None):
        if delay < 0:
            raise ValueError(f"negative link delay {delay}")
        self.sim = sim
        self.src_interface = src_interface
        self.dst_interface = dst_interface
        self.delay = delay
        self.rate_bps = rate_bps
        self.name = name or f"{src_interface}->{dst_interface}"
        self.stats = LinkStats()
        self._queue = deque()
        self._busy = False
        self._up = True

    def __str__(self):
        return self.name

    @property
    def up(self):
        """False while the link is failed: everything offered is dropped."""
        return self._up

    @up.setter
    def up(self, value):
        if self._journal is not None:
            self._touch()
        self._up = value

    def send(self, packet):
        """Accept *packet* for transmission; returns False on a drop.

        The packet's size, flow id and fluid probe are read here, once per
        hop, and travel with it to the scheduled delivery — directly on a
        rate-less link, through the queue and the serialisation-done
        callback on a rated one.
        """
        if self._journal is not None:
            self._touch()
        size = packet.size_bytes
        # Flow id and probe live on the innermost packet, so LISP
        # encapsulation is transparent to the per-flow ledgers.
        meta = packet.innermost().meta
        flow_id = meta.get("flow_id")
        probe = meta.get("fluid_probe")
        stats = self.stats
        stats.bytes_offered += size
        if flow_id is not None:
            stats.flows[flow_id].offered += size
        if not self._up:
            self._drop(size, flow_id)
            self.sim.trace.record(self.sim.now, self.name, "link.drop", reason="down",
                                  uid=packet.uid)
            return False
        if self.rate_bps is None:
            # Zero serialisation time: nothing to wait behind, so book the
            # transmission (volume only, no busy seconds) and let
            # propagation start now.
            stats.tx_packets += 1
            stats.tx_bytes += size
            stats.windows[int(self.sim.now / WINDOW_WIDTH)][1] += size
            self.sim.call_in(self.delay, self._deliver, packet, size, flow_id, probe)
            return True
        if not self._busy:
            self._transmit(packet, size, flow_id, probe)
            return True
        queue = self._queue
        if len(queue) >= QUEUE_CAPACITY:
            self._drop(size, flow_id)
            self.sim.trace.record(self.sim.now, self.name, "link.drop", reason="queue-full",
                                  uid=packet.uid)
            return False
        queue.append((packet, size, flow_id, probe))
        if len(queue) > stats.max_queue:
            stats.max_queue = len(queue)
        return True

    def _drop(self, size, flow_id):
        stats = self.stats
        stats.drops += 1
        stats.bytes_dropped += size
        if flow_id is not None:
            stats.flows[flow_id].dropped += size

    def _transmit(self, packet, size, flow_id, probe):
        # Rated links only: send() delivers straight from a rate-less one.
        self._busy = True  # repro: allow=SNAP03  (send() touched)
        tx_time = size * 8.0 / self.rate_bps
        stats = self.stats
        stats.busy_time += tx_time
        stats.tx_packets += 1
        stats.tx_bytes += size
        stats.account_transmission(self.sim.now, tx_time, size)
        self.sim.call_in(tx_time, self._transmission_done, packet, size, flow_id, probe)

    def _transmission_done(self, packet, size, flow_id, probe):
        # Propagation starts once the last bit is on the wire.
        self.sim.call_in(self.delay, self._deliver, packet, size, flow_id, probe)
        if self._queue:
            self._transmit(*self._queue.popleft())  # repro: allow=SNAP03  (send() touched)
        else:
            self._busy = False

    def _deliver(self, packet, size, flow_id, probe):
        if not self._up:
            self._drop(size, flow_id)
            return
        stats = self.stats
        stats.bytes_delivered += size
        if flow_id is not None:
            stats.flows[flow_id].delivered += size
        if probe is not None:
            # A fluid flow's path-discovery packet: record the traversal and
            # this hop's wire size (tunnel headers included), so the pump
            # can post subsequent chunks to the same links at that size.
            probe["links"].append((self, size))
        self.dst_interface.node.receive(packet)

    def post_fluid(self, size, flow_id, duration):
        """Advance *size* fluid bytes across this link over *duration* seconds.

        The fluid fast path: offered/delivered/dropped ledgers, the flow's
        :class:`FlowAccount`, busy time and utilization windows are all
        updated synchronously — a fluid chunk is never in flight.  Capacity
        is shared with concurrent packet traffic through the utilization
        windows (see :meth:`LinkStats.book_fluid`); whatever the covered
        windows cannot grant, and everything offered while the link is
        down, is recorded as dropped.  Returns the bytes delivered.

        The world's :class:`~repro.traffic.flows.FluidPump` books a whole
        path group's bytes in one call with ``flow_id=None`` and splits
        the result over the group's per-flow accounts itself.
        """
        if self._journal is not None:
            self._touch()
        stats = self.stats
        stats.bytes_offered += size
        if not self._up:
            delivered = 0
        elif self.rate_bps is None:
            # Infinite rate: grant everything, book volume only (inlined
            # from book_fluid — this is the megaflow hot path).
            delivered = size
            stats.windows[int(self.sim.now / WINDOW_WIDTH)][1] += size
            stats.tx_bytes += size
            stats.fluid_bytes += size
        else:
            delivered = stats.book_fluid(self.sim.now, duration, size,
                                         self.rate_bps)
        stats.bytes_delivered += delivered
        stats.bytes_dropped += size - delivered
        if flow_id is not None:
            account = stats.flows[flow_id]
            account.offered += size
            account.delivered += delivered
            account.dropped += size - delivered
        return delivered

    #: Construction-time topology and configuration, immutable after wiring.
    _SNAPSHOT_EXEMPT = ("sim", "src_interface", "dst_interface", "delay",
                        "rate_bps", "name")

    def snapshot_state(self):
        return (self._up, self._busy, self.stats.snapshot_state())

    def restore_state(self, state):
        self._up, self._busy, stats_state = state
        self._queue.clear()
        self.stats.restore_state(stats_state)


def connect(sim, iface_a, iface_b, delay=0.001, rate_bps=None):
    """Create a full-duplex connection (two simplex links) between interfaces.

    Returns the (a->b, b->a) link pair and attaches each link to the sending
    interface.
    """
    forward = Link(sim, iface_a, iface_b, delay=delay, rate_bps=rate_bps,
                   name=f"{iface_a.name}->{iface_b.name}")
    backward = Link(sim, iface_b, iface_a, delay=delay, rate_bps=rate_bps,
                    name=f"{iface_b.name}->{iface_a.name}")
    iface_a.attach_link(forward)
    iface_b.attach_link(backward)
    return forward, backward
