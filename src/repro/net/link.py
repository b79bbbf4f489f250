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
fixed-width utilization windows (:attr:`LinkStats.windows`), the per-link
load signal behind E4's utilization report.

A world holds many links and a run crosses few of them, so a link starts on
the shared, read-only :data:`IDLE_STATS` and gets a ledger of its own from
the first byte offered to it.

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
from types import MappingProxyType

from repro.sim.state import Journaled

#: Packets a rated link queues behind the one being serialised; the next
#: is tail-dropped.
QUEUE_CAPACITY = 1000
#: Width in simulated seconds of the utilization windows every link buckets
#: its transmitter busy time and offered bytes into.
WINDOW_WIDTH = 1.0

def _empty_window():
    """Fresh utilization-window cell: ``[busy_seconds, bytes]``."""
    return [0.0, 0]


class FlowAccount:
    """Byte counters for one flow on one link."""

    __slots__ = ("offered", "delivered", "dropped")

    def __init__(self):
        self.offered = 0
        self.delivered = 0
        self.dropped = 0

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
    in :attr:`windows` as ``index -> [busy_seconds, bytes]``: the link's
    busy time and transmitted bytes are the windows' sums.
    """

    __slots__ = ("fluid_bytes", "bytes_offered", "bytes_delivered",
                 "bytes_dropped", "flows", "windows")

    def __init__(self):
        #: Transmitted bytes that crossed the link as fluid chunks.
        self.fluid_bytes = 0
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
        window = windows[index]
        window[1] += size
        if tx_time <= (index + 1) * width - start:
            # Inside one window: the whole of it is the first and only slice.
            if tx_time > 0.0:
                window[0] += tx_time
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
        Granted bytes accrue window busy time and volume and
        ``fluid_bytes`` exactly as packet serialisation would; the
        shortfall is returned to the caller to record as dropped.

        Capacity sharing with packet traffic is window-granular: a window
        looks full to a chunk once its busy seconds reach the window
        width, regardless of *where* inside the window those seconds fall.

        Returns the number of bytes granted (``<= size``).
        """
        windows = self.windows
        width = WINDOW_WIDTH
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
                    self.fluid_bytes += grant
                    remaining -= grant
            position = boundary
            index += 1
        return size - remaining

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
        return (self.fluid_bytes, self.bytes_offered,
                self.bytes_delivered, self.bytes_dropped,
                {flow_id: account.as_tuple()
                 for flow_id, account in self.flows.items()},
                {index: (busy, volume)
                 for index, (busy, volume) in self.windows.items()})

    def restore_state(self, state):
        (self.fluid_bytes, self.bytes_offered, self.bytes_delivered,
         self.bytes_dropped, flows, windows) = state
        self.flows = defaultdict(FlowAccount)
        for flow_id, counts in flows.items():
            account = self.flows[flow_id]
            account.offered, account.delivered, account.dropped = counts
        self.windows = defaultdict(_empty_window,
                                   {index: [busy, volume]
                                    for index, (busy, volume) in windows.items()})


#: The ledger of every link nothing has crossed since the world was built
#: or last restored: all zeros, with read-only empty ``flows`` and
#: ``windows``.  Shared by every idle link of every world; the two stamp
#: writers, :meth:`Link.send` and :meth:`Link.post_fluid`, swap in a link's
#: own :class:`LinkStats` before their first write, so nothing ever writes
#: here.
IDLE_STATS = LinkStats()
IDLE_STATS.flows = IDLE_STATS.windows = MappingProxyType({})


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

    ``stats`` is :data:`IDLE_STATS` until the first byte is offered.
    """

    __slots__ = ("sim", "src_interface", "dst_interface", "delay", "rate_bps",
                 "stats", "_queue", "_busy", "_up", "_journal")

    def __init__(self, sim, src_interface, dst_interface, delay=0.001, rate_bps=None):
        if delay < 0:
            raise ValueError(f"negative link delay {delay}")
        self.sim = sim
        self.src_interface = src_interface
        self.dst_interface = dst_interface
        self.delay = delay
        self.rate_bps = rate_bps
        self.stats = IDLE_STATS
        # A rate-less link never queues, so only a rated one has a queue.
        self._queue = deque() if rate_bps is not None else None
        self._busy = False
        self._up = True
        self._journal = None

    @property
    def name(self):
        """``<src interface>-><dst interface>``: drop traces and errors."""
        return f"{self.src_interface}->{self.dst_interface}"

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
        """Accept *packet* for transmission; returns False on a drop."""
        if self._journal is not None:
            self._touch()
        size, flow_id, _probe = packet._hop    # sealed at construction
        stats = self.stats
        if stats is IDLE_STATS:
            stats = self.stats = LinkStats()
        stats.bytes_offered += size
        if flow_id is not None:
            stats.flows[flow_id].offered += size
        if not self._up:
            self._drop(size, flow_id)
            # The link itself as source: its name is derived only if traced.
            self.sim.trace.record(self.sim.now, self, "link.drop", reason="down",
                                  uid=packet.uid)
            return False
        if self.rate_bps is None:
            # Zero serialisation time: nothing to wait behind, so book the
            # transmission (volume only, no busy seconds) and let
            # propagation start now.
            stats.windows[int(self.sim.now / WINDOW_WIDTH)][1] += size
            self.sim.call_in(self.delay, self._deliver, packet)
            return True
        if not self._busy:
            self._transmit(packet, size)
            return True
        queue = self._queue
        if len(queue) >= QUEUE_CAPACITY:
            self._drop(size, flow_id)
            self.sim.trace.record(self.sim.now, self, "link.drop", reason="queue-full",
                                  uid=packet.uid)
            return False
        queue.append(packet)
        return True

    def _drop(self, size, flow_id):
        stats = self.stats
        stats.bytes_dropped += size
        if flow_id is not None:
            stats.flows[flow_id].dropped += size

    def _transmit(self, packet, size):
        # Rated links only: send() delivers straight from a rate-less one.
        self._busy = True  # repro: allow=SNAP03  (send() touched)
        tx_time = size * 8.0 / self.rate_bps
        self.stats.account_transmission(self.sim.now, tx_time, size)
        self.sim.call_in(tx_time, self._transmission_done, packet)

    def _transmission_done(self, packet):
        # Propagation starts once the last bit is on the wire.
        self.sim.call_in(self.delay, self._deliver, packet)
        if self._queue:
            packet = self._queue.popleft()  # repro: allow=SNAP03  (send() touched)
            self._transmit(packet, packet._hop[0])
        else:
            self._busy = False

    def _deliver(self, packet):
        size, flow_id, probe = packet._hop
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

        The world's :class:`~repro.traffic.flows.FluidPump` books with
        ``flow_id=None`` and writes the per-flow accounts itself.  On a
        rate-less, up link it makes one call per tick with every
        full-grant path group's bytes summed: the grant is everything and
        the window is the tick's, so the sum writes what one call per
        group did.  A group with a rated or down hop calls once per hop
        for the group, in formation order, since there the order decides
        the grant.
        """
        if self._journal is not None:
            self._touch()
        stats = self.stats
        if stats is IDLE_STATS:
            stats = self.stats = LinkStats()
        stats.bytes_offered += size
        if not self._up:
            delivered = 0
        elif self.rate_bps is None:
            # Infinite rate: grant everything, book volume only, as the
            # packet path spends no serialisation time here.
            delivered = size
            stats.windows[int(self.sim.now / WINDOW_WIDTH)][1] += size
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
                        "rate_bps")

    def snapshot_state(self):
        """``(up, busy, ledger)``; the ledger of an idle link is None."""
        stats = self.stats
        return (self._up, self._busy,
                None if stats is IDLE_STATS else stats.snapshot_state())

    def restore_state(self, state):
        self._up, self._busy, stats_state = state
        if self._queue:
            self._queue.clear()
        if stats_state is None:
            self.stats = IDLE_STATS
        else:
            if self.stats is IDLE_STATS:
                self.stats = LinkStats()
            self.stats.restore_state(stats_state)


def connect(sim, iface_a, iface_b, delay=0.001, rate_bps=None):
    """Create a full-duplex connection (two simplex links) between interfaces.

    Returns the (a->b, b->a) link pair and attaches each link to the sending
    interface.
    """
    iface_a.link = forward = Link(sim, iface_a, iface_b, delay=delay, rate_bps=rate_bps)
    iface_b.link = backward = Link(sim, iface_b, iface_a, delay=delay, rate_bps=rate_bps)
    return forward, backward
