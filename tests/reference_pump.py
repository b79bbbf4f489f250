"""The fluid pump's per-group, per-flow tick, kept as the pump's reference.

``FluidPump`` once ticked like this: every path group booked each of its
hops with its own ``post_fluid`` call, and every flow's record and
pending count were written on every tick.  The pump now sums rate-less,
up groups per link and counts flows lazily; it must leave every link
total, window, per-flow account (key order included, after a settle),
sink total and flow record where this pump does, after every tick.
``tests/test_fluid_pump.py`` runs the two side by side.  Nothing in
``src/`` imports this module.
"""

import math

from repro.traffic.flows import _book_full_grant, _split_pro_rata
from repro.traffic.popularity import HEADER_BYTES


class PumpedFlow:
    """One flow's place in the pump: what is left and whom to wake.

    ``pending`` counts the packets of its full-grant ticks that its
    per-flow accounts do not show yet (see :meth:`PathGroup.settle`).
    """

    __slots__ = ("record", "payload", "chunk", "remaining", "pending", "done")

    def __init__(self, record, plan, remaining, done):
        self.record = record
        self.payload = plan.payload_bytes
        self.chunk = plan.chunk_packets
        self.remaining = remaining
        self.pending = 0
        self.done = done


class PathGroup:
    """Every pumped flow that shares one hop list, wire size and sink."""

    __slots__ = ("hops", "sink", "last_size", "flows")

    def __init__(self, wire, hops, sink):
        self.hops = hops
        self.sink = sink
        #: Wire size of a packet as it reaches the sink (*wire*, the
        #: un-encapsulated size, when the sink is on the sender's host).
        self.last_size = hops[-1][1] if hops else wire
        self.flows = []

    def advance(self, interval):
        """Post one chunk per flow: one booking per hop for the whole group.

        Each flow offers ``packets x wire size`` of the hop (tunnel
        headers included where the probe saw them).  While every hop
        grants the whole booking, a flow's bytes on each hop are exactly
        ``packets x that hop's size``, so the tick only adds the flow's
        packets to its ``pending`` count and credits the sink's totals
        once: its cost does not grow with the path.  From the first hop
        that grants less, the tick goes per flow: it writes the full-grant
        hops before it into the per-flow accounts, splits each grant pro
        rata and carries the survivors to the next hop in proportion.
        Per-flow accounts are written only on hops the group's
        ``post_fluid`` has moved ``bytes_offered`` on.
        """
        flows = self.flows
        counts = [flow.chunk if flow.chunk < flow.remaining
                  else flow.remaining for flow in flows]
        packets = sum(counts)  # repro: allow=DET03  (packets: ints)
        hops = self.hops
        carried = None      # per-flow bytes, from the first hop that lost any
        for index, (link, size) in enumerate(hops):
            if carried is None:
                total = packets * size
            else:
                if size == carried_size:
                    offers = carried
                else:
                    offers = [bytes_ * size // carried_size
                              for bytes_ in carried]
                total = sum(offers)  # repro: allow=DET03  (bytes: ints)
                if not total:
                    carried = offers
                    break   # nothing survives to here: never post a zero chunk
            granted = link.post_fluid(total, None, interval)
            if carried is None:
                if granted == total:
                    continue
                ids = [flow.record.flow_id for flow in flows]
                for flow_id, count in zip(ids, counts, strict=True):
                    _book_full_grant(flow_id, count, hops[:index])
                offers = [count * size for count in counts]
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
            carried_size = size

        sink = self.sink
        full_grant = carried is None
        if full_grant:
            sink.credit_fluid(packets * self.last_size)
            carried = counts        # every flow's chunk arrived
        elif arrived_total := sum(carried):  # repro: allow=DET03  (bytes: ints)
            sink.credit_fluid(arrived_total)
        someone_left = False
        for flow, count, arrived in zip(flows, counts, carried,
                                        strict=True):
            record = flow.record
            record.bytes_sent += count * flow.payload
            record.chunks_sent += 1
            flow.remaining -= count
            if full_grant:
                flow.pending += count
            if not flow.remaining or not arrived:
                # Leaving: done (True) or its whole chunk died (False).
                self.settle(flow)
                flow.done.succeed(not flow.remaining)
                someone_left = True
        if someone_left:
            self.flows = [flow for flow in flows if not flow.done._triggered]

    def settle(self, flow):
        """Write *flow*'s pending packets into its per-flow accounts.

        Each hop's account gets ``pending x that hop's size`` offered and
        delivered: what every full-grant tick since the last settle would
        have written.  Every hop was booked by those ticks, so the write
        follows the group's own ``post_fluid`` on it.
        """
        pending = flow.pending
        if not pending:
            return
        flow.pending = 0
        _book_full_grant(flow.record.flow_id, pending, self.hops)


class ReferencePump:
    """The pump's old tick: every group books every hop, every flow every tick.

    Link totals, windows, busy time, sink totals and flow records are
    exact after every tick; a flow's per-flow accounts lag by its
    ``pending`` packets until it leaves or :meth:`settle` runs.
    """

    def __init__(self, sim):
        self.sim = sim
        #: chunk interval -> {(wire, hops, sink): PathGroup}; an interval
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
            group = lane[key] = PathGroup(*key)
        done = self.sim.event()
        group.flows.append(PumpedFlow(record, plan, remaining, done))
        return done

    def _tick(self, interval):
        lane = self._lanes[interval]
        for key, group in list(lane.items()):
            group.advance(interval)
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
        """Bring the per-flow accounts of every active flow up to date."""
        for lane in self._lanes.values():
            for group in lane.values():
                for flow in group.flows:
                    group.settle(flow)
