"""ITR cache-miss policies: what happens to packets while a mapping resolves.

These are the behaviours the paper's §1 criticises:

- :class:`DropPolicy` — the draft's default: initial packets are lost.
- :class:`QueuePolicy` — a "debatable feature added to border routers":
  buffer packets until the mapping arrives (bounded buffer).
- :class:`CpDataPolicy` — "the undesirable effect of using the control
  plane to transport data": ship the packet along the mapping-resolution
  path, with its extra latency, so it is not lost but loads the CP.

Each policy records per-packet fates so experiment E1 can report drops,
queue delays and CP-carried bytes.
"""

#: Packets :class:`QueuePolicy` buffers per (ITR, EID) before dropping.
MAX_QUEUE = 8


class MissPolicyStats:
    __slots__ = ("dropped", "queued", "flushed", "queue_overflow", "cp_carried",
                 "cp_bytes", "queue_delays")

    def __init__(self):
        self.dropped = 0
        self.queued = 0
        self.flushed = 0
        self.queue_overflow = 0
        self.cp_carried = 0
        self.cp_bytes = 0
        self.queue_delays = []

    def snapshot_state(self):
        return (self.dropped, self.queued, self.flushed, self.queue_overflow,
                self.cp_carried, self.cp_bytes, list(self.queue_delays))

    def restore_state(self, state):
        (self.dropped, self.queued, self.flushed, self.queue_overflow,
         self.cp_carried, self.cp_bytes, delays) = state
        self.queue_delays = list(delays)


class DropPolicy:
    """Drop packets that miss the cache (draft default)."""

    name = "drop"

    #: The owning sim checkpoints itself.
    _SNAPSHOT_EXEMPT = ("sim",)

    def __init__(self, sim):
        self.sim = sim
        self.stats = MissPolicyStats()

    def on_miss(self, xtr, packet, eid):
        self.stats.dropped += 1
        mark_fate(packet, "dropped-at-itr")
        self.sim.trace.record(self.sim.now, xtr.node.name, "itr.miss-drop",
                              eid=str(eid), uid=packet.uid)

    def on_resolved(self, xtr, eid, mapping):
        """Nothing buffered, nothing to do."""

    def snapshot_state(self):
        return self.stats.snapshot_state()

    def restore_state(self, state):
        self.stats.restore_state(state)


class QueuePolicy:
    """Buffer packets per-EID until the mapping resolves (bounded by
    :data:`MAX_QUEUE`)."""

    name = "queue"

    #: The owning sim checkpoints itself.
    _SNAPSHOT_EXEMPT = ("sim",)

    def __init__(self, sim):
        self.sim = sim
        self.stats = MissPolicyStats()
        self._buffers = {}

    def on_miss(self, xtr, packet, eid):
        buffer = self._buffers.setdefault((xtr.node.name, int(eid)), [])
        if len(buffer) >= MAX_QUEUE:
            self.stats.queue_overflow += 1
            self.stats.dropped += 1
            mark_fate(packet, "dropped-queue-overflow")
            return
        buffer.append((self.sim.now, packet))
        self.stats.queued += 1
        mark_fate(packet, "queued-at-itr")

    def on_resolved(self, xtr, eid, mapping):
        # Flush every buffered EID the new mapping covers (a resolution for
        # one EID serves its whole prefix; pushed mappings pass eid=None).
        matching = [key for key in self._buffers
                    if key[0] == xtr.node.name and mapping.eid_prefix.contains(key[1])]
        for key in matching:
            for queued_at, packet in self._buffers.pop(key):
                self.stats.flushed += 1
                self.stats.queue_delays.append(self.sim.now - queued_at)
                mark_fate(packet, "flushed-after-queue")
                xtr.encapsulate_and_send(packet, mapping)

    def snapshot_state(self):
        return self.stats.snapshot_state()

    def restore_state(self, state):
        self.stats.restore_state(state)
        self._buffers.clear()


class CpDataPolicy:
    """Carry missing-mapping packets over the control plane.

    The packet is handed to the mapping system's data-forwarding path,
    which delivers it to the destination site with the control plane's
    latency (and is accounted as control-plane load).
    """

    name = "cp-data"

    #: The owning sim checkpoints itself.
    _SNAPSHOT_EXEMPT = ("sim",)

    def __init__(self, sim):
        self.sim = sim
        self.stats = MissPolicyStats()

    def on_miss(self, xtr, packet, eid):
        carried = xtr.mapping_system is not None and \
            xtr.mapping_system.carry_data(xtr, packet, eid)
        if carried:
            self.stats.cp_carried += 1
            self.stats.cp_bytes += packet.size_bytes
            mark_fate(packet, "carried-over-cp")
        else:
            self.stats.dropped += 1
            mark_fate(packet, "dropped-at-itr")

    def on_resolved(self, xtr, eid, mapping):
        """Packets already forwarded over the CP; nothing buffered."""

    def snapshot_state(self):
        return self.stats.snapshot_state()

    def restore_state(self, state):
        self.stats.restore_state(state)


def mark_fate(packet, fate):
    """Annotate the packet's fate for workload-level accounting."""
    packet.meta.setdefault("fates", []).append(fate)
    sink = packet.meta.get("fate_sink")
    if sink is not None:
        sink(packet, fate)
