"""ITR cache-miss policies: what happens to packets while a mapping resolves.

These are the behaviours the paper's §1 criticises:

- :class:`DropPolicy` — the draft's default: initial packets are lost.
- :class:`QueuePolicy` — a "debatable feature added to border routers":
  buffer packets until the mapping arrives (bounded buffer).
- :class:`CpDataPolicy` — "the undesirable effect of using the control
  plane to transport data": ship the packet along the mapping-resolution
  path, with its extra latency, so it is not lost but loads the CP.

Each policy marks per-packet fates so experiment E1 can report drops,
queue delays and CP-carried packets.
"""

from repro.sim.state import Checkpointed

#: Packets :class:`QueuePolicy` buffers per (ITR, EID) before dropping.
MAX_QUEUE = 8


class MissPolicyStats(Checkpointed):
    __slots__ = ("dropped", "queue_delays")

    def __init__(self):
        self.dropped = 0
        self.queue_delays = []


class MissPolicy(Checkpointed):
    """What the policies share: the sim and their stats."""

    #: The owning sim checkpoints itself.
    _SNAPSHOT_EXEMPT = ("sim",)

    def __init__(self, sim):
        self.sim = sim
        self.stats = MissPolicyStats()

    def on_resolved(self, xtr, eid, mapping):
        """Nothing buffered, nothing to do."""


class DropPolicy(MissPolicy):
    """Drop packets that miss the cache (draft default)."""

    name = "drop"

    def on_miss(self, xtr, packet, eid):
        self.stats.dropped += 1
        mark_fate(packet, "dropped-at-itr")
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, xtr.node.name, "itr.miss-drop",
                                  eid=str(eid), uid=packet.uid)


class QueuePolicy(MissPolicy):
    """Buffer packets per-EID until the mapping resolves (bounded by
    :data:`MAX_QUEUE`); buffers are kept per xTR node name."""

    name = "queue"

    def __init__(self, sim):
        super().__init__(sim)
        self._buffers = {}

    def on_miss(self, xtr, packet, eid):
        buffers = self._buffers.setdefault(xtr.node.name, {})
        buffer = buffers.setdefault(eid._value, [])
        if len(buffer) >= MAX_QUEUE:
            self.stats.dropped += 1
            mark_fate(packet, "dropped-queue-overflow")
            return
        buffer.append((self.sim.now, packet))
        mark_fate(packet, "queued-at-itr")

    def on_resolved(self, xtr, eid, mapping):
        # Flush every buffered EID the new mapping covers (a resolution for
        # one EID serves its whole prefix; pushed mappings pass eid=None).
        buffers = self._buffers.get(xtr.node.name)
        if not buffers:
            return
        prefix = mapping.eid_prefix
        matching = [value for value in buffers if prefix.contains(value)]
        for value in matching:
            for queued_at, packet in buffers.pop(value):
                self.stats.queue_delays.append(self.sim.now - queued_at)
                mark_fate(packet, "flushed-after-queue")
                xtr.encapsulate_and_send(packet, mapping)


class CpDataPolicy(MissPolicy):
    """Carry missing-mapping packets over the control plane.

    The packet is handed to the mapping system's data-forwarding path,
    which delivers it to the destination site with the control plane's
    latency (and is accounted as control-plane load).
    """

    name = "cp-data"

    def on_miss(self, xtr, packet, eid):
        carried = xtr.mapping_system is not None and \
            xtr.mapping_system.carry_data(xtr, packet, eid)
        if carried:
            mark_fate(packet, "carried-over-cp")
        else:
            self.stats.dropped += 1
            mark_fate(packet, "dropped-at-itr")


def mark_fate(packet, fate):
    """Append *fate* to the packet's fate list, if it carries one: only a
    flow's first packet does, the list of its ``FlowRecord``."""
    fates = packet.meta.get("fates")
    if fates is not None:
        fates.append(fate)
