"""SNAP03 fixture: journaled classes that do, and do not, touch first."""


class TouchesFirst:
    """Every write follows a touch, a pragma or an exemption."""

    _SNAPSHOT_EXEMPT = ("sim", "label")

    def __init__(self, sim):
        self.sim = sim
        self.label = "fine"
        self.count = 0
        self.seen = []

    def bump(self):
        self._touch()
        self.count += 1

    def receive(self, packet):
        if self._journal is not None:
            self._touch()
        self.seen.append(packet)
        self._deliver(packet)

    def _deliver(self, packet):
        self.count += len(packet)  # repro: allow=SNAP03  (receive() touched)

    def rename(self, label):
        self.label = label

    def restore_state(self, state):
        self.count, self.seen = state


class ForgetsToTouch:
    """Writes first and touches later, or never."""

    def __init__(self):
        self.count = 0
        self.seen = []
        self.table = {}

    def bump(self):
        self.count += 1
        self._touch()

    def remember(self, packet):
        self.seen.append(packet)

    def file_under(self, key, packet):
        if packet:
            self.table[key] = packet

    def forget(self, key):
        del self.table[key]
