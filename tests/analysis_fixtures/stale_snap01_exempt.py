"""SNAP01 fixture: an exemption left behind by a deleted attribute."""


class Base:
    def __init__(self, sim):
        self.sim = sim


class Deployment(Base):
    """``dns_system`` is no longer stored; its exemption outlived it."""

    _SNAPSHOT_EXEMPT = ("sim", "topology", "dns_system")

    def __init__(self, sim, topology, dns_system):
        super().__init__(sim)
        self.topology = topology
        self.count = len(dns_system)

    def snapshot_state(self):
        return self.count

    def restore_state(self, state):
        self.count = state
