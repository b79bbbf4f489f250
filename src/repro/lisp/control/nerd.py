"""NERD: Not-so-novel EID-to-RLOC Database — push the whole database.

draft-lear-lisp-nerd distributes the complete, signed mapping database to
every ITR ahead of time.  Resolution never misses (there is nothing to
resolve), which trades the paper's W1/W2 weaknesses for state that grows
with the total number of EID prefixes on every router, plus full-database
churn on updates — the trade-off experiment E5 quantifies.
"""

from dataclasses import dataclass, field

from repro.lisp.control.base import MappingSystem
from repro.net.addresses import IPv4Address

NERD_PORT = 4346
#: Fixed overhead of a database push message (header + signature).
NERD_HEADER_BYTES = 64
AUTHORITY_ADDRESS = IPv4Address("203.0.113.10")
#: The provider router the database authority attaches to.
AUTHORITY_PROVIDER = 0


@dataclass
class _DatabasePush:
    """A full database transfer."""

    version: int
    mappings: tuple
    #: Wire size, fixed when the push is built (every packet carrying it reads it).
    size_bytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = (mapping.size_bytes for mapping in self.mappings)
        self.size_bytes = NERD_HEADER_BYTES + sum(sizes)  # repro: allow=DET03  (bytes: ints)


class NerdMappingSystem(MappingSystem):
    """Central authority pushing the mapping database to every xTR.

    There is no request path: a miss means the database lacks the EID, so
    :meth:`MappingSystem.resolve` answers None at once.
    """

    name = "nerd"
    #: The authority is a host of the topology, journaled on its own.
    _SNAPSHOT_EXEMPT = ("topology", "authority")

    def __init__(self, sim, topology):
        super().__init__(sim)
        self.topology = topology
        self.version = 0
        self.authority = topology.attach_infra_host(
            AUTHORITY_PROVIDER, "nerd-authority", AUTHORITY_ADDRESS)
        topology.install_global_routes()

    def attach_xtr(self, xtr):
        super().attach_xtr(xtr)
        xtr.node.bind_udp(NERD_PORT, self._on_push)

    def finalize(self):
        """Initial full-database push to every attached xTR."""
        self.version += 1
        message = _DatabasePush(version=self.version,
                                mappings=tuple(self.registry.all_mappings()))
        for xtr in self.xtrs:
            self.stats.count("db-push-full", message.size_bytes)
            self.authority.send_udp(src=AUTHORITY_ADDRESS,
                                    dst=xtr.site.xtr_control_address(
                                        xtr.site.xtrs.index(xtr.node)),
                                    sport=NERD_PORT, dport=NERD_PORT, payload=message)

    def _on_push(self, packet, node):
        message = packet.payload
        if not isinstance(message, _DatabasePush):
            return
        xtr = node.services.get("xtr-service")
        if xtr is None:
            return
        for mapping in message.mappings:
            if mapping.eid_prefix == xtr.site.eid_prefix:
                continue  # own site: no tunnel needed
            xtr.install_mapping(mapping, origin="nerd-db", ttl=float("inf"))

    def state_entries_per_router(self):
        # Every xTR holds the full database (minus its own prefix).
        total = len(self.registry)
        return {xtr.node.name: max(0, total - 1) for xtr in self.xtrs}
