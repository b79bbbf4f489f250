"""The flat all-pairs routing plan, kept as the reference of ``RoutingPlan``.

Flat and Fig. 1 worlds once routed through this plan: one Dijkstra per
provider over the whole provider mesh.  They are now the single-tier case
of :class:`~repro.net.routing.RoutingPlan`, which must install the same
FIBs and answer :meth:`delay` the same; the tests check it against this
plan.  Nothing in ``src/`` imports this module.
"""

from repro.net.fib import FibEntry
from repro.net.routing import build_adjacency, shortest_path_next_hops


class FlatRoutingPlan:
    """Shortest-path tables over the provider mesh, one Dijkstra per
    provider, answering every later question from the tables."""

    def __init__(self, providers):
        self.providers = list(providers)
        adjacency = build_adjacency(self.providers)
        self._next_hops = {router: shortest_path_next_hops(adjacency, router)
                           for router in self.providers}

    def delay(self, source, destination):
        """Shortest-path delay between two mesh routers (None if unreachable)."""
        if source is destination:
            return 0.0
        entry = self._next_hops[source].get(destination)
        return entry[1] if entry is not None else None

    def install(self, owned_prefixes):
        """Install FIB routes for ``[(prefix, owner, local_iface_or_None)]``:
        the owner routes out of its local interface, every other provider
        along its shortest path toward the owner."""
        for prefix, owner, local_iface in owned_prefixes:
            for router in self.providers:
                if router is owner:
                    if local_iface is not None:
                        router.fib.insert(FibEntry(prefix, local_iface))
                    continue
                hop = self._next_hops[router].get(owner)
                if hop is None:
                    continue
                iface, distance = hop
                router.fib.insert(FibEntry(prefix, iface, next_hop=owner,
                                           metric=distance))


def install_mesh_routes(providers, owned_prefixes):
    """Install routes among *providers* from scratch: a fresh plan, every
    attachment through it."""
    FlatRoutingPlan(providers).install(owned_prefixes)
