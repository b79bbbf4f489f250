"""Route computation for the transit fabric.

Every topology family describes its provider fabric as one
:class:`TierLayout` (drawn in :mod:`repro.net.topogen`): provider ids per
tier, tier 0 being the default-free core clique, the transit uplinks from
each lower tier to the one above, and the internet exchanges where transit
providers peer.  The flat and Fig. 1 worlds are its single-tier case:
every provider in tier 0, no uplinks, no exchanges.

Site prefixes (infrastructure and, optionally, EID space) are *attached*
to a home provider; :class:`RoutingPlan` installs, in the fabric's FIBs:

- each provider's own /8 locator block,
- every attachment's prefix, pointing toward the home provider and, at the
  home provider itself, out of the access interface.

The plan is built once, with the topology, from shortest-path tables over
the core only: every lower-tier provider gets a default route up its
cheapest transit chain, and prefixes aggregate at tier boundaries — a
stub's locator /32s collapse into its transit provider's /8 aggregate
above the boundary, so per-attachment install cost is O(chain depth +
|core|) instead of O(|providers|).  Nothing changes a fabric link after
the build (attaching a host adds an access link), so the tables serve
every later incremental install and every :meth:`RoutingPlan.delay`
query.

Intra-site routing is installed explicitly by the topology builder — sites
are stubs and must never transit traffic, which a blind shortest-path
computation over the full node set would allow.
"""

import heapq
from dataclasses import dataclass, field

from repro.net.addresses import IPv4Prefix
from repro.net.fib import FibEntry

#: The match-everything prefix (default routes point up the transit chain).
DEFAULT_PREFIX = IPv4Prefix("0.0.0.0/0")


def shortest_path_next_hops(adjacency, source):
    """Dijkstra over ``adjacency[u] -> [(v, delay, iface), ...]``.

    Returns ``{dest: (first_hop_iface, total_delay)}`` for every reachable
    destination from *source*.  Pure-Python implementation so the routing
    layer has no third-party dependency.
    """
    distances = {source: 0.0}
    first_hop = {}
    heap = [(0.0, 0, source, None)]
    counter = 0
    visited = set()
    while heap:
        dist, _tie, node, via = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if via is not None:
            first_hop[node] = (via, dist)
        for neighbour, delay, iface in adjacency.get(node, ()):
            candidate = dist + delay
            if neighbour not in distances or candidate < distances[neighbour]:
                distances[neighbour] = candidate
                counter += 1
                heapq.heappush(heap, (candidate, counter, neighbour,
                                      via if via is not None else iface))
    return first_hop


def build_adjacency(routers):
    """Adjacency restricted to links whose both ends are in *routers*."""
    member = set(routers)
    adjacency = {router: [] for router in routers}
    for router in routers:
        for iface in router.interfaces.values():
            link = iface.link
            if link is None:
                continue
            peer = link.dst_interface.node
            if peer in member:
                adjacency[router].append((peer, link.delay, iface))
    return adjacency


@dataclass
class TierLayout:
    """The transit fabric of a world, as drawn: ids and delays, no nodes.

    - ``tiers``: provider ids per tier, tier 0 (the default-free core)
      first;
    - ``core_links``: ``(a, b, delay)`` for each link between core
      providers, in the order they are built;
    - ``uplinks``: each non-core provider id -> its candidate
      ``(parent_id, delay)`` transit links to the tier above;
    - ``ixps``: per internet exchange, its members' ``(provider_id,
      delay)`` legs to the exchange router.

    ``topogen`` materialises a layout into routers and links, naming every
    fabric interface ``to-<peer node>``.
    """

    tiers: tuple
    core_links: tuple
    uplinks: dict = field(default_factory=dict)
    ixps: tuple = ()


class RoutingPlan:
    """The routes of a materialised :class:`TierLayout`: core tables,
    default-up chains and aggregation at tier boundaries.

    Construction computes:

    - all-pairs shortest paths restricted to the **tier-0 core** — never
      over the full provider set;
    - for every lower-tier provider, the cheapest uplink toward the core
      (ties broken by parent name), yielding a memoized *transit chain*
      ``provider -> parent -> ... -> core gateway``;
    - each provider's *customer cone* (its /8 aggregate plus every
      best-parent descendant's), used for IX peering routes.

    Static routes installed at construction: a default route up each
    provider's best uplink, and — at every IX — each participant's routes
    for the other participants' customer-cone aggregates (valley-free
    peering: cones only, never a full table).

    :meth:`install` then handles attachments with the aggregation rule: a
    prefix covered by its owner's /8 aggregate (an xTR locator /32) is
    installed **only at the owner** — everywhere else the aggregate already
    delivers toward it.  Non-aggregatable prefixes (site infrastructure
    /24s, /32s outside locator space) walk the owner's chain installing
    descent routes at each ancestor, then spread across the core, whose
    members as the default-free zone carry every such prefix.

    With a single tier (every provider in the core, no uplinks, no IXs)
    this is the all-pairs shortest-path plan over the clique: the FIBs and
    :meth:`delay` answers equal those of the flat reference plan the tests
    keep.
    """

    def __init__(self, topology):
        providers = topology.providers
        layout = topology.tier_layout
        self._core = [providers[pid] for pid in layout.tiers[0]]
        adjacency = build_adjacency(self._core)
        self._core_hops = {router: shortest_path_next_hops(adjacency, router)
                           for router in self._core}
        self._tier_of = {providers[pid]: tier
                         for tier, ids in enumerate(layout.tiers)
                         for pid in ids}
        self._aggregate = dict(zip(providers, topology.provider_prefixes))

        # Best uplink per non-core provider, resolved top tier down so each
        # parent's chain exists before its customers pick among parents.
        self._up = {}     # router -> (parent, up_iface, down_iface, delay)
        self._chain = {router: ((router, 0.0),) for router in self._core}
        for tier in range(1, len(layout.tiers)):
            for pid in layout.tiers[tier]:
                router = providers[pid]
                best = None
                for parent_id, delay in layout.uplinks.get(pid, ()):
                    parent = providers[parent_id]
                    chain = self._chain.get(parent)
                    if chain is None:
                        continue
                    key = (delay + chain[-1][1], parent.name)
                    if best is None or key < best[0]:
                        best = (key, parent, delay)
                if best is None:
                    raise ValueError(
                        f"provider {router.name} has no uplink to the core")
                _, parent, delay = best
                self._up[router] = (
                    parent, router.interfaces[f"to-{parent.name}"],
                    parent.interfaces[f"to-{router.name}"], delay)
                self._chain[router] = ((router, 0.0),) + tuple(
                    (node, dist + delay) for node, dist in self._chain[parent])

        # Customer cones over the best-parent tree, leaves first.
        children = {router: [] for router in providers}
        for child, (parent, _up, _down, _delay) in self._up.items():
            children[parent].append(child)
        self._cone = {}
        for tier in range(len(layout.tiers) - 1, -1, -1):
            for pid in layout.tiers[tier]:
                router = providers[pid]
                prefixes = [self._aggregate[router]]
                for child in children[router]:
                    prefixes.extend(self._cone[child])
                self._cone[router] = tuple(prefixes)

        # IX shortcut table for delay(): router -> ((peer, through_delay), ...)
        ix_peers = {}
        for members in layout.ixps:
            for pid, delay in members:
                for other_pid, other_delay in members:
                    if other_pid != pid:
                        ix_peers.setdefault(providers[pid], []).append(
                            (providers[other_pid], delay + other_delay))
        self._ix_peers = {router: tuple(peers)
                          for router, peers in ix_peers.items()}

        self._install_static_routes(providers, topology.ix_routers,
                                    layout.ixps)

    def _install_static_routes(self, providers, ix_routers, ixps):
        # IX peering routes first: where a peer also sits in the owner's
        # transit chain, the later descent/default installs win.
        for ix_router, members in zip(ix_routers, ixps):
            for pid, delay in members:
                provider = providers[pid]
                ix_iface = ix_router.interfaces[f"to-{provider.name}"]
                for prefix in self._cone[provider]:
                    ix_router.fib.insert(FibEntry(
                        prefix, ix_iface, next_hop=provider, metric=delay))
            for pid, delay in members:
                provider = providers[pid]
                provider_iface = provider.interfaces[f"to-{ix_router.name}"]
                own_cone = set(self._cone[provider])
                for other_pid, other_delay in members:
                    if other_pid == pid:
                        continue
                    peer = providers[other_pid]
                    for prefix in self._cone[peer]:
                        if prefix in own_cone:
                            continue  # never route own customers via a peer
                        provider.fib.insert(FibEntry(
                            prefix, provider_iface, next_hop=peer,
                            metric=delay + other_delay))
        for router, (parent, up_iface, _down, delay) in self._up.items():
            router.fib.insert(FibEntry(DEFAULT_PREFIX, up_iface,
                                       next_hop=parent, metric=delay))

    def delay(self, source, destination):
        """Route-following delay estimate between two fabric providers.

        Minimum over the meeting points the installed routes can use: the
        first common ancestor of the two transit chains, any IX shortcut
        between chain members, and the cross-core path between the two
        gateways.  Between two core providers without IX seats that is
        the core table's shortest path, looked up directly (every pair of
        a single-tier world).  O(chain depth) per query otherwise.
        """
        if source is destination:
            return 0.0
        core_hops = self._core_hops.get(source)
        if core_hops is not None and source not in self._ix_peers:
            entry = core_hops.get(destination)
            if entry is not None:
                return entry[1]
        chain_b = self._chain[destination]
        dist_b = {router: dist for router, dist in chain_b}
        best = None
        for router, dist_a in self._chain[source]:
            via_common = dist_b.get(router)
            if via_common is not None:
                candidate = dist_a + via_common
                if best is None or candidate < best:
                    best = candidate
            for peer, through in self._ix_peers.get(router, ()):
                via_peer = dist_b.get(peer)
                if via_peer is not None:
                    candidate = dist_a + through + via_peer
                    if best is None or candidate < best:
                        best = candidate
        gateway_a, up_a = self._chain[source][-1]
        gateway_b, up_b = chain_b[-1]
        if gateway_a is not gateway_b:
            hop = self._core_hops[gateway_a].get(gateway_b)
            if hop is not None:
                candidate = up_a + hop[1] + up_b
                if best is None or candidate < best:
                    best = candidate
        return best

    def install(self, owned_prefixes):
        """Install FIB routes for attachments, aggregating at tier boundaries.

        ``owned_prefixes`` is ``[(prefix, owner_router, local_iface_or_None)]``:
        the owner routes *prefix* out of *local_iface* (if any), every
        other router toward the owner.  Prefixes covered by the owner's /8
        aggregate collapse into it above a non-core owner; everything else
        is installed along the owner's transit chain and across the core.
        Re-installing a prefix replaces the previous entry, so calls are
        idempotent.
        """
        for prefix, owner, local_iface in owned_prefixes:
            if local_iface is not None:
                owner.fib.insert(FibEntry(prefix, local_iface))
            tier = self._tier_of.get(owner)
            if tier is None:
                raise ValueError(f"{owner.name} is not a transit provider")
            aggregate = self._aggregate[owner]
            if tier and prefix != aggregate and aggregate.contains(prefix):
                continue  # collapsed into the aggregate above the owner
            chain = self._chain[owner]
            for i in range(1, len(chain)):
                ancestor, dist = chain[i]
                child = chain[i - 1][0]
                down_iface = self._up[child][2]
                ancestor.fib.insert(FibEntry(prefix, down_iface,
                                             next_hop=owner, metric=dist))
            gateway, gateway_dist = chain[-1]
            for router in self._core:
                if router is gateway:
                    continue
                hop = self._core_hops[router].get(gateway)
                if hop is None:
                    continue
                iface, distance = hop
                router.fib.insert(FibEntry(prefix, iface, next_hop=owner,
                                           metric=distance + gateway_dist))
