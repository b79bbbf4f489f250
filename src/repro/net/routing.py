"""Route computation for the provider core.

The global routing domain consists of the provider routers, connected in a
random-delay full mesh (built in :mod:`repro.net.topology`).  Site prefixes
(infrastructure and, optionally, EID space) are *attached* to a home
provider; this module computes shortest paths over the mesh and installs,
in every provider router's FIB:

- each provider's own /8 locator block,
- every attachment's prefix, pointing toward the home provider and, at the
  home provider itself, out of the access interface.

The heavy lifting lives in :class:`RoutingPlan`: per-provider shortest-path
tables computed **once** per mesh, memoized against a topology fingerprint,
and reused both for incremental attachment installs (insert routes for new
prefixes without re-running Dijkstra) and for O(1) pairwise delay queries
(:meth:`RoutingPlan.delay`), which the IRC engine hits per site pair during
every topology build.

Tiered internets (see :mod:`repro.net.topogen`) do not run all-pairs
Dijkstra at all: :class:`HierarchicalRoutingPlan` keeps shortest-path
tables only for the tier-0 clique (the default-free core), gives every
lower-tier provider a default route up its cheapest transit chain, and
aggregates at tier boundaries — a stub's locator /32s collapse into its
transit provider's /8 aggregate above the boundary, so per-attachment
install cost is O(chain depth + |core|) instead of O(|providers|).  Both
plan classes share the fingerprint / ``install`` / ``delay`` contracts, so
``Topology.install_global_routes`` and ``provider_mesh_delay`` work
unchanged on either.

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


def mesh_fingerprint(routers):
    """A hashable digest of the mesh topology among *routers*.

    Two fingerprints are equal iff the routers, their mesh links and the
    link delays are identical — the exact conditions under which a
    :class:`RoutingPlan`'s shortest-path tables stay valid.  Access links
    toward sites and infrastructure hosts do not participate (their peers
    are not mesh members), so attaching new sites never invalidates a plan.
    """
    adjacency = build_adjacency(routers)
    return tuple(
        (router.name,
         tuple(sorted((peer.name, delay, iface.name)
                      for peer, delay, iface in edges)))
        for router, edges in adjacency.items())


class RoutingPlan:
    """Shortest-path tables over the provider mesh, computed once.

    The plan runs one Dijkstra per provider at construction and answers
    every later question from the tables:

    - :meth:`install` inserts FIB routes for a batch of attachments without
      recomputing anything, which is what makes attachment installs
      incremental (the old ``install_mesh_routes`` re-ran the all-pairs
      computation for every batch);
    - :meth:`delay` / :meth:`next_hop` are O(1) dict lookups.

    ``fingerprint`` captures the mesh the tables were computed over;
    holders (see :meth:`~repro.net.topology.Topology.routing_plan`) compare
    it against :func:`mesh_fingerprint` to decide whether a cached plan is
    still valid.
    """

    def __init__(self, providers, fingerprint=None):
        self.providers = list(providers)
        self.fingerprint = (fingerprint if fingerprint is not None
                            else mesh_fingerprint(self.providers))
        adjacency = build_adjacency(self.providers)
        self._next_hops = {router: shortest_path_next_hops(adjacency, router)
                           for router in self.providers}

    def next_hop(self, router, owner):
        """``(first_hop_iface, total_delay)`` from *router* toward *owner*.

        None when *owner* is unreachable (or is *router* itself).
        """
        return self._next_hops[router].get(owner)

    def delay(self, source, destination):
        """Shortest-path delay between two mesh routers (None if unreachable)."""
        if source is destination:
            return 0.0
        entry = self._next_hops[source].get(destination)
        return entry[1] if entry is not None else None

    def install(self, owned_prefixes):
        """Install FIB routes for *owned_prefixes* using the cached tables.

        ``owned_prefixes`` is ``[(prefix, owner_router, local_iface_or_None)]``
        with the same semantics as :func:`install_mesh_routes`.  Re-installing
        a prefix replaces the previous entry, so calls are idempotent.
        """
        for prefix, owner, local_iface in owned_prefixes:
            hops_to_owner = self._next_hops
            for router in self.providers:
                if router is owner:
                    if local_iface is not None:
                        router.fib.insert(FibEntry(prefix, local_iface))
                    continue
                hop = hops_to_owner[router].get(owner)
                if hop is None:
                    continue
                iface, distance = hop
                router.fib.insert(FibEntry(prefix, iface, next_hop=owner,
                                           metric=distance))


@dataclass(frozen=True)
class TransitUplink:
    """One customer->provider link in a tiered internet.

    ``up_iface`` sits on the customer router, ``down_iface`` on the parent;
    both ends of the same physical link (see ``topogen``).
    """

    parent_id: int
    delay: float
    up_iface: object
    down_iface: object


@dataclass(frozen=True)
class IxMember:
    """One provider's presence at an internet exchange."""

    provider_id: int
    provider_iface: object   # on the provider, toward the IX router
    ix_iface: object         # on the IX router, toward the provider
    delay: float             # one-way provider<->IX link delay


@dataclass(frozen=True)
class IxPoint:
    """An internet-exchange router and the providers peering across it."""

    index: int
    router: object
    members: tuple


@dataclass
class TierLayout:
    """The transit structure of a tiered internet, consumed by the plan.

    ``tiers`` lists provider ids per tier, tier 0 (the default-free clique)
    first.  ``uplinks`` maps each non-core provider id to its candidate
    :class:`TransitUplink` records; ``aggregates`` maps provider ids to the
    /8 locator block each provider announces upward on behalf of its
    customer cone.
    """

    tiers: tuple
    uplinks: dict = field(default_factory=dict)
    ixps: tuple = ()
    aggregates: dict = field(default_factory=dict)


class HierarchicalRoutingPlan:
    """Tiered routing: core tables + default-up chains + aggregation.

    Drop-in alternative to :class:`RoutingPlan` for topologies carrying a
    :class:`TierLayout`.  Construction computes:

    - all-pairs shortest paths restricted to the **tier-0 clique** (the
      default-free core) — never over the full provider set;
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

    With a single tier (every provider in tier 0, no uplinks, no IXPs) the
    installed FIBs and the :meth:`delay` answers are identical to the flat
    :class:`RoutingPlan` — the equivalence the worldbuild tests pin down.
    """

    def __init__(self, providers, layout, fingerprint=None):
        self.providers = list(providers)
        self.layout = layout
        members = self.providers + [ix.router for ix in layout.ixps]
        self.fingerprint = (fingerprint if fingerprint is not None
                            else mesh_fingerprint(members))

        self._core = [self.providers[pid] for pid in layout.tiers[0]]
        adjacency = build_adjacency(self._core)
        self._core_hops = {router: shortest_path_next_hops(adjacency, router)
                           for router in self._core}
        self._tier_of = {}
        for tier, ids in enumerate(layout.tiers):
            for pid in ids:
                self._tier_of[self.providers[pid]] = tier
        self._aggregate = {self.providers[pid]: prefix
                           for pid, prefix in layout.aggregates.items()}

        # Best uplink per non-core provider, resolved top tier down so each
        # parent's chain exists before its customers pick among parents.
        self._up = {}     # router -> (parent, up_iface, down_iface, delay)
        self._chain = {router: ((router, 0.0),) for router in self._core}
        for tier in range(1, len(layout.tiers)):
            for pid in layout.tiers[tier]:
                router = self.providers[pid]
                best = None
                for uplink in layout.uplinks.get(pid, ()):
                    parent = self.providers[uplink.parent_id]
                    chain = self._chain.get(parent)
                    if chain is None:
                        continue
                    key = (uplink.delay + chain[-1][1], parent.name)
                    if best is None or key < best[0]:
                        best = (key, uplink, parent)
                if best is None:
                    raise ValueError(
                        f"provider {router.name} has no uplink to the core")
                _, uplink, parent = best
                self._up[router] = (parent, uplink.up_iface,
                                    uplink.down_iface, uplink.delay)
                self._chain[router] = ((router, 0.0),) + tuple(
                    (node, dist + uplink.delay)
                    for node, dist in self._chain[parent])

        # Customer cones over the best-parent tree, leaves first.
        children = {router: [] for router in self.providers}
        for child, (parent, _up, _down, _delay) in self._up.items():
            children[parent].append(child)
        self._cone = {}
        for tier in range(len(layout.tiers) - 1, -1, -1):
            for pid in layout.tiers[tier]:
                router = self.providers[pid]
                prefixes = [self._aggregate[router]]
                for child in children[router]:
                    prefixes.extend(self._cone[child])
                self._cone[router] = tuple(prefixes)

        # IX shortcut table for delay(): router -> ((peer, through_delay), ...)
        ix_peers = {}
        for ix in layout.ixps:
            for member in ix.members:
                router = self.providers[member.provider_id]
                for other in ix.members:
                    if other is member:
                        continue
                    peer = self.providers[other.provider_id]
                    ix_peers.setdefault(router, []).append(
                        (peer, member.delay + other.delay))
        self._ix_peers = {router: tuple(peers)
                          for router, peers in ix_peers.items()}

        self._install_static_routes()

    def _install_static_routes(self):
        # IX peering routes first: where a peer also sits in the owner's
        # transit chain, the later descent/default installs win.
        for ix in self.layout.ixps:
            for member in ix.members:
                provider = self.providers[member.provider_id]
                for prefix in self._cone[provider]:
                    ix.router.fib.insert(FibEntry(
                        prefix, member.ix_iface, next_hop=provider,
                        metric=member.delay))
            for member in ix.members:
                provider = self.providers[member.provider_id]
                own_cone = set(self._cone[provider])
                for other in ix.members:
                    if other is member:
                        continue
                    peer = self.providers[other.provider_id]
                    through = member.delay + other.delay
                    for prefix in self._cone[peer]:
                        if prefix in own_cone:
                            continue  # never route own customers via a peer
                        provider.fib.insert(FibEntry(
                            prefix, member.provider_iface, next_hop=peer,
                            metric=through))
        for router, (parent, up_iface, _down, delay) in self._up.items():
            router.fib.insert(FibEntry(DEFAULT_PREFIX, up_iface,
                                       next_hop=parent, metric=delay))

    def next_hop(self, router, owner):
        """``(first_hop_iface, delay_estimate)`` from *router* toward *owner*."""
        if router is owner:
            return None
        chain = self._chain[owner]
        for i in range(1, len(chain)):
            ancestor, dist = chain[i]
            if ancestor is router:
                child = chain[i - 1][0]
                return (self._up[child][2], dist)
        total = self.delay(router, owner)
        if total is None:
            return None
        up = self._up.get(router)
        if up is not None:
            return (up[1], total)
        hop = self._core_hops[router].get(chain[-1][0])
        if hop is None:
            return None
        return (hop[0], total)

    def delay(self, source, destination):
        """Route-following delay estimate between two mesh providers.

        Minimum over the meeting points the installed routes can use: the
        first common ancestor of the two transit chains, any IX shortcut
        between chain members, and the cross-core path between the two
        gateways.  For a single-tier layout this degenerates to the flat
        plan's shortest-path answer.  O(chain depth) per query.
        """
        if source is destination:
            return 0.0
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

        Same signature and idempotence as :meth:`RoutingPlan.install`.
        Prefixes covered by the owner's /8 aggregate collapse into it above
        the owner; everything else is installed along the owner's transit
        chain and across the core.
        """
        for prefix, owner, local_iface in owned_prefixes:
            if local_iface is not None:
                owner.fib.insert(FibEntry(prefix, local_iface))
            if owner not in self._tier_of:
                raise ValueError(f"{owner.name} is not a transit provider")
            aggregate = self._aggregate.get(owner)
            if (owner not in self._core and aggregate is not None
                    and prefix != aggregate and aggregate.contains(prefix)):
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


def install_mesh_routes(providers, owned_prefixes):
    """Install routes among provider routers (from-scratch computation).

    Kept as the reference implementation: builds a fresh
    :class:`RoutingPlan` and installs every attachment through it.  Callers
    on the hot path should hold a plan and use :meth:`RoutingPlan.install`
    incrementally instead.
    """
    RoutingPlan(providers).install(owned_prefixes)

