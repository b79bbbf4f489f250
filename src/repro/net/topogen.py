"""Topology families: declarative specs and internet-shaped generators.

Every world used to be the paper's Fig. 1 flat mesh — a handful of provider
routers in a random-delay clique with stub sites multihomed onto them.  This
module generalizes construction behind one declarative entry point::

    spec = TopologySpec(family="tiered", num_sites=1000)
    topology = build(sim, spec)

Families
--------
- ``"flat"``  — the historical full provider mesh (all-pairs clique).
- ``"fig1"``  — the exact Fig. 1 scenario: two sites, providers A/B and X/Y.
- ``"tiered"`` — a tiered internet: a tier-0 full-mesh clique (the
  default-free core), tier-1 and tier-2 transit ASes multihomed to parents
  in the tier above, internet-exchange routers where transit providers
  peer, and stub sites multihomed to tier-2 (or, when homed at an IX, to
  providers that peer there).  Routing is hierarchical
  (:class:`~repro.net.routing.HierarchicalRoutingPlan`): no all-pairs
  Dijkstra over the provider set, so worldbuild stays sub-quadratic at
  thousands of sites.
- ``"caida"`` — the tiered generator with a CAIDA-like skew preset:
  provider degree follows a power law (low-numbered providers in each tier
  act as megaproviders attracting most customers and IX seats).

Address plan extension
----------------------
Transit providers keep the flat plan: provider ``p`` (any tier) owns
``(10+p).0.0.0/8``, capping the transit population at 245 ASes.  IX routers
are pure switching points addressed from ``9.0.0.0/8`` (one /32 each, never
routed — nothing addresses packets *to* an exchange).  Site EID and
infrastructure prefixes are unchanged (see :mod:`repro.net.topology`).
"""

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.net.addresses import IPv4Prefix
from repro.net.fib import FibEntry
from repro.net.host import Host
from repro.net.link import connect
from repro.net.router import Router
from repro.net.routing import (DEFAULT_PREFIX, IxMember, IxPoint, TierLayout,
                               TransitUplink)
from repro.net.topology import (DNS_PCE_DELAY, HOST_HUB_DELAY, PCE_HUB_DELAY,
                                XTR_HUB_DELAY, Site, Topology, eid_prefix_for,
                                infra_prefix_for, provider_prefix_for,
                                rloc_for)

FAMILIES = ("fig1", "flat", "tiered", "caida")

#: Provider ``p`` owns ``(10+p).0.0.0/8``; ``10 + p`` must stay <= 255.
MAX_PROVIDERS = 245

#: IX routers take one /32 each out of this block (never globally routed).
IX_PREFIX = IPv4Prefix("9.0.0.0/8")

#: Providers peering at each IX (clipped to the transit population).
IX_DEGREE = 4
#: Link delay ranges in seconds beside the spec's core ``wan_delay_range``:
#: transit uplinks, provider<->IX legs, site access links.
TRANSIT_DELAY_RANGE = (0.004, 0.015)
IX_DELAY_RANGE = (0.001, 0.004)
ACCESS_DELAY_RANGE = (0.001, 0.005)
#: The random stream every topology draws its delays and choices from.
TOPOLOGY_STREAM = "topology"


@dataclass(frozen=True)
class TopologySpec:
    """Everything that defines a topology, declaratively.

    Specs are frozen, hashable and ``astuple``-friendly, so they can ride
    inside ``ScenarioConfig`` world keys.  Fields irrelevant to a family
    are ignored (e.g. ``tier0`` for ``"flat"``, ``num_providers`` for
    ``"tiered"``/``"caida"``, where tier sizes rule).
    """

    family: str = "flat"
    num_sites: int = 2
    #: Mesh size for ``flat``/``fig1``; tiered families derive their own.
    num_providers: int = 4
    providers_per_site: int = 2
    hosts_per_site: int = 2
    #: Tier sizes for ``tiered``/``caida``; 0 derives from ``num_sites``.
    tier0: int = 0
    tier1: int = 0
    tier2: int = 0
    #: Internet exchanges; 0 derives from the transit population.
    num_ixps: int = 0
    #: Fraction of stub sites homed *at an IX*: all their providers are
    #: drawn from a single exchange's membership.
    ix_site_fraction: float = 0.25
    #: Power-law exponent skewing provider popularity (customer and IX-seat
    #: attraction).  ``None`` picks the family default: 0.0 for ``tiered``
    #: (uniform), 1.2 for ``caida``.
    stub_attach_bias: Optional[float] = None
    #: Delay range in seconds of the core clique's links (the flat mesh's
    #: links on ``flat``/``fig1``).
    wan_delay_range: tuple = (0.010, 0.040)
    access_rate_bps: Optional[float] = None
    eids_globally_routable: bool = False
    #: ``flat``/``fig1`` only: per-site provider-id tuples overriding the
    #: default rotation.
    provider_assignment: Optional[tuple] = None

    def __post_init__(self):
        # Normalize sequence fields so specs coming from old list-passing
        # call sites stay hashable (world keys, memo dicts).
        object.__setattr__(self, "wan_delay_range",
                           tuple(self.wan_delay_range))
        if self.provider_assignment is not None:
            object.__setattr__(self, "provider_assignment", tuple(
                tuple(site) for site in self.provider_assignment))
        if self.family not in FAMILIES:
            raise ValueError(f"unknown topology family {self.family!r}")

    def effective_bias(self):
        if self.stub_attach_bias is not None:
            return self.stub_attach_bias
        return 1.2 if self.family == "caida" else 0.0


def check_sizing(spec):
    """Raise ``ValueError`` naming the field *spec* oversizes.

    The one statement of what the address plan and the multihoming degree
    allow: :func:`build` calls it, and so does ``ScenarioConfig`` at
    construction, so a sweep grid fails at expansion with the field named
    instead of inside a worker.
    """
    if spec.family in ("fig1", "flat"):
        if spec.num_providers > MAX_PROVIDERS:
            raise ValueError(f"num_providers {spec.num_providers} exceeds "
                             f"{MAX_PROVIDERS}")
        if spec.providers_per_site > spec.num_providers:
            raise ValueError(
                f"providers_per_site {spec.providers_per_site} exceeds "
                f"num_providers {spec.num_providers}")
        return
    t0, t1, t2 = _tier_sizes(spec)
    if t0 + t1 + t2 > MAX_PROVIDERS:
        raise ValueError(
            f"tier sizes {t0}+{t1}+{t2} exceed the {MAX_PROVIDERS}-provider "
            "address plan (provider /8s start at 10.0.0.0/8)")
    if spec.providers_per_site > t1 + t2:
        raise ValueError(
            f"providers_per_site {spec.providers_per_site} exceeds the "
            f"transit population {t1 + t2}")


def build(sim, spec):
    """Build the world described by *spec* (the single topology entry point)."""
    check_sizing(spec)
    if spec.family == "fig1":
        fig1 = replace(spec, num_sites=2,
                       provider_assignment=(spec.provider_assignment
                                            or ((0, 1), (2, 3))))
        topology = _build_flat(sim, fig1)
        topology.site_s = topology.sites[0]
        topology.site_d = topology.sites[1]
        return topology
    if spec.family == "flat":
        return _build_flat(sim, spec)
    return _build_tiered(sim, spec)


# --------------------------------------------------------------------------- #
# Flat family (the historical full mesh)
# --------------------------------------------------------------------------- #

def _build_flat(sim, spec):
    rng = sim.rng.stream(TOPOLOGY_STREAM)

    providers = []
    provider_prefixes = []
    for p in range(spec.num_providers):
        router = Router(sim, f"prov{p}")
        router.add_address(provider_prefix_for(p).address_at(1))
        providers.append(router)
        provider_prefixes.append(provider_prefix_for(p))
    for a in range(spec.num_providers):
        for b in range(a + 1, spec.num_providers):
            delay = rng.uniform(*spec.wan_delay_range)
            iface_a = providers[a].add_interface(f"to-prov{b}")
            iface_b = providers[b].add_interface(f"to-prov{a}")
            connect(sim, iface_a, iface_b, delay=delay)

    topology = Topology(sim=sim, providers=providers,
                        provider_prefixes=provider_prefixes, sites=[],
                        eids_globally_routable=spec.eids_globally_routable)
    for p, router in enumerate(providers):
        topology.attachments.append((provider_prefixes[p], router, None))

    for s in range(spec.num_sites):
        assigned = (spec.provider_assignment[s]
                    if spec.provider_assignment is not None else None)
        site = _build_site(sim, topology, s, spec.providers_per_site,
                           spec.hosts_per_site, rng,
                           assigned_providers=assigned,
                           access_rate_bps=spec.access_rate_bps)
        topology.sites.append(site)

    topology.install_global_routes()
    return topology


# --------------------------------------------------------------------------- #
# Tiered families
# --------------------------------------------------------------------------- #

def _tier_sizes(spec):
    """Tier populations: explicit spec values, else derived from num_sites.

    The derivation keeps the transit population within the /8 address-plan
    cap while growing each tier sublinearly in the site count (CAIDA-style:
    a small dense core, a modest tier-1, a broad tier-2 edge); explicit
    sizes are held to the cap by :func:`check_sizing`.
    """
    n = max(1, spec.num_sites)
    t0 = spec.tier0 or min(8, max(2, round(n ** 0.25)))
    t1 = spec.tier1 or min(24, max(3, round(n ** 0.5 / 2) + 1))
    t2 = spec.tier2 or min(160, max(4, spec.providers_per_site, round(n / 25)))
    return t0, t1, t2


def _rank_weights(count, bias):
    """Popularity weights by rank (rank 0 = most attractive provider)."""
    if bias <= 0.0:
        return [1.0] * count
    return [1.0 / (rank + 1) ** bias for rank in range(count)]


def _weighted_sample(rng, population, weights, k):
    """Weighted sample without replacement, deterministic under *rng*."""
    pool = list(population)
    pool_weights = list(weights)
    chosen = []
    for _ in range(min(k, len(pool))):
        total = sum(pool_weights)
        pick = rng.random() * total
        cumulative = 0.0
        index = len(pool) - 1
        for i, weight in enumerate(pool_weights):
            cumulative += weight
            if pick < cumulative:
                index = i
                break
        chosen.append(pool.pop(index))
        pool_weights.pop(index)
    return chosen


def _build_tiered(sim, spec):
    t0, t1, t2 = _tier_sizes(spec)
    rng = sim.rng.stream(TOPOLOGY_STREAM)
    bias = spec.effective_bias()
    num_providers = t0 + t1 + t2
    tiers = (tuple(range(t0)), tuple(range(t0, t0 + t1)),
             tuple(range(t0 + t1, num_providers)))

    providers = []
    provider_prefixes = []
    for p in range(num_providers):
        router = Router(sim, f"prov{p}")
        router.add_address(provider_prefix_for(p).address_at(1))
        providers.append(router)
        provider_prefixes.append(provider_prefix_for(p))

    # Tier-0 clique: the default-free core, long-haul delays.
    for a in tiers[0]:
        for b in tiers[0]:
            if b <= a:
                continue
            delay = rng.uniform(*spec.wan_delay_range)
            iface_a = providers[a].add_interface(f"to-prov{b}")
            iface_b = providers[b].add_interface(f"to-prov{a}")
            connect(sim, iface_a, iface_b, delay=delay)

    # Transit uplinks: every T1/T2 AS multihomes to 1-2 parents above it,
    # megaprovider-weighted under the caida preset.
    uplinks = {}
    for tier in (1, 2):
        parent_ids = tiers[tier - 1]
        parent_weights = _rank_weights(len(parent_ids), bias)
        for pid in tiers[tier]:
            fanout = min(len(parent_ids), 1 + (1 if rng.random() < 0.5 else 0))
            parents = _weighted_sample(rng, parent_ids, parent_weights, fanout)
            records = []
            for parent_id in parents:
                delay = rng.uniform(*TRANSIT_DELAY_RANGE)
                up_iface = providers[pid].add_interface(f"to-prov{parent_id}")
                down_iface = providers[parent_id].add_interface(f"to-prov{pid}")
                connect(sim, down_iface, up_iface, delay=delay)
                records.append(TransitUplink(parent_id=parent_id, delay=delay,
                                             up_iface=up_iface,
                                             down_iface=down_iface))
            uplinks[pid] = tuple(records)

    # Internet exchanges: neutral routers where transit providers peer.
    transit_ids = list(tiers[1]) + list(tiers[2])
    transit_weights = _rank_weights(len(transit_ids), bias)
    num_ixps = spec.num_ixps or max(1, len(transit_ids) // 8)
    ix_degree = max(2, min(IX_DEGREE, len(transit_ids)))
    ix_routers = []
    ixps = []
    for i in range(num_ixps):
        ix_router = Router(sim, f"ix{i}")
        ix_router.add_address(IX_PREFIX.address_at(i * 256 + 1))
        member_ids = _weighted_sample(rng, transit_ids, transit_weights,
                                      ix_degree)
        members = []
        for pid in member_ids:
            delay = rng.uniform(*IX_DELAY_RANGE)
            provider_iface = providers[pid].add_interface(f"to-ix{i}")
            ix_iface = ix_router.add_interface(f"to-prov{pid}")
            connect(sim, provider_iface, ix_iface, delay=delay)
            members.append(IxMember(provider_id=pid,
                                    provider_iface=provider_iface,
                                    ix_iface=ix_iface, delay=delay))
        ix_routers.append(ix_router)
        ixps.append(IxPoint(index=i, router=ix_router, members=tuple(members)))

    layout = TierLayout(tiers=tiers, uplinks=uplinks, ixps=tuple(ixps),
                        aggregates={p: provider_prefixes[p]
                                    for p in range(num_providers)})
    topology = Topology(sim=sim, providers=providers,
                        provider_prefixes=provider_prefixes, sites=[],
                        eids_globally_routable=spec.eids_globally_routable,
                        tier_layout=layout, ix_routers=ix_routers)
    for p, router in enumerate(providers):
        topology.attachments.append((provider_prefixes[p], router, None))

    # Stub sites home to the tier-2 edge (tier-1 joins the pool only when
    # the edge is too small), or to a single IX's membership when IX-homed.
    pool = list(tiers[2]) if t2 >= spec.providers_per_site else transit_ids
    pool_weights = _rank_weights(len(pool), bias)
    weight_of = dict(zip(pool, pool_weights))
    eligible_ixps = [ix for ix in ixps
                     if len([m for m in ix.members if m.provider_id in weight_of])
                     >= spec.providers_per_site]
    for s in range(spec.num_sites):
        ix_homed = (eligible_ixps and rng.random() < spec.ix_site_fraction)
        if ix_homed:
            ix = eligible_ixps[rng.randrange(len(eligible_ixps))]
            candidates = [m.provider_id for m in ix.members
                          if m.provider_id in weight_of]
        else:
            candidates = pool
        chosen = _weighted_sample(rng, candidates,
                                  [weight_of[pid] for pid in candidates],
                                  spec.providers_per_site)
        site = _build_site(sim, topology, s, spec.providers_per_site,
                           spec.hosts_per_site, rng,
                           assigned_providers=chosen,
                           access_rate_bps=spec.access_rate_bps)
        topology.sites.append(site)

    topology.install_global_routes()
    return topology


# --------------------------------------------------------------------------- #
# Site construction (shared by every family)
# --------------------------------------------------------------------------- #

def _build_site(sim, topology, s, providers_per_site, hosts_per_site, rng,
                assigned_providers=None, access_rate_bps=None):
    name = f"site{s}"
    eid_prefix = eid_prefix_for(s)
    infra_prefix = infra_prefix_for(s)
    num_providers = len(topology.providers)

    hub = Router(sim, f"{name}-hub")
    hub.add_address(eid_prefix.address_at(1))
    dns_node = Host(sim, f"{name}-dns", address=infra_prefix.address_at(10))
    pce_node = Router(sim, f"{name}-pce")
    pce_node.add_address(infra_prefix.address_at(20))

    site = Site(index=s, name=name, eid_prefix=eid_prefix, infra_prefix=infra_prefix,
                hub=hub, dns_node=dns_node, pce_node=pce_node)

    if assigned_providers is not None:
        chosen = list(assigned_providers)
    else:
        # Deterministic but varied provider assignment: rotate through the
        # mesh.  When gcd(stride, num_providers) > 1 the rotation only visits
        # a subgroup, so complete the candidate order with the remaining
        # providers instead of cycling forever.
        first = s % num_providers
        stride = 1 + (s // num_providers) % max(1, num_providers - 1)
        order = []
        p = first
        for _ in range(num_providers):
            if p not in order:
                order.append(p)
            p = (p + stride) % num_providers
        for p in range(num_providers):
            if p not in order:
                order.append(p)
        chosen = order[:providers_per_site]
    site.provider_ids = chosen

    # Hosts on the hub.
    for i in range(hosts_per_site):
        host = Host(sim, f"{name}-host{i}", address=eid_prefix.address_at(10 + i))
        host_iface = host.add_interface("up")
        hub_iface = hub.add_interface(f"to-host{i}")
        connect(sim, hub_iface, host_iface, delay=HOST_HUB_DELAY)
        host.fib.insert(FibEntry(DEFAULT_PREFIX, host_iface))
        hub.fib.insert(FibEntry(IPv4Prefix(int(host.address), 32), hub_iface))
        site.hosts.append(host)

    # DNS behind PCE: dns -- pce -- hub.
    dns_iface = dns_node.add_interface("up")
    pce_dns_iface = pce_node.add_interface("to-dns")
    connect(sim, pce_dns_iface, dns_iface, delay=DNS_PCE_DELAY)
    dns_node.fib.insert(FibEntry(DEFAULT_PREFIX, dns_iface))

    pce_hub_iface = pce_node.add_interface("to-hub")
    hub_pce_iface = hub.add_interface("to-pce")
    connect(sim, hub_pce_iface, pce_hub_iface, delay=PCE_HUB_DELAY)
    pce_node.fib.insert(FibEntry(IPv4Prefix(int(site.dns_address), 32), pce_dns_iface))
    pce_node.fib.insert(FibEntry(DEFAULT_PREFIX, pce_hub_iface))
    hub.fib.insert(FibEntry(IPv4Prefix(int(site.dns_address), 32), hub_pce_iface))
    hub.fib.insert(FibEntry(IPv4Prefix(int(site.pce_address), 32), hub_pce_iface))

    # xTRs: one per provider.
    for b, p in enumerate(site.provider_ids):
        xtr = Router(sim, f"{name}-xtr{b}")
        rloc = rloc_for(p, s, b)
        xtr.add_address(rloc)
        xtr.add_address(site.xtr_control_address(b))
        xtr.register_service("rloc", rloc)
        xtr.register_service("site", site)
        xtr.register_service("provider_id", p)

        xtr_hub_iface = xtr.add_interface("to-hub")
        hub_xtr_iface = hub.add_interface(f"to-xtr{b}")
        connect(sim, hub_xtr_iface, xtr_hub_iface, delay=XTR_HUB_DELAY)

        provider = topology.providers[p]
        access_delay = rng.uniform(*ACCESS_DELAY_RANGE)
        xtr_up_iface = xtr.add_interface("up", address=rloc)
        provider_iface = provider.add_interface(f"to-{name}-xtr{b}")
        downlink, uplink = connect(sim, provider_iface, xtr_up_iface, delay=access_delay,
                                   rate_bps=access_rate_bps)
        site.access_links.append({"uplink": uplink, "downlink": downlink})
        site.hub_links.append({"hub_iface": hub_xtr_iface})

        # xTR routing: site prefixes inward, everything else to the provider.
        xtr.fib.insert(FibEntry(site.eid_prefix, xtr_hub_iface))
        xtr.fib.insert(FibEntry(site.infra_prefix, xtr_hub_iface))
        xtr.fib.insert(FibEntry(DEFAULT_PREFIX, xtr_up_iface))

        # Hub can reach each xTR's control address.
        hub.fib.insert(FibEntry(IPv4Prefix(int(site.xtr_control_address(b)), 32),
                                hub_xtr_iface))
        # Provider can deliver to the xTR's RLOC.
        topology.attachments.append((IPv4Prefix(int(rloc), 32), provider, provider_iface))

        site.xtrs.append(xtr)
        site.access_delays.append(access_delay)

        if b == 0:
            # Home attachment: the site's infrastructure prefix (and its EID
            # prefix, in plain-IP mode) is reachable via xtr0.
            topology.attachments.append((site.infra_prefix, provider, provider_iface))
            if topology.eids_globally_routable:
                topology.attachments.append((site.eid_prefix, provider, provider_iface))

    # Hub default: out via xtr0 (TE may override per destination later).
    hub.fib.insert(FibEntry(DEFAULT_PREFIX, hub.interfaces["to-xtr0"]))
    return site
