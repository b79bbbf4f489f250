"""Topology families: declarative specs and internet-shaped generators.

Every world used to be the paper's Fig. 1 flat mesh — a handful of provider
routers in a random-delay clique with stub sites multihomed onto them.  This
module generalizes construction behind one declarative entry point::

    spec = TopologySpec(family="tiered", num_sites=1000)
    topology = build(sim, spec)

Each family *draws* its transit fabric as a
:class:`~repro.net.routing.TierLayout`, and each site's providers and
access delays, from the ``topology`` random stream; one private
materialiser then turns any drawn layout into routers and links, in the
same order whatever the family.

Families
--------
- ``"flat"``  — the historical full provider mesh: a single-tier layout,
  every provider in the core clique, no uplinks, no IXs.
- ``"fig1"``  — the exact Fig. 1 scenario on the same single tier: two
  sites, providers A/B and X/Y (:data:`FIG1_HOMES`).
- ``"tiered"`` — a tiered internet: a tier-0 full-mesh clique (the
  default-free core), tier-1 and tier-2 transit ASes multihomed to parents
  in the tier above, internet-exchange routers where transit providers
  peer, and stub sites multihomed to tier-2 (or, when homed at an IX, to
  providers that peer there).  Routing is hierarchical
  (:class:`~repro.net.routing.RoutingPlan`): no all-pairs Dijkstra over
  the provider set, so worldbuild stays sub-quadratic at thousands of
  sites.
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

import math
from dataclasses import dataclass
from typing import Optional

from repro.net.addresses import IPv4Prefix
from repro.net.fib import FibEntry
from repro.net.host import Host
from repro.net.link import connect
from repro.net.router import Router
from repro.net.routing import DEFAULT_PREFIX, TierLayout
from repro.net.topology import (DNS_PCE_DELAY, HOST_HUB_DELAY, PCE_HUB_DELAY,
                                XTR_HUB_DELAY, Site, Topology, eid_prefix_for,
                                infra_prefix_for, provider_prefix_for,
                                rloc_for)

FAMILIES = ("fig1", "flat", "tiered", "caida")

#: Provider ``p`` owns ``(10+p).0.0.0/8``; ``10 + p`` must stay <= 255.
MAX_PROVIDERS = 245
#: The site plan's room: infrastructure /24s, hosts ``.10+i``, xTRs ``.30+b``.
SITE_LIMITS = (("num_sites", (256 - 18) * 256), ("hosts_per_site", 256 - 10),
               ("providers_per_site", 256 - 30))
#: The Fig. 1 cast's provider ids: site S on A/B, site D on X/Y.
FIG1_HOMES = ((0, 1), (2, 3))

#: IX routers take one /32 each out of this block (never globally routed).
IX_PREFIX = IPv4Prefix("9.0.0.0/8")

#: Providers peering at each IX (clipped to the transit population).
IX_DEGREE = 4
#: Fraction of stub sites homed *at an IX*: all their providers are drawn
#: from a single exchange's membership.
IX_SITE_FRACTION = 0.25
#: Power-law exponent skewing provider popularity (customer and IX-seat
#: attraction) under ``caida``; ``tiered`` attaches uniformly.
CAIDA_ATTACH_BIAS = 1.2
#: Link delay ranges in seconds: the core clique (the whole mesh on
#: ``flat``/``fig1``), transit uplinks, provider<->IX legs, site access links.
WAN_DELAY_RANGE = (0.010, 0.040)
TRANSIT_DELAY_RANGE = (0.004, 0.015)
IX_DELAY_RANGE = (0.001, 0.004)
ACCESS_DELAY_RANGE = (0.001, 0.005)
#: The random stream every topology draws its delays and choices from.
TOPOLOGY_STREAM = "topology"


@dataclass(frozen=True)
class TopologySpec:
    """Everything that defines a topology, declaratively.

    Specs are frozen; ``ScenarioConfig.topology_spec`` derives one from a
    config's family name and sizing fields.  Fields irrelevant to a family
    are ignored (e.g. ``num_providers`` for ``"tiered"``/``"caida"``,
    whose tier sizes derive from the site count).
    """

    family: str = "flat"
    num_sites: int = 2
    #: Mesh size for ``flat``/``fig1``; tiered families derive their own
    #: tiers, and with them their IX count, from ``num_sites``.
    num_providers: int = 4
    providers_per_site: int = 2
    hosts_per_site: int = 2
    access_rate_bps: Optional[float] = None
    eids_globally_routable: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown topology family {self.family!r}")

    def effective_bias(self):
        return CAIDA_ATTACH_BIAS if self.family == "caida" else 0.0


def check_sizing(spec):
    """Raise ``ValueError`` naming the field *spec* over- or undersizes.

    The one statement of what the address plan and the multihoming degree
    allow, and of the least a world needs (two sites, each with a host
    and a provider home): :func:`build` calls it, and so does
    ``ScenarioConfig`` at construction, so a sweep grid fails at expansion
    with the field named instead of inside a worker.
    """
    for name, least in (("num_sites", 2), ("num_providers", 1),
                        ("providers_per_site", 1), ("hosts_per_site", 1)):
        value = getattr(spec, name)
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    for name, most in SITE_LIMITS:
        if getattr(spec, name) > most:
            raise ValueError(f"{name} {getattr(spec, name)} exceeds {most}")
    if spec.family in ("fig1", "flat"):
        if spec.num_providers > MAX_PROVIDERS:
            raise ValueError(f"num_providers {spec.num_providers} exceeds "
                             f"{MAX_PROVIDERS}")
        if spec.providers_per_site > spec.num_providers:
            raise ValueError(
                f"providers_per_site {spec.providers_per_site} exceeds "
                f"num_providers {spec.num_providers}")
        if spec.family == "fig1":
            cast = 1 + max(map(max, FIG1_HOMES))
            if spec.num_providers < cast:
                raise ValueError(f"num_providers {spec.num_providers} is "
                                 f"below fig1's {cast}")
            if spec.providers_per_site != len(FIG1_HOMES[0]):
                raise ValueError(
                    f"providers_per_site {spec.providers_per_site} is not "
                    f"fig1's {len(FIG1_HOMES[0])}")
        return
    _t0, t1, t2 = _tier_sizes(spec)
    if spec.providers_per_site > t1 + t2:
        raise ValueError(
            f"providers_per_site {spec.providers_per_site} exceeds the "
            f"transit population {t1 + t2}")


def build(sim, spec):
    """Build the world described by *spec* (the single topology entry point)."""
    check_sizing(spec)
    rng = sim.rng.stream(TOPOLOGY_STREAM)
    draw = _draw_mesh if spec.family in ("fig1", "flat") else _draw_tiered
    layout, homes = draw(spec, rng)
    return _materialise(sim, spec, layout, homes)


def _draw_homes(rng, provider_ids):
    """One site's homes: each provider id with its access-link delay."""
    return tuple((pid, rng.uniform(*ACCESS_DELAY_RANGE))
                 for pid in provider_ids)


# --------------------------------------------------------------------------- #
# Single-tier families: the flat mesh and Fig. 1
# --------------------------------------------------------------------------- #

def _draw_mesh(spec, rng):
    n = spec.num_providers
    core_links = tuple((a, b, rng.uniform(*WAN_DELAY_RANGE))
                       for a in range(n) for b in range(a + 1, n))
    layout = TierLayout(tiers=(tuple(range(n)),), core_links=core_links)
    if spec.family == "fig1":
        assignments = FIG1_HOMES
    else:
        assignments = [_rotation(s, n, spec.providers_per_site)
                       for s in range(spec.num_sites)]
    return layout, [_draw_homes(rng, chosen) for chosen in assignments]


def _rotation(s, num_providers, providers_per_site):
    """Site *s*'s providers: a deterministic but varied rotation through
    the mesh.  When gcd(stride, num_providers) > 1 the rotation only visits
    a subgroup, so the candidate order is completed with the remaining
    providers instead of cycling forever."""
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
    return order[:providers_per_site]


# --------------------------------------------------------------------------- #
# Tiered families
# --------------------------------------------------------------------------- #

def _tier_sizes(spec):
    """Tier populations, derived from num_sites.

    Each tier grows sublinearly in the site count (CAIDA-style: a small
    dense core, a modest tier-1, a broad tier-2 edge) up to its cap, so
    the transit population never passes 8 + 24 + 160 = 192, inside the
    /8 address plan's 245.
    """
    n = max(1, spec.num_sites)
    t0 = min(8, max(2, round(n ** 0.25)))
    t1 = min(24, max(3, round(n ** 0.5 / 2) + 1))
    t2 = min(160, max(4, spec.providers_per_site, round(n / 25)))
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
        total = math.fsum(pool_weights)
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


def _draw_tiered(spec, rng):
    t0, t1, t2 = _tier_sizes(spec)
    bias = spec.effective_bias()
    num_providers = t0 + t1 + t2
    tiers = (tuple(range(t0)), tuple(range(t0, t0 + t1)),
             tuple(range(t0 + t1, num_providers)))

    # Tier-0 clique: the default-free core, long-haul delays.
    core_links = tuple((a, b, rng.uniform(*WAN_DELAY_RANGE))
                       for a in tiers[0] for b in tiers[0] if b > a)

    # Transit uplinks: every T1/T2 AS multihomes to 1-2 parents above it,
    # megaprovider-weighted under the caida preset.
    uplinks = {}
    for tier in (1, 2):
        parent_ids = tiers[tier - 1]
        parent_weights = _rank_weights(len(parent_ids), bias)
        for pid in tiers[tier]:
            fanout = min(len(parent_ids), 1 + (1 if rng.random() < 0.5 else 0))
            parents = _weighted_sample(rng, parent_ids, parent_weights, fanout)
            uplinks[pid] = tuple((parent_id, rng.uniform(*TRANSIT_DELAY_RANGE))
                                 for parent_id in parents)

    # Internet exchanges: neutral routers where transit providers peer.
    transit_ids = list(tiers[1]) + list(tiers[2])
    transit_weights = _rank_weights(len(transit_ids), bias)
    ix_degree = max(2, min(IX_DEGREE, len(transit_ids)))
    ixps = []
    for _ in range(max(1, len(transit_ids) // 8)):
        member_ids = _weighted_sample(rng, transit_ids, transit_weights,
                                      ix_degree)
        ixps.append(tuple((pid, rng.uniform(*IX_DELAY_RANGE))
                          for pid in member_ids))

    # Stub sites home to the tier-2 edge (tier-1 joins the pool only when
    # the edge is too small), or to a single IX's membership when IX-homed.
    pool = list(tiers[2]) if t2 >= spec.providers_per_site else transit_ids
    weight_of = dict(zip(pool, _rank_weights(len(pool), bias)))
    eligible_ixps = [members for members in ixps
                     if sum(pid in weight_of for pid, _delay in members)
                     >= spec.providers_per_site]
    homes = []
    for _ in range(spec.num_sites):
        if eligible_ixps and rng.random() < IX_SITE_FRACTION:
            members = eligible_ixps[rng.randrange(len(eligible_ixps))]
            candidates = [pid for pid, _delay in members if pid in weight_of]
        else:
            candidates = pool
        chosen = _weighted_sample(rng, candidates,
                                  [weight_of[pid] for pid in candidates],
                                  spec.providers_per_site)
        homes.append(_draw_homes(rng, chosen))
    layout = TierLayout(tiers=tiers, core_links=core_links, uplinks=uplinks,
                        ixps=tuple(ixps))
    return layout, homes


# --------------------------------------------------------------------------- #
# The materialiser (shared by every family)
# --------------------------------------------------------------------------- #

def _materialise(sim, spec, layout, homes):
    """Routers and links for a drawn *layout*, then one site per *homes*
    entry; every fabric interface is named ``to-<peer node>``."""
    num_providers = sum(len(tier) for tier in layout.tiers)
    providers = []
    provider_prefixes = []
    for p in range(num_providers):
        router = Router(sim, f"prov{p}")
        router.add_address(provider_prefix_for(p).address_at(1))
        providers.append(router)
        provider_prefixes.append(provider_prefix_for(p))
    for a, b, delay in layout.core_links:
        iface_a = providers[a].add_interface(f"to-prov{b}")
        iface_b = providers[b].add_interface(f"to-prov{a}")
        connect(sim, iface_a, iface_b, delay=delay)
    for pid, records in layout.uplinks.items():
        for parent_id, delay in records:
            up_iface = providers[pid].add_interface(f"to-prov{parent_id}")
            down_iface = providers[parent_id].add_interface(f"to-prov{pid}")
            connect(sim, down_iface, up_iface, delay=delay)
    ix_routers = []
    for i, members in enumerate(layout.ixps):
        ix_router = Router(sim, f"ix{i}")
        ix_router.add_address(IX_PREFIX.address_at(i * 256 + 1))
        for pid, delay in members:
            provider_iface = providers[pid].add_interface(f"to-ix{i}")
            ix_iface = ix_router.add_interface(f"to-prov{pid}")
            connect(sim, provider_iface, ix_iface, delay=delay)
        ix_routers.append(ix_router)

    topology = Topology(sim=sim, providers=providers,
                        provider_prefixes=provider_prefixes, sites=[],
                        tier_layout=layout, ix_routers=ix_routers,
                        eids_globally_routable=spec.eids_globally_routable)
    for p, router in enumerate(providers):
        topology.attachments.append((provider_prefixes[p], router, None))
    for s, site_homes in enumerate(homes):
        topology.sites.append(_build_site(sim, topology, s, site_homes,
                                          spec.hosts_per_site,
                                          spec.access_rate_bps))
    topology.install_global_routes()
    return topology


# --------------------------------------------------------------------------- #
# Site construction (shared by every family)
# --------------------------------------------------------------------------- #

def _build_site(sim, topology, s, homes, hosts_per_site, access_rate_bps):
    """Stub site *s*, one xTR per ``(provider_id, access_delay)`` home;
    each address and /32 derived once ("Addresses" in docs/contracts.md)."""
    name = f"site{s}"
    eid_prefix = eid_prefix_for(s)
    infra_prefix = infra_prefix_for(s)
    dns_address = infra_prefix.address_at(10)
    pce_address = infra_prefix.address_at(20)

    hub = Router(sim, f"{name}-hub")
    hub.add_address(eid_prefix.address_at(1))
    dns_node = Host(sim, f"{name}-dns", address=dns_address)
    pce_node = Router(sim, f"{name}-pce")
    pce_node.add_address(pce_address)

    site = Site(index=s, name=name, eid_prefix=eid_prefix, infra_prefix=infra_prefix,
                dns_address=dns_address, pce_address=pce_address,
                hub=hub, dns_node=dns_node, pce_node=pce_node)

    site.provider_ids = [pid for pid, _delay in homes]

    # Hosts on the hub.
    for i in range(hosts_per_site):
        host = Host(sim, f"{name}-host{i}", address=eid_prefix.address_at(10 + i))
        host_iface = host.add_interface("up")
        hub_iface = hub.add_interface(f"to-host{i}")
        connect(sim, hub_iface, host_iface, delay=HOST_HUB_DELAY)
        host.fib.insert(FibEntry(DEFAULT_PREFIX, host_iface))
        hub.fib.insert(FibEntry(IPv4Prefix._trusted(host.address._value, 32), hub_iface))
        site.hosts.append(host)

    # DNS behind PCE: dns -- pce -- hub.
    dns_iface = dns_node.add_interface("up")
    pce_dns_iface = pce_node.add_interface("to-dns")
    connect(sim, pce_dns_iface, dns_iface, delay=DNS_PCE_DELAY)
    dns_node.fib.insert(FibEntry(DEFAULT_PREFIX, dns_iface))

    pce_hub_iface = pce_node.add_interface("to-hub")
    hub_pce_iface = hub.add_interface("to-pce")
    connect(sim, hub_pce_iface, pce_hub_iface, delay=PCE_HUB_DELAY)
    dns_host_prefix = IPv4Prefix._trusted(dns_address._value, 32)
    pce_node.fib.insert(FibEntry(dns_host_prefix, pce_dns_iface))
    pce_node.fib.insert(FibEntry(DEFAULT_PREFIX, pce_hub_iface))
    hub.fib.insert(FibEntry(dns_host_prefix, hub_pce_iface))
    hub.fib.insert(FibEntry(IPv4Prefix._trusted(pce_address._value, 32), hub_pce_iface))

    # xTRs: one per provider.
    for b, (p, access_delay) in enumerate(homes):
        xtr = Router(sim, f"{name}-xtr{b}")
        rloc = rloc_for(p, s, b)
        control_address = infra_prefix.address_at(30 + b)
        xtr.add_address(rloc)
        xtr.add_address(control_address)
        xtr.register_service("rloc", rloc)
        xtr.register_service("site", site)
        xtr.register_service("provider_id", p)

        xtr_hub_iface = xtr.add_interface("to-hub")
        hub_xtr_iface = hub.add_interface(f"to-xtr{b}")
        connect(sim, hub_xtr_iface, xtr_hub_iface, delay=XTR_HUB_DELAY)

        provider = topology.providers[p]
        xtr_up_iface = xtr.add_interface("up", address=rloc)
        provider_iface = provider.add_interface(f"to-{name}-xtr{b}")
        downlink, uplink = connect(sim, provider_iface, xtr_up_iface, delay=access_delay,
                                   rate_bps=access_rate_bps)
        site.access_links.append({"uplink": uplink, "downlink": downlink})
        site.hub_links.append({"hub_iface": hub_xtr_iface})

        # xTR routing: site prefixes inward, everything else to the provider.
        xtr.fib.insert(FibEntry(eid_prefix, xtr_hub_iface))
        xtr.fib.insert(FibEntry(infra_prefix, xtr_hub_iface))
        xtr.fib.insert(FibEntry(DEFAULT_PREFIX, xtr_up_iface))

        # Hub can reach each xTR's control address.
        hub.fib.insert(FibEntry(IPv4Prefix._trusted(control_address._value, 32),
                                hub_xtr_iface))
        # Provider can deliver to the xTR's RLOC.
        topology.attachments.append((IPv4Prefix._trusted(rloc._value, 32), provider,
                                     provider_iface))

        site.xtrs.append(xtr)
        site.access_delays.append(access_delay)

        if b == 0:
            # Home attachment: the site's infrastructure prefix (and its EID
            # prefix, in plain-IP mode) is reachable via xtr0.
            topology.attachments.append((infra_prefix, provider, provider_iface))
            if topology.eids_globally_routable:
                topology.attachments.append((eid_prefix, provider, provider_iface))

    # Hub default: out via xtr0 (TE may override per destination later).
    hub.fib.insert(FibEntry(DEFAULT_PREFIX, hub.interfaces["to-xtr0"]))
    return site
