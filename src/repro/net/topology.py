"""The built world: the transit fabric, stub sites and their address plan.

A :class:`Topology` is what :mod:`repro.net.topogen` materialises — in the
Fig. 1 case, stub sites ("AS_S", "AS_D") multihomed to providers
("Provider A/B" for the source site, "X/Y" for the destination site), with
the provider routers forming the "Internet" in the middle of the figure;
in general, the provider fabric a :class:`~repro.net.routing.TierLayout`
describes, routed by the one :class:`~repro.net.routing.RoutingPlan` the
topology builds with it.

Per-site wiring (all point-to-point links)::

    host_0 ... host_n          (EID addresses, site-internal only)
        \\   |   /
          [hub]----[xtr_0]----(provider p0 edge)     xtr RLOC from p0's /8
            |  \\---[xtr_1]----(provider p1 edge)     xtr RLOC from p1's /8
          [pce]                (infrastructure address, globally routable)
            |
          [dns]                (infrastructure address, globally routable)

The DNS server's **only** link goes through the PCE node, which makes the
PCE "in the data path of the DNS servers" (paper §2, Steps 2-5) a physical
property of the topology rather than a modelling convention.

Address plan
------------
- Provider ``p`` owns ``(10+p).0.0.0/8`` (locator space, mirrors Fig. 1's
  10/8-13/8 annotations).
- Site ``s`` EID prefix: ``100.(s>>8).(s&255).0/24`` — never installed in
  provider FIBs unless ``eids_globally_routable`` (the plain-IP baseline).
- Site ``s`` infrastructure prefix: ``198.(18+(s>>8)).(s&255).0/24``; DNS at
  ``.10``, PCE at ``.20``, xTR control addresses at ``.30+b``.  Routed
  globally via the site's first provider (its "home").
- xTR ``b`` of site ``s`` on provider ``p``: RLOC ``(10+p).(1+(s>>8)).(s&255).(b+1)``.
"""

from dataclasses import dataclass, field

from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.net.errors import AddressError
from repro.net.fib import FibEntry
from repro.net.host import Host
from repro.net.link import connect
from repro.net.router import Router
from repro.net.routing import DEFAULT_PREFIX, RoutingPlan

# Intra-site link delays (seconds). Small against WAN delays, as in a campus.
HOST_HUB_DELAY = 0.0001
DNS_PCE_DELAY = 0.00005
PCE_HUB_DELAY = 0.0001
XTR_HUB_DELAY = 0.0002


@dataclass
class Site:
    """One stub domain: hosts, DNS+PCE pair, and one xTR per provider."""

    index: int
    name: str
    eid_prefix: IPv4Prefix
    infra_prefix: IPv4Prefix
    dns_address: IPv4Address
    pce_address: IPv4Address
    hub: Router
    dns_node: Host
    pce_node: Router
    hosts: list = field(default_factory=list)
    xtrs: list = field(default_factory=list)
    provider_ids: list = field(default_factory=list)
    access_delays: list = field(default_factory=list)
    #: per-xTR access links: {"uplink": xtr->provider, "downlink": provider->xtr}
    access_links: list = field(default_factory=list)
    #: per-xTR hub-side handles: {"hub_iface": hub's iface to this xTR}
    hub_links: list = field(default_factory=list)

    def xtr_control_address(self, b):
        """Site-internal control address of xTR *b* (mapping pushes go here)."""
        return self.infra_prefix.address_at(30 + b)

    def rloc_of(self, b):
        return self.xtrs[b].services["rloc"]

    def __str__(self):
        return self.name


@dataclass
class Topology:
    """The built world: providers, sites, and shared infrastructure hosts."""

    sim: object
    providers: list
    provider_prefixes: list
    sites: list
    #: The transit fabric's :class:`~repro.net.routing.TierLayout` (one
    #: tier on ``flat``/``fig1``).
    tier_layout: object = field(repr=False)
    infra_hosts: dict = field(default_factory=dict)
    attachments: list = field(default_factory=list)
    eids_globally_routable: bool = False
    #: Internet-exchange routers (tiered families only).
    ix_routers: list = field(default_factory=list)
    #: The fabric's :class:`~repro.net.routing.RoutingPlan`, built with the
    #: topology: nothing changes a fabric link afterwards.
    routing_plan: object = field(init=False, repr=False)
    #: How many ``attachments`` entries have already been installed.
    _routes_installed: int = field(default=0, repr=False)

    def __post_init__(self):
        self.routing_plan = RoutingPlan(self)

    def all_nodes(self):
        nodes = list(self.providers)
        nodes.extend(self.ix_routers)
        for site in self.sites:
            nodes.append(site.hub)
            nodes.append(site.dns_node)
            nodes.append(site.pce_node)
            nodes.extend(site.hosts)
            nodes.extend(site.xtrs)
        nodes.extend(self.infra_hosts.values())
        return nodes

    def site_of_eid(self, eid):
        """The site whose EID prefix contains *eid* (None if none): site
        ``s`` is ``sites[s]`` and owns ``eid_prefix_for(s)``."""
        value = IPv4Address(eid)._value
        index = value >> 8 & 0xFFFF
        if value >> 24 == 100 and index < len(self.sites):
            return self.sites[index]
        return None

    def attach_infra_host(self, provider_id, name, address):
        """Attach a shared infrastructure host (e.g. root/TLD DNS) to a provider.

        The host gets a /32 visible from the whole mesh.  Must be called
        before :meth:`install_global_routes`.
        """
        provider = self.providers[provider_id]
        host = Host(self.sim, name, address=address)
        host_iface = host.add_interface("up")
        provider_iface = provider.add_interface(f"to-{name}")
        connect(self.sim, provider_iface, host_iface, delay=0.0005)
        host.fib.insert(FibEntry(DEFAULT_PREFIX, host_iface))
        self.attachments.append((IPv4Prefix(int(IPv4Address(address)), 32),
                                 provider, provider_iface))
        self.infra_hosts[name] = host
        return host

    def install_global_routes(self):
        """Install fabric routes for attachments added since last call.

        Incremental: only the not-yet-installed tail of ``attachments``
        goes through :attr:`routing_plan`, so attaching infrastructure
        hosts after the initial build (DNS roots, CONS CDRs, the NERD
        authority) costs O(new attachments x core) and recomputes nothing.
        """
        pending = self.attachments[self._routes_installed:]
        if pending:
            self.routing_plan.install(pending)
        self._routes_installed = len(self.attachments)


def _plan_value(*octets):
    """Four plan octets' address; raises what their dotted quad's parse would."""
    value = 0
    for octet in octets:
        if not 0 <= octet <= 255:
            raise AddressError(
                f"bad IPv4 address {'.'.join(map(str, octets))!r}")
        value = value << 8 | octet
    return value


def eid_prefix_for(site_index):
    return IPv4Prefix(_plan_value(100, site_index >> 8, site_index & 255, 0), 24)


def infra_prefix_for(site_index):
    return IPv4Prefix(_plan_value(198, 18 + (site_index >> 8), site_index & 255, 0), 24)


def provider_prefix_for(provider_id):
    return IPv4Prefix(_plan_value(10 + provider_id, 0, 0, 0), 8)


def rloc_for(provider_id, site_index, xtr_index):
    return IPv4Address(_plan_value(10 + provider_id, 1 + (site_index >> 8),
                                   site_index & 255, xtr_index + 1))
