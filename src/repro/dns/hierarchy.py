"""Builds the DNS hierarchy over a topology.

Layout (depth 3, the default)::

    root servers               "."           delegate example. -> TLD server
    TLD server                 "example."    delegate siteN.<suffix> -> site DNS
    site DNS (on-site)         "siteN.example."   A records for the site's hosts

``extra_levels`` inserts intermediate authoritative servers between the TLD
and the sites (e.g. ``corp.example.``), lengthening the iterative walk —
used by experiment E2's DNS-depth sweep.
"""

from dataclasses import dataclass, field

from repro.dns.resolver import RecursiveResolver
from repro.dns.server import AuthoritativeServer
from repro.dns.zone import Zone
from repro.net.addresses import IPv4Address

ROOT_ADDRESS = IPv4Address("198.41.0.4")
TLD_ADDRESS = IPv4Address("192.5.6.30")


def _level_address(level):
    return IPv4Address(f"192.5.7.{10 + level}")


@dataclass
class DnsSystem:
    """Handles to every piece of the installed DNS."""

    topology: object
    root_server: AuthoritativeServer
    tld_server: AuthoritativeServer
    level_servers: list
    resolvers: dict = field(default_factory=dict)
    site_suffix: str = "example."
    host_ttl: float = 60.0

    def resolver_for(self, site):
        return self.resolvers[site.index]

    def site_domain(self, site):
        return f"{site.name}.{self.site_suffix}"

    def host_name(self, site, host_index):
        return f"host{host_index}.{self.site_domain(site)}"



def install_dns(topology, host_ttl=60.0, extra_levels=0, use_cache=True):
    """Create root/TLD/intermediate servers and per-site resolvers.

    Re-installs global routes to cover the new infrastructure hosts.
    Returns a :class:`DnsSystem`.
    """
    sim = topology.sim
    num_providers = len(topology.providers)

    # Suffix under which sites live, growing with extra levels:
    #   example.  ->  lvl0.example.  ->  lvl1.lvl0.example. ...
    suffix = "example."
    chain = []  # (zone_origin, server_address) of intermediate levels
    for level in range(extra_levels):
        suffix = f"lvl{level}.{suffix}"
        chain.append((suffix, _level_address(level)))

    # Root zone delegates the TLD.
    root_zone = Zone(".")
    root_zone.delegate("example.", "a.gtld-servers.net.", TLD_ADDRESS)

    # TLD zone delegates either the first intermediate level or the sites.
    tld_zone = Zone("example.")

    level_zones = []
    parent_zone = tld_zone
    for origin, address in chain:
        parent_zone.delegate(origin, f"ns.{origin}", address)
        level_zone = Zone(origin)
        level_zones.append((origin, address, level_zone))
        parent_zone = level_zone

    # Delegate each site from the deepest level.
    for site in topology.sites:
        site_domain = f"{site.name}.{suffix}"
        parent_zone.delegate(site_domain, f"ns.{site_domain}", site.dns_address)

    # Attach shared servers to providers (round-robin).
    root_host = topology.attach_infra_host(0, "root-dns", ROOT_ADDRESS)
    tld_host = topology.attach_infra_host(1 % num_providers, "tld-dns", TLD_ADDRESS)
    root_server = AuthoritativeServer(sim, root_host, root_zone)
    tld_server = AuthoritativeServer(sim, tld_host, tld_zone)
    level_servers = []
    for index, (_origin, address, level_zone) in enumerate(level_zones):
        host = topology.attach_infra_host((2 + index) % num_providers,
                                          f"lvl{index}-dns", address)
        level_servers.append(AuthoritativeServer(sim, host, level_zone))

    # Per-site zones and resolvers.
    system = DnsSystem(topology=topology, root_server=root_server,
                       tld_server=tld_server, level_servers=level_servers,
                       site_suffix=suffix, host_ttl=host_ttl)
    for site in topology.sites:
        site_domain = f"{site.name}.{suffix}"
        zone = Zone(site_domain)
        for i, host in enumerate(site.hosts):
            zone.add_a(f"host{i}.{site_domain}", host.address, ttl=host_ttl)
        resolver = RecursiveResolver(sim, site.dns_node, root_hints=[ROOT_ADDRESS],
                                     authoritative_zone=zone,
                                     use_cache=use_cache)
        system.resolvers[site.index] = resolver

    topology.install_global_routes()
    return system
