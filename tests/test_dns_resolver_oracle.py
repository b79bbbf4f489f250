"""Reference-model oracle for the recursive resolver's referral walk.

A :class:`~repro.dns.resolver.RecursiveResolver` answers a name by asking
the root, following referrals down to the zone that holds the name, and
caching answers, NXDOMAINs and referrals for their TTLs.  Generated DNS
hierarchies (0–3 levels between the TLD and the sites, names that do not
exist, caching on and off) are queried at generated instants, so cached
entries live and expire.  For every query, a model that walks the
:class:`~repro.dns.zone.Zone` objects directly gives the answer records or
rcode and the servers asked, in order; the resolver must agree on all
three.
"""

from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dns.hierarchy import ROOT_ADDRESS, TLD_ADDRESS, install_dns
from repro.dns.message import DnsMessage
from repro.dns.records import (RCODE_NOERROR, RCODE_NXDOMAIN, RCODE_SERVFAIL,
                               TYPE_A)
from repro.dns import resolver as resolver_module
from repro.dns.resolver import MAX_REFERRALS
from repro.net.addresses import IPv4Address
from repro.net.host import UdpSocket
from repro.net.topogen import TopologySpec, build
from repro.sim import Simulator

#: Queries start on a grid of GRID seconds, and every walk ends within half
#: of it.  An entry cached at t0 + δ is read at t + ε, both offsets under
#: GRID / 2, and every TTL of a record and of the negative cache is an odd
#: multiple of GRID / 2, so the entry is live iff ``t - t0 <= ttl``,
#: whatever the link delays.  The
#: delegations' 3600 s is a whole multiple, but no gap sum reaches it
#: without a 4000 s gap, which outlives it.
GRID = 20.0
GAPS = (20.0, 40.0, 60.0, 120.0, 4000.0)
#: TTLs of host records.
TTLS = (30.0, 50.0, 70.0)
#: The negative cache's TTL in these worlds (``resolver.NEGATIVE_TTL``).
NEGATIVE_TTL = 50.0


class _ReferenceResolver:
    """The resolver's contract, walked over the zones by address.

    Caches map a key to ``(start of the query that filled it, ttl,
    value)``: answers by name, NXDOMAINs by name, referral servers by the
    delegated zone's origin.
    """

    def __init__(self, zones, use_cache):
        self.zones = zones
        self.use_cache = use_cache
        self.answers = {}
        self.negative = {}
        self.referrals = {}

    def _cached(self, cache, key, now):
        entry = cache.get(key) if self.use_cache else None
        if entry is not None and now - entry[0] <= entry[1]:
            return entry[2]
        return None

    def _first_servers(self, qname, now):
        """The servers of the deepest live referral above *qname*, else
        the root."""
        labels = qname.rstrip(".").split(".")
        for start in range(len(labels)):
            servers = self._cached(self.referrals,
                                   ".".join(labels[start:]) + ".", now)
            if servers is not None:
                return servers
        return [ROOT_ADDRESS]

    def resolve(self, qname, now, asked):
        """``(rcode, answer records)``; servers asked appended to *asked*."""
        cached = self._cached(self.answers, qname, now)
        if cached is not None:
            return RCODE_NOERROR, cached
        if self._cached(self.negative, qname, now) is not None:
            return RCODE_NXDOMAIN, []
        servers = self._first_servers(qname, now)
        for _step in range(MAX_REFERRALS):
            asked.append(servers[0])
            result = self.zones[servers[0]].lookup(qname, TYPE_A)
            if result.rcode == RCODE_NXDOMAIN:
                if self.use_cache:
                    self.negative[qname] = (now, NEGATIVE_TTL, True)
                return RCODE_NXDOMAIN, []
            if result.answers:
                answers = list(result.answers)
                if self.use_cache:
                    self.answers[qname] = (now, min(r.ttl for r in answers),
                                           answers)
                return RCODE_NOERROR, answers
            glue = {r.name: r.data for r in result.additionals}
            servers = [glue[ns.data] for ns in result.authorities]
            if self.use_cache:
                self.referrals[result.authorities[0].name] = (
                    now, min(ns.ttl for ns in result.authorities), servers)
        return RCODE_SERVFAIL, []


def _dns_world(extra_levels, use_cache, host_ttl):
    """A 3-site world with its DNS.

    Returns the world, its DNS, the zones by server address and every
    name worth asking for.
    """
    sim = Simulator(seed=7)
    topology = build(sim, TopologySpec(num_sites=3, num_providers=2))
    dns = install_dns(topology, host_ttl=host_ttl, extra_levels=extra_levels,
                      use_cache=use_cache)
    zones = {ROOT_ADDRESS: dns.root_server.zone,
             TLD_ADDRESS: dns.tld_server.zone}
    zones.update((server.node.address, server.zone)
                 for server in dns.level_servers)
    zones.update((site.dns_address, dns.resolver_for(site).zone)
                 for site in topology.sites)
    hosts = [dns.host_name(site, index) for site in topology.sites
             for index in range(len(site.hosts))]
    missing = [f"nohost.{dns.site_domain(topology.sites[1])}",
               f"host0.site9.{dns.site_suffix}", "www.other.",
               dns.site_suffix, dns.site_domain(topology.sites[2])]
    return sim, topology, dns, zones, hosts + missing


def _asking(resolver_node):
    """Patch that records the servers *resolver_node* sends DNS queries to."""
    asked = []
    request = UdpSocket.request

    def recording(socket, dst, dport, payload=None, **kwargs):
        if socket.host is resolver_node and isinstance(payload, DnsMessage):
            asked.append(IPv4Address(dst))
        return request(socket, dst, dport, payload=payload, **kwargs)
    return asked, mock.patch.object(UdpSocket, "request", recording)


queries = st.lists(st.tuples(st.integers(0, 63), st.sampled_from(GAPS)),
                   min_size=1, max_size=14)


@settings(max_examples=80, deadline=None)
@given(extra_levels=st.integers(0, 3), use_cache=st.booleans(),
       host_ttl=st.sampled_from(TTLS), queries=queries)
# Two hosts of one site and a missing name beside them: the first walk
# starts at the root, the later ones at the site's own server.
@example(extra_levels=3, use_cache=True, host_ttl=70.0,
         queries=[(2, 20.0), (3, 20.0), (6, 20.0)])
# Site1's host1 asked, asked again from the cache, then past its TTL.
@example(extra_levels=1, use_cache=True, host_ttl=30.0,
         queries=[(3, 20.0), (3, 20.0), (3, 40.0)])
def test_resolver_matches_the_zone_walk(extra_levels, use_cache, host_ttl,
                                        queries):
    sim, topology, dns, zones, names = _dns_world(extra_levels, use_cache,
                                                  host_ttl)
    resolver = dns.resolver_for(topology.sites[0])
    model = _ReferenceResolver(zones, use_cache)
    asked, recording = _asking(resolver.node)
    started = sim.now
    with recording, mock.patch.object(resolver_module, "NEGATIVE_TTL",
                                      NEGATIVE_TTL):
        for pick, gap in queries:
            # Queries start on the grid; the deadlines of answered requests
            # fire idle in between.
            started += gap
            sim.run(until=started)
            qname = names[pick % len(names)]
            resolution = resolver.resolve(qname)
            sim.run(until=started + GRID / 2)
            assert resolution._triggered, qname
            expected_asked = []
            expected = model.resolve(qname, started, expected_asked)
            reply = resolution.value
            assert (reply.rcode, reply.answers) == expected, qname
            assert asked == expected_asked, qname
            asked.clear()

