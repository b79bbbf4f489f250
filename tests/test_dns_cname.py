"""Tests for CNAME records: zone chasing and resolver chain-following."""

import pytest
from conftest import sent_by

from repro.dns.hierarchy import install_dns
from repro.dns.records import RCODE_NOERROR, TYPE_A, TYPE_CNAME
from repro.dns.resolver import StubResolver
from repro.dns.zone import Zone
from repro.net.addresses import IPv4Address
from repro.net.topogen import TopologySpec, build
from repro.sim import Simulator


def test_zone_cname_with_in_zone_target():
    zone = Zone("site1.example.")
    zone.add_a("host0.site1.example.", "100.0.1.10")
    zone.add_cname("www.site1.example.", "host0.site1.example.")
    result = zone.lookup("www.site1.example.", TYPE_A)
    assert result.rcode == RCODE_NOERROR
    types = [record.rtype for record in result.answers]
    assert types == [TYPE_CNAME, TYPE_A]
    assert result.answers[-1].data == IPv4Address("100.0.1.10")


def test_zone_cname_chain():
    zone = Zone("site1.example.")
    zone.add_a("host0.site1.example.", "100.0.1.10")
    zone.add_cname("a.site1.example.", "b.site1.example.")
    zone.add_cname("b.site1.example.", "host0.site1.example.")
    result = zone.lookup("a.site1.example.", TYPE_A)
    assert [record.rtype for record in result.answers] == [TYPE_CNAME, TYPE_CNAME, TYPE_A]


def test_zone_cname_dangling_target_returns_chain_only():
    zone = Zone("site1.example.")
    zone.add_cname("www.site1.example.", "elsewhere.other.")
    result = zone.lookup("www.site1.example.", TYPE_A)
    assert len(result.answers) == 1
    assert result.answers[0].rtype == TYPE_CNAME


def test_zone_cname_loop_terminates():
    zone = Zone("site1.example.")
    zone.add_cname("a.site1.example.", "b.site1.example.")
    zone.add_cname("b.site1.example.", "a.site1.example.")
    result = zone.lookup("a.site1.example.", TYPE_A)
    assert result.rcode == RCODE_NOERROR  # chain returned, no A record
    assert all(record.rtype == TYPE_CNAME for record in result.answers)


@pytest.fixture
def dns_world():
    sim = Simulator(seed=47)
    topology = build(sim, TopologySpec(num_sites=3, num_providers=4))
    dns = install_dns(topology)
    return sim, topology, dns


def lookup(sim, topology, dns, qname, src_site=0):
    site = topology.sites[src_site]
    stub = StubResolver(sim, site.hosts[0], site.dns_address)
    proc = stub.lookup(qname)
    sim.run()
    return proc.value


def add_alias(dns, site, label, host_index):
    """``<label>.<site-domain>`` as a CNAME for one of *site*'s hosts."""
    alias = f"{label}.{dns.site_domain(site)}"
    dns.resolvers[site.index].zone.add_cname(
        alias, dns.host_name(site, host_index), ttl=dns.host_ttl)
    return alias


def test_alias_resolves_within_site_zone(dns_world):
    sim, topology, dns = dns_world
    alias = add_alias(dns, topology.sites[1], "www", 0)
    address, _elapsed = lookup(sim, topology, dns, alias)
    assert address == topology.sites[1].hosts[0].address


def test_cross_zone_alias_followed_by_resolver(dns_world):
    sim, topology, dns = dns_world
    # site1's zone aliases to a host in site2's zone: the resolver must
    # restart the iterative walk at the canonical name.
    zone1 = dns.resolvers[1].zone
    zone1.add_cname(f"mirror.{dns.site_domain(topology.sites[1])}",
                    dns.host_name(topology.sites[2], 0))
    address, _ = lookup(sim, topology, dns,
                        f"mirror.{dns.site_domain(topology.sites[1])}")
    assert address == topology.sites[2].hosts[0].address


def test_cross_zone_alias_loop_gives_no_address(dns_world):
    sim, topology, dns = dns_world
    zone1 = dns.resolvers[1].zone
    zone2 = dns.resolvers[2].zone
    name1 = f"loop.{dns.site_domain(topology.sites[1])}"
    name2 = f"loop.{dns.site_domain(topology.sites[2])}"
    zone1.add_cname(name1, name2)
    zone2.add_cname(name2, name1)
    address, _ = lookup(sim, topology, dns, name1)
    assert address is None


def test_alias_answer_cached(dns_world, dns_queries):
    sim, topology, dns = dns_world
    alias = add_alias(dns, topology.sites[1], "www", 1)
    lookup(sim, topology, dns, alias)
    resolver = dns.resolvers[0]
    upstream = sent_by(dns_queries, resolver.node)
    address, elapsed = lookup(sim, topology, dns, alias)
    assert address == topology.sites[1].hosts[1].address
    assert sent_by(dns_queries, resolver.node) == upstream  # from cache
    assert elapsed < 0.005
