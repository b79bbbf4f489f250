"""Tests for resolver query coalescing and negative caching."""

from conftest import cache_reads, sent_by

from repro.dns.hierarchy import install_dns
from repro.dns.resolver import NEGATIVE_TTL, StubResolver
from repro.net.topogen import TopologySpec, build
from repro.sim import Simulator


def make_world(seed=91, use_cache=True):
    sim = Simulator(seed=seed)
    topology = build(sim, TopologySpec(num_sites=3, num_providers=4))
    dns = install_dns(topology, use_cache=use_cache)
    return sim, topology, dns


def test_concurrent_identical_queries_coalesce(dns_queries):
    sim, topology, dns = make_world()
    site = topology.sites[0]
    qname = dns.host_name(topology.sites[1], 0)
    resolver = dns.resolvers[site.index]
    reads = cache_reads(resolver.answer_cache)
    stubs = [StubResolver(sim, host, site.dns_address) for host in site.hosts]
    procs = [stub.lookup(qname) for stub in stubs]
    sim.run()
    # Both clients got the answer...
    for proc in procs:
        address, _elapsed = proc.value
        assert address == topology.sites[1].hosts[0].address
    # ...from a single iterative walk: one query missed the answer cache
    # and walked, the other rode that walk without a cache read of its own.
    assert reads == [None]
    assert sent_by(dns_queries, resolver.node) == 3  # root, TLD, authoritative


def test_different_names_not_coalesced():
    sim, topology, dns = make_world()
    site = topology.sites[0]
    reads = cache_reads(dns.resolvers[site.index].answer_cache)
    stub = StubResolver(sim, site.hosts[0], site.dns_address)
    procs = [stub.lookup(dns.host_name(topology.sites[1], 0)),
             stub.lookup(dns.host_name(topology.sites[2], 0))]
    sim.run()
    assert reads == [None, None]    # each name missed and walked its own
    for proc in procs:
        assert proc.value[0] is not None


def test_nxdomain_negatively_cached(dns_queries):
    sim, topology, dns = make_world()
    site = topology.sites[0]
    stub = StubResolver(sim, site.hosts[0], site.dns_address)
    missing = f"nosuch.{dns.site_domain(topology.sites[1])}"
    first = stub.lookup(missing)
    sim.run()
    assert first.value[0] is None
    resolver = dns.resolvers[site.index]
    upstream = sent_by(dns_queries, resolver.node)
    second = stub.lookup(missing)
    sim.run()
    assert second.value[0] is None
    assert sent_by(dns_queries, resolver.node) == upstream  # negative cache


def test_negative_cache_expires(dns_queries):
    sim, topology, dns = make_world()
    site = topology.sites[0]
    resolver = dns.resolvers[site.index]
    stub = StubResolver(sim, site.hosts[0], site.dns_address)
    missing = f"nosuch.{dns.site_domain(topology.sites[1])}"
    stub.lookup(missing)
    sim.run()
    upstream = sent_by(dns_queries, resolver.node)
    sim.run(until=sim.now + NEGATIVE_TTL)
    stub.lookup(missing)
    sim.run()
    assert sent_by(dns_queries, resolver.node) > upstream  # re-walked


def test_negative_caching_requires_cache_enabled(dns_queries):
    sim, topology, dns = make_world(use_cache=False)
    site = topology.sites[0]
    stub = StubResolver(sim, site.hosts[0], site.dns_address)
    missing = f"nosuch.{dns.site_domain(topology.sites[1])}"
    stub.lookup(missing)
    sim.run()
    resolver = dns.resolvers[site.index]
    upstream = sent_by(dns_queries, resolver.node)
    stub.lookup(missing)
    sim.run()
    assert sent_by(dns_queries, resolver.node) == 2 * upstream
