"""Integration tests: iterative DNS resolution across the simulated WAN."""

from conftest import sent_by

from repro.dns.hierarchy import install_dns
from repro.dns.resolver import StubResolver
from repro.net.topogen import TopologySpec, build
from repro.sim import Simulator


def make_world(num_sites=2, extra_levels=0, use_cache=True, seed=11, **topo_kwargs):
    sim = Simulator(seed=seed)
    topology = build(sim, TopologySpec(num_sites=num_sites, num_providers=4, **topo_kwargs))
    dns = install_dns(topology, extra_levels=extra_levels, use_cache=use_cache)
    return sim, topology, dns


def run_lookup(sim, topology, dns, src_site_idx=0, dst_site_idx=1, host_idx=0):
    src_site = topology.sites[src_site_idx]
    dst_site = topology.sites[dst_site_idx]
    host = src_site.hosts[0]
    stub = StubResolver(sim, host, src_site.dns_address)
    qname = dns.host_name(dst_site, host_idx)
    proc = stub.lookup(qname)
    sim.run()
    assert proc._triggered
    return proc.value  # (address, elapsed)


def test_cross_site_resolution_returns_eid():
    sim, topology, dns = make_world()
    address, elapsed = run_lookup(sim, topology, dns)
    assert address == topology.sites[1].hosts[0].address
    assert elapsed > 0.02  # walked root + TLD + authoritative over the WAN


def test_resolution_of_each_host():
    sim, topology, dns = make_world()
    site = topology.sites[1]
    stub = StubResolver(sim, topology.sites[0].hosts[0], topology.sites[0].dns_address)
    procs = [stub.lookup(dns.host_name(site, i)) for i in range(len(site.hosts))]
    sim.run()
    for i, proc in enumerate(procs):
        address, _elapsed = proc.value
        assert address == site.hosts[i].address


def test_nxdomain_for_missing_host():
    sim, topology, dns = make_world()
    site = topology.sites[0]
    stub = StubResolver(sim, site.hosts[0], site.dns_address)
    proc = stub.lookup(f"host99.{dns.site_domain(topology.sites[1])}")
    sim.run()
    address, _elapsed = proc.value
    assert address is None


def test_cache_makes_second_lookup_local(dns_queries):
    sim, topology, dns = make_world()
    _address, cold = run_lookup(sim, topology, dns)
    resolver = dns.resolver_for(topology.sites[0])
    upstream_before = sent_by(dns_queries, resolver.node)
    _address, warm = run_lookup(sim, topology, dns)
    assert warm < cold / 5  # answered from cache: local RTT only
    assert sent_by(dns_queries, resolver.node) == upstream_before


def test_cache_expiry_forces_rewalk(dns_queries):
    sim, topology, dns = make_world(use_cache=True)
    run_lookup(sim, topology, dns)
    resolver = dns.resolver_for(topology.sites[0])
    upstream_before = sent_by(dns_queries, resolver.node)
    sim.run(until=sim.now + 10000.0)  # beyond every TTL
    run_lookup(sim, topology, dns)
    assert sent_by(dns_queries, resolver.node) > upstream_before


def test_no_cache_mode_always_walks(dns_queries):
    sim, topology, dns = make_world(use_cache=False)
    resolver = dns.resolver_for(topology.sites[0])
    run_lookup(sim, topology, dns)
    first = sent_by(dns_queries, resolver.node)
    run_lookup(sim, topology, dns)
    assert sent_by(dns_queries, resolver.node) == 2 * first


def test_extra_levels_lengthen_resolution(dns_queries):
    sim0, topo0, dns0 = make_world(use_cache=False, seed=13)
    _addr, shallow = run_lookup(sim0, topo0, dns0)
    sim2, topo2, dns2 = make_world(extra_levels=2, use_cache=False, seed=13)
    _addr, deep = run_lookup(sim2, topo2, dns2)
    assert deep > shallow
    resolver = dns2.resolver_for(topo2.sites[0])
    assert sent_by(dns_queries, resolver.node) == 5  # root, tld, lvl0, lvl1, site


def test_resolution_within_own_site_is_authoritative(dns_queries):
    sim, topology, dns = make_world()
    site = topology.sites[0]
    stub = StubResolver(sim, site.hosts[0], site.dns_address)
    proc = stub.lookup(dns.host_name(site, 1))
    sim.run()
    address, elapsed = proc.value
    assert address == site.hosts[1].address
    assert elapsed < 0.005  # no WAN hop
    assert sent_by(dns_queries, dns.resolver_for(site).node) == 0


def test_many_sites_resolution_matrix():
    sim, topology, dns = make_world(num_sites=5, hosts_per_site=1)
    stubs = [StubResolver(sim, site.hosts[0], site.dns_address) for site in topology.sites]
    procs = {}
    for a, _src in enumerate(topology.sites):
        for b, dst in enumerate(topology.sites):
            if a == b:
                continue
            procs[(a, b)] = stubs[a].lookup(dns.host_name(dst, 0))
    sim.run()
    for (a, b), proc in procs.items():
        address, _ = proc.value
        assert address == topology.sites[b].hosts[0].address, (a, b)


def test_query_listener_fires_like_ipc():
    """The resolver's query hook is the paper's PCE<->DNS IPC (Step 1)."""
    sim, topology, dns = make_world()
    resolver = dns.resolver_for(topology.sites[0])
    seen = []
    resolver.query_listeners.append(
        lambda client, qname, time: seen.append((client, qname)))
    run_lookup(sim, topology, dns)
    assert seen == [(topology.sites[0].hosts[0].address,
                     dns.host_name(topology.sites[1], 0))]


def test_tld_and_root_serve_queries(dns_queries):
    sim, topology, dns = make_world(use_cache=False)
    run_lookup(sim, topology, dns)
    asked = [dst for _sender, dst in dns_queries]
    for server in (dns.root_server, dns.tld_server):
        assert asked.count(server.node.address) == 1
