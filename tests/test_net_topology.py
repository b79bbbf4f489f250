"""Tests for the multi-AS topology: addressing plan, reachability, LISP split."""

import pytest

from repro.net.addresses import IPv4Address
from repro.net.packet import udp_packet
from repro.net.topogen import TopologySpec, build
from repro.net.topology import (
    eid_prefix_for,
    infra_prefix_for,
    provider_prefix_for,
    rloc_for,
)
from repro.sim import Simulator

from test_net_addresses import overlaps


def site_of_rloc(topology, rloc):
    """The site one of whose xTRs holds *rloc* (None if none does)."""
    rloc = IPv4Address(rloc)
    return next((site for site in topology.sites
                 if any(IPv4Address(site.rloc_of(b)) == rloc
                        for b in range(len(site.xtrs)))), None)


@pytest.fixture
def world():
    sim = Simulator(seed=1)
    topology = build(sim, TopologySpec(num_sites=3, num_providers=4,
                                       providers_per_site=2))
    return sim, topology


def test_address_plan_is_disjoint():
    prefixes = [eid_prefix_for(0), infra_prefix_for(0), provider_prefix_for(0),
                eid_prefix_for(1), infra_prefix_for(1), provider_prefix_for(1)]
    for i, a in enumerate(prefixes):
        for b in prefixes[i + 1:]:
            assert not overlaps(a, b), f"{a} overlaps {b}"


def test_rlocs_unique_across_sites_and_xtrs():
    rlocs = {rloc_for(p, s, b) for p in range(4) for s in range(300) for b in range(2)}
    assert len(rlocs) == 4 * 300 * 2


def test_site_structure(world):
    _sim, topology = world
    assert len(topology.sites) == 3
    for site in topology.sites:
        assert len(site.xtrs) == 2
        assert len(site.hosts) == 2
        assert len(set(site.provider_ids)) == 2
        for host in site.hosts:
            assert site.eid_prefix.contains(host.address)
        for b, xtr in enumerate(site.xtrs):
            rloc = site.rloc_of(b)
            assert provider_prefix_for(site.provider_ids[b]).contains(rloc)
            assert xtr.is_local(rloc)
            assert xtr.is_local(site.xtr_control_address(b))


def test_eid_prefixes_not_in_provider_fibs(world):
    _sim, topology = world
    for provider in topology.providers:
        for site in topology.sites:
            for entry in provider.fib.entries():
                assert not site.eid_prefix.contains(entry.prefix), (
                    f"EID prefix {site.eid_prefix} leaked into {provider.name}"
                )


def test_eids_globally_routable_flag():
    sim = Simulator(seed=1)
    topology = build(sim, TopologySpec(num_sites=2, num_providers=3,
                                       eids_globally_routable=True))
    provider = topology.providers[0]
    covered = any(entry.prefix == topology.sites[1].eid_prefix
                  for entry in provider.fib.entries())
    assert covered


def send_and_await(sim, src_node, src_addr, dst_node, dst_addr, port=7777):
    arrivals = []
    dst_node.bind_udp(port, lambda packet, node: arrivals.append(sim.now))
    src_node.send(udp_packet(src_addr, dst_addr, 1234, port))
    sim.run()
    dst_node.unbind_udp(port)
    return arrivals


def test_dns_to_dns_reachability_across_sites(world):
    sim, topology = world
    site_a, site_b = topology.sites[0], topology.sites[1]
    arrivals = send_and_await(sim, site_a.dns_node, site_a.dns_address,
                              site_b.dns_node, site_b.dns_address)
    assert len(arrivals) == 1
    assert arrivals[0] > 0.01  # crossed the WAN


def test_dns_traffic_transits_local_pce(world):
    sim, topology = world
    site_a, site_b = topology.sites[0], topology.sites[1]
    seen_at_pce = []
    site_a.pce_node.add_forward_tap(
        lambda packet, node: (seen_at_pce.append(packet.uid), False)[1])
    arrivals = send_and_await(sim, site_a.dns_node, site_a.dns_address,
                              site_b.dns_node, site_b.dns_address)
    assert len(arrivals) == 1
    assert len(seen_at_pce) == 1  # the outgoing query passed through PCE_S


def test_inbound_to_rloc_reaches_correct_xtr(world):
    sim, topology = world
    site_a, site_b = topology.sites[0], topology.sites[1]
    for b in range(2):
        rloc = site_b.rloc_of(b)
        arrivals = send_and_await(sim, site_a.dns_node, site_a.dns_address,
                                  site_b.xtrs[b], rloc, port=4341 + b)
        assert len(arrivals) == 1, f"RLOC {rloc} unreachable"


def test_host_cannot_reach_remote_eid_without_lisp(world):
    """EIDs are not globally routable: raw packets die at the provider."""
    sim, topology = world
    site_a, site_b = topology.sites[0], topology.sites[1]
    host = site_a.hosts[0]
    target = site_b.hosts[0]
    arrivals = send_and_await(sim, host, host.address, target, target.address)
    assert arrivals == []


def test_host_reaches_local_dns(world):
    sim, topology = world
    site = topology.sites[0]
    host = site.hosts[0]
    arrivals = send_and_await(sim, host, host.address, site.dns_node, site.dns_address)
    assert len(arrivals) == 1


def test_infra_host_attachment_reachable():
    sim = Simulator(seed=2)
    topology = build(sim, TopologySpec(num_sites=2, num_providers=3))
    root = topology.attach_infra_host(0, "root-dns", "198.41.0.4")
    topology.install_global_routes()
    site = topology.sites[1]
    arrivals = send_and_await(sim, site.dns_node, site.dns_address,
                              root, IPv4Address("198.41.0.4"))
    assert len(arrivals) == 1


def test_fig1_topology_layout():
    sim = Simulator(seed=3)
    topology = build(sim, TopologySpec(family="fig1"))
    site_s, site_d = topology.sites
    assert site_s.provider_ids == [0, 1]
    assert site_d.provider_ids == [2, 3]
    assert topology.site_of_eid(site_s.hosts[0].address) is site_s
    assert site_of_rloc(topology, site_d.rloc_of(1)) is site_d


def test_provider_mesh_delay_positive(world):
    _sim, topology = world
    delay = topology.routing_plan.delay(topology.providers[0],
                                        topology.providers[1])
    assert 0.005 < delay < 0.1


@pytest.mark.parametrize("num_providers,per_site", [(6, 3), (6, 4), (4, 4), (8, 3)])
def test_provider_rotation_terminates_for_non_coprime_strides(num_providers, per_site):
    """Regression: stride sharing a factor with the provider count used to
    cycle over a subgroup and never finish collecting providers."""
    sim = Simulator(seed=4)
    topology = build(sim, TopologySpec(
        num_sites=2 * num_providers + 4, num_providers=num_providers,
        providers_per_site=per_site, hosts_per_site=1))
    for site in topology.sites:
        assert len(set(site.provider_ids)) == per_site


def test_deterministic_topology_for_seed():
    def access_delays():
        sim = Simulator(seed=77)
        topology = build(sim, TopologySpec(num_sites=4, num_providers=5))
        return [site.access_delays for site in topology.sites]

    assert access_delays() == access_delays()
