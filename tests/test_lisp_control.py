"""Tests for the baseline mapping systems: ALT, CONS, NERD."""

import gc
import types

import pytest

import repro
from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.experiments.workload import WorkloadConfig, run_workload
from repro.experiments.worldbuild import build_world
from repro.lisp.control import (
    AltMappingSystem,
    ConsMappingSystem,
    MappingRegistry,
    NerdMappingSystem,
)
from repro.lisp.control import cons
from repro.lisp.deploy import deploy_lisp
from repro.lisp.mappings import MappingRecord, RlocEntry
from repro.lisp.policies import CpDataPolicy, DropPolicy, QueuePolicy
from repro.net.addresses import IPv4Address
from repro.net.packet import udp_packet
from repro.net.topogen import TopologySpec, build
from repro.sim import Simulator


def make_world(system_name, num_sites=4, miss_policy_cls=QueuePolicy, seed=31):
    sim = Simulator(seed=seed)
    topology = build(sim, TopologySpec(num_sites=num_sites, num_providers=4))
    if system_name == "alt":
        system = AltMappingSystem(sim)
    elif system_name == "cons":
        system = ConsMappingSystem(sim, topology)
    elif system_name == "nerd":
        system = NerdMappingSystem(sim, topology)
    else:
        raise ValueError(system_name)
    policy = miss_policy_cls(sim)
    xtrs = deploy_lisp(sim, topology, system, policy)
    sim.run()  # let any deployment-time pushes settle
    return sim, topology, system, policy, xtrs


def send_flow_packet(sim, topology, src_site=0, dst_site=1, port=7000):
    src = topology.sites[src_site].hosts[0]
    dst = topology.sites[dst_site].hosts[0]
    sink = []
    dst.bind_udp(port, lambda packet, node: sink.append(sim.now))
    src.send(udp_packet(src.address, dst.address, 1, port))
    sim.run()
    dst.unbind_udp(port)
    return sink


def test_registry_lookup_most_specific():
    registry = MappingRegistry()
    registry.register(MappingRecord("100.0.0.0/16", (RlocEntry("10.0.0.1"),)))
    registry.register(MappingRecord("100.0.1.0/24", (RlocEntry("11.0.0.1"),)))
    hit = registry.lookup("100.0.1.5")
    assert hit.rlocs[0].address == IPv4Address("11.0.0.1")
    assert registry.lookup("101.0.0.1") is None
    assert len(registry) == 2


# --------------------------------------------------------------------------- #
# ALT
# --------------------------------------------------------------------------- #

def test_alt_resolves_and_delivers():
    sim, topology, system, policy, xtrs = make_world("alt")
    sink = send_flow_packet(sim, topology)
    assert len(sink) == 1
    assert system.stats.resolutions == 1
    assert system.stats.resolution_failures == 0
    assert len(system.stats.resolution_latencies) == 1


def test_alt_latency_exceeds_direct_path():
    """Overlay stretch: ALT resolution rides the ring, slower than direct RTT."""
    sim, topology, system, policy, xtrs = make_world("alt", num_sites=8)
    send_flow_packet(sim, topology, src_site=0, dst_site=4)
    latency = system.stats.resolution_latencies[0]
    assert latency > 0.02  # several WAN hops
    assert system.stats.by_type["map-request"] == 1
    assert system.stats.by_type["map-request-hop"] >= 1


def test_alt_overlay_is_connected():
    sim, topology, system, policy, xtrs = make_world("alt", num_sites=6)
    for src in range(6):
        for dst in range(6):
            if src == dst:
                continue
            rib = system._rib[topology.sites[src].xtrs[0].name]
            prefix = topology.sites[dst].eid_prefix
            assert rib.lookup(prefix.network, default=None) is not None, \
                f"site{src} has no ALT route to site{dst}"


def test_alt_state_scales_with_sites():
    _sim4, _topo4, system4, _p4, _x4 = make_world("alt", num_sites=4)
    _sim8, _topo8, system8, _p8, _x8 = make_world("alt", num_sites=8)
    mean4 = sum(system4.state_entries_per_router().values()) / 4
    mean8 = sum(system8.state_entries_per_router().values()) / 8
    assert mean8 > mean4


def test_alt_carries_data_over_cp():
    sim, topology, system, policy, xtrs = make_world("alt", miss_policy_cls=CpDataPolicy)
    sink = send_flow_packet(sim, topology)
    # The first packet is not lost: it rides the ALT overlay.
    assert len(sink) == 1
    assert policy.stats.cp_carried == 1
    assert policy.stats.dropped == 0
    assert system.stats.by_type["cp-data"] == 1


def test_alt_second_flow_uses_cache():
    sim, topology, system, policy, xtrs = make_world("alt")
    send_flow_packet(sim, topology)
    resolutions = system.stats.resolutions
    sink = send_flow_packet(sim, topology)
    assert len(sink) == 1
    assert system.stats.resolutions == resolutions  # cache hit, no new walk


# --------------------------------------------------------------------------- #
# CONS
# --------------------------------------------------------------------------- #

def test_cons_resolves_and_delivers():
    sim, topology, system, policy, xtrs = make_world("cons", num_sites=6)
    sink = send_flow_packet(sim, topology, src_site=0, dst_site=5)
    assert len(sink) == 1
    assert system.stats.resolution_failures == 0
    assert system.tree_depth >= 2


def test_cons_reply_retraces_tree():
    sim, topology, system, policy, xtrs = make_world("cons", num_sites=6)
    send_flow_packet(sim, topology, src_site=0, dst_site=5)
    # Request hops and reply hops are both counted: replies stay in-overlay.
    assert system.stats.by_type["map-request-hop"] >= 2
    assert system.stats.by_type["map-reply-hop"] >= 1
    assert system.stats.by_type["map-reply"] == 1


def test_cons_sibling_resolution_stays_low_in_tree():
    sim, topology, system, policy, xtrs = make_world("cons", num_sites=8)
    send_flow_packet(sim, topology, src_site=0, dst_site=1)  # siblings
    sibling_msgs = system.stats.messages
    sim2, topo2, system2, policy2, _ = make_world("cons", num_sites=8)
    send_flow_packet(sim2, topo2, src_site=0, dst_site=7)  # across the root
    assert system2.stats.messages > sibling_msgs


def test_cons_state_is_tree_degree():
    _sim, _topology, system, _policy, _xtrs = make_world("cons", num_sites=16)
    entries = system.state_entries_per_router()
    # Interior CDRs hold children + parent; far less than total sites.
    cdrs = [count for name, count in entries.items() if name.startswith("cdr")]
    assert cdrs and all(count <= cons.BRANCHING + 1 < 16 for count in cdrs)


def _cdr_addresses(system):
    return {node.name: address
            for address, node in system._tree_by_address.items()
            if node.site is None}


def test_cons_cdr_addresses_are_the_ones_small_trees_always_had():
    _sim, _topology, system, _policy, _xtrs = make_world("cons", num_sites=20)
    # Twenty CARs under CDRs of four children: 5, 2 and 1 per level.
    assert _cdr_addresses(system) == {
        f"cdr-d{depth}-{index}": IPv4Address(f"203.0.{113 + depth}.{10 + index}")
        for depth, width in ((1, 5), (2, 2), (3, 1))
        for index in range(width)}


@pytest.mark.parametrize("num_sites", (985, 2000))
def test_cons_tree_level_wider_than_a_slash_24_builds(num_sites):
    """More than 246 CDRs on one level used to format 203.0.114.256."""
    world = build_world(ScenarioConfig(control_plane="cons", topology="tiered",
                                       num_sites=num_sites, tracing=False))
    addresses = _cdr_addresses(world.mapping_system)
    assert len(set(addresses.values())) == len(addresses) > num_sites // 4
    # The first 246 of a level keep the old numbering; the rest run on.
    assert addresses["cdr-d1-245"] == IPv4Address("203.0.114.255")
    assert addresses["cdr-d1-246"] == IPv4Address("203.0.115.0")
    assert addresses["cdr-d2-0"] > max(
        address for name, address in addresses.items()
        if name.startswith("cdr-d1-"))
    records = run_workload(world, WorkloadConfig(num_flows=5))
    assert not any(record.failed for record in records)
    assert world.mapping_system.stats.resolution_failures == 0
    del world
    gc.collect()    # a bare-built world is its builder's to collect


@pytest.mark.parametrize("plane", ["cons", "alt"])
def test_no_generator_of_the_simulator_is_alive_mid_run(plane):
    """Every wait is a callback on an event: with Map-Requests, DNS walks
    and handshakes in flight, no generator of ``src/repro`` is suspended."""
    scenario = build_scenario(ScenarioConfig(
        control_plane=plane, num_sites=4, seed=37, mapping_ttl=1.0,
        dns_host_ttl=1.0, tracing=False))
    package = tuple(repro.__path__)     # a namespace package: no __file__
    censuses = []

    def census():
        in_flight = sum(len(xtr._pending) for xtr in scenario.iter_xtrs())
        suspended = [obj.gi_code.co_qualname for obj in gc.get_objects()
                     if isinstance(obj, types.GeneratorType)
                     and obj.gi_code.co_filename.startswith(package)]
        censuses.append((in_flight, suspended))

    sim = scenario.sim
    for offset in (0.5, 1.0, 1.5, 2.0, 2.5):
        sim.call_at(sim.now + offset, census)
    run_workload(scenario, WorkloadConfig(num_flows=60, arrival_rate=25.0,
                                          mode="tcp", tcp_data_burst=True,
                                          zipf_s=0.0))
    assert any(in_flight for in_flight, _suspended in censuses), censuses
    assert [suspended for _in_flight, suspended in censuses] == [[]] * 5


# --------------------------------------------------------------------------- #
# NERD
# --------------------------------------------------------------------------- #

def test_nerd_never_misses_after_push():
    sim, topology, system, policy, xtrs = make_world("nerd", miss_policy_cls=DropPolicy)
    sink = send_flow_packet(sim, topology)
    assert len(sink) == 1
    assert policy.stats.dropped == 0
    itr = xtrs[0][0]
    assert itr.map_cache.hits >= 1
    assert itr.resolutions_started == 0


def test_nerd_state_is_full_database():
    _sim, _topology, system, _policy, xtrs = make_world("nerd", num_sites=6)
    entries = system.state_entries_per_router()
    for xtr_list in xtrs.values():
        for xtr in xtr_list:
            assert entries[xtr.node.name] == 5  # all sites minus own


def test_nerd_push_cost_scales_with_sites_and_xtrs():
    _s4, _t4, system4, _p4, _x4 = make_world("nerd", num_sites=4)
    _s8, _t8, system8, _p8, _x8 = make_world("nerd", num_sites=8)
    assert system8.stats.bytes > system4.stats.bytes
    assert system8.pushes_sent == 16  # one full push per xTR (8 sites x 2)


def test_nerd_mappings_never_age_out():
    sim, topology, system, policy, xtrs = make_world("nerd")
    sim.run(until=sim.now + 1e6)
    itr = xtrs[0][0]
    assert itr.map_cache.peek(topology.sites[1].hosts[0].address) is not None
