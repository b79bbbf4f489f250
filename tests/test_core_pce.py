"""Integration tests for the PCE-based control plane (the paper's §2)."""

from types import SimpleNamespace

import pytest
from process_kernel import Process

from repro.core.control_plane import PceControlPlane
from repro.dns.hierarchy import install_dns
from repro.dns.resolver import StubResolver
from repro.experiments.measure import _control
from repro.experiments.scenario import CONTROL_PLANES, ScenarioConfig
from repro.lisp.policies import DropPolicy
from repro.net.addresses import IPv4Address
from repro.net.packet import udp_packet
from repro.net.topogen import TopologySpec, build
from repro.sim import Simulator


#: The PCE control plane's keywords at ScenarioConfig's defaults.
PCE_DEFAULTS = {name: getattr(ScenarioConfig(), name)
                for name in CONTROL_PLANES["pce"].reads}


def make_world(seed=41, family="fig1", num_sites=2, **cp_kwargs):
    sim = Simulator(seed=seed)
    topology = build(sim, TopologySpec(family=family, num_sites=num_sites))
    dns = install_dns(topology)
    cp = PceControlPlane(sim, topology, dns,
                         **{**PCE_DEFAULTS, "miss_policy": DropPolicy(sim),
                            **cp_kwargs})
    return sim, topology, dns, cp


def start_flow(sim, topology, dns, src_site=0, dst_site=1, host=0, port=7000,
               first_packet_delay=0.0):
    """DNS lookup then a single data packet, like a connecting application."""
    source = topology.sites[src_site].hosts[0]
    target_site = topology.sites[dst_site]
    stub = StubResolver(sim, source, topology.sites[src_site].dns_address)
    sink = []
    target_site.hosts[host].bind_udp(port, lambda packet, node: sink.append(sim.now))
    outcome = {}

    def flow():
        address, elapsed = yield stub.lookup(dns.host_name(target_site, host))
        outcome["dns_address"] = address
        outcome["dns_elapsed"] = elapsed
        outcome["dns_done_at"] = sim.now
        if address is None:
            return
        if first_packet_delay:
            yield sim.timeout(first_packet_delay)
        source.send(udp_packet(source.address, address, 5000, port))

    Process(sim, flow())
    return outcome, sink


def test_flow_first_packet_delivered_without_drop():
    """Claim C1: no packet dropped or queued during mapping resolution."""
    sim, topology, dns, cp = make_world()
    outcome, sink = start_flow(sim, topology, dns)
    sim.run(until=5.0)
    assert outcome["dns_address"] == topology.sites[1].hosts[0].address
    assert len(sink) == 1
    assert cp.miss_policy.stats.dropped == 0
    assert sim.trace.of_kind("itr.cache-miss") == []   # nothing to queue


def test_mapping_installed_before_dns_completes():
    """Claim C2: (T_DNS + T_map) ~ T_DNS — the push wins the race."""
    sim, topology, dns, cp = make_world()
    outcome, sink = start_flow(sim, topology, dns)
    sim.run(until=5.0)
    site_s = topology.sites[0]
    pushes = cp.pces[site_s.index].stats.push_times[
        topology.sites[1].eid_prefix]
    assert pushes[-1] <= outcome["dns_done_at"]
    installs = sim.trace.of_kind("itr.mapping-installed")
    install_times = [r.time for r in installs
                     if r.detail.get("origin") == "pce-push"]
    assert len(install_times) == 2  # both ITRs of site S
    assert max(install_times) <= outcome["dns_done_at"] + 0.001


def test_fig1_step_ordering():
    """The eight steps of Fig. 1 must emerge, in order, from the simulation."""
    sim, topology, dns, cp = make_world()
    outcome, sink = start_flow(sim, topology, dns)
    sim.run(until=5.0)

    def first_time(kind, source=None):
        for record in sim.trace.records:
            if record.kind == kind and (source is None or record.source == source):
                return record.time
        return None

    pce_s = topology.sites[0].pce_node.name
    pce_d = topology.sites[1].pce_node.name
    t1 = first_time("pce.step1-ipc", pce_s)
    t6 = first_time("pce.step6-encap", pce_d)
    t7a = first_time("pce.step7a-forward", pce_s)
    t7b = first_time("pce.step7b-push", pce_s)
    t8 = first_time("pce.step8-dns-reply", pce_s)
    assert None not in (t1, t6, t7a, t7b, t8)
    assert t1 <= t6 <= t7a <= t7b <= t8


def test_pce_observes_iterative_queries():
    """Steps 2-5: the PCEs transparently see the resolver's iterative walk."""
    sim, topology, dns, cp = make_world()
    start_flow(sim, topology, dns)
    sim.run(until=5.0)
    pce_s = cp.pces[0].node.name

    def seen(kind):
        return [r for r in sim.trace.of_kind(kind) if r.source == pce_s]

    assert len(seen("pce.observe-query")) >= 3  # root, TLD, authoritative
    assert len(seen("pce.step1-ipc")) == 1


def test_two_one_way_tunnels():
    """Step 7b: the ITR encapsulates with RLOC_S that may differ from its own."""
    sim, topology, dns, cp = make_world(irc_policy="balance")
    outcome, sink = start_flow(sim, topology, dns)
    sim.run(until=5.0)
    encaps = sim.trace.of_kind("itr.encap")
    assert len(encaps) == 1
    record = encaps[0]
    src_rloc = IPv4Address(record.detail["src_rloc"])
    site_s = topology.sites[0]
    assert src_rloc in [site_s.rloc_of(b) for b in range(len(site_s.xtrs))]
    # The chosen source RLOC came from the Step-1 ingress decision.
    pushes = sim.trace.of_kind("pce.step7b-push")
    assert IPv4Address(pushes[0].detail["src_rloc"]) == src_rloc


def test_reverse_mapping_multicast_to_all_etrs():
    """Closing paragraph: first data packet completes two-way resolution."""
    sim, topology, dns, cp = make_world()
    outcome, sink = start_flow(sim, topology, dns)
    sim.run(until=5.0)
    assert len(cp.reverse_announces) == 1
    site_d = topology.sites[1]
    source_eid = topology.sites[0].hosts[0].address
    for xtr in cp.xtrs_by_site[site_d.index]:
        reverse = xtr.map_cache.peek(source_eid)
        assert reverse is not None, f"{xtr.node.name} missing reverse mapping"
        assert reverse.eid_prefix.length == 32
    pce_d = cp.pces[site_d.index].node.name
    learned = sim.trace.of_kind("pce.reverse-learned")
    assert [record.source for record in learned] == [pce_d]


def test_reverse_traffic_flows_without_resolution():
    sim, topology, dns, cp = make_world()
    outcome, sink = start_flow(sim, topology, dns)
    sim.run(until=5.0)
    src_host = topology.sites[0].hosts[0]
    dst_host = topology.sites[1].hosts[0]
    reverse_sink = []
    src_host.bind_udp(7001, lambda packet, node: reverse_sink.append(sim.now))
    dst_host.send(udp_packet(dst_host.address, src_host.address, 7000, 7001))
    sim.run(until=sim.now + 2.0)
    assert len(reverse_sink) == 1
    assert cp.miss_policy.stats.dropped == 0


def test_reverse_tunnel_lands_on_step1_chosen_rloc():
    """The ingress locator chosen at Step 1 receives the reverse traffic."""
    sim, topology, dns, cp = make_world()
    outcome, sink = start_flow(sim, topology, dns)
    sim.run(until=5.0)
    pushes = sim.trace.of_kind("pce.step7b-push")
    chosen_ingress = IPv4Address(pushes[0].detail["src_rloc"])
    dst_host = topology.sites[1].hosts[0]
    src_host = topology.sites[0].hosts[0]
    src_host.bind_udp(7001, lambda packet, node: None)
    dst_host.send(udp_packet(dst_host.address, src_host.address, 7000, 7001))
    sim.run(until=sim.now + 2.0)
    site_s = topology.sites[0]
    (chosen_xtr,) = (xtr for xtr in site_s.xtrs
                     if xtr.services["rloc"] == chosen_ingress)
    xtr_service = chosen_xtr.services["xtr-service"]
    assert xtr_service.decapsulated == 1


def test_dns_cache_hit_triggers_refresh_push():
    """A cached DNS answer must still (re)arm the ITRs after mapping expiry."""
    sim, topology, dns, cp = make_world(mapping_ttl=5.0)
    start_flow(sim, topology, dns)
    # Run past the mapping TTL (5 s) but within the DNS TTL (60 s): the next
    # lookup is answered from the resolver cache, so no port-P message will
    # travel — the PCE must refresh the ITRs from its own database.
    sim.run(until=8.0)
    outcome2, sink2 = start_flow(sim, topology, dns, port=7005)
    sim.run(until=12.0)
    assert len(sink2) == 1
    assert cp.miss_policy.stats.dropped == 0
    pce_s = cp.pces[0].node.name
    assert any(record.source == pce_s and record.detail["refresh"]
               for record in sim.trace.of_kind("pce.step7b-push"))


def test_te_rebalance_moves_flows_and_keeps_traffic_flowing():
    sim, topology, dns, cp = make_world(num_sites=4, family="flat")
    # Start flows to three destinations; all egress routes initially set.
    sinks = []
    for dst in (1, 2, 3):
        _outcome, sink = start_flow(sim, topology, dns, dst_site=dst, port=7000 + dst)
        sinks.append(sink)
    sim.run(until=5.0)
    site = topology.sites[0]
    assignment = cp.egress_assignments[site.index]
    assert len(assignment) == 3
    # Force imbalance: pretend ITR0 is overloaded.
    loads = [10_000_000 if idx == 0 else 0 for idx in range(len(site.xtrs))]
    moves = cp.rebalance_site_egress(site, loads=loads)
    if all(index == 0 for index in assignment.values()):
        pytest.skip("balance policy already spread flows; nothing to move")
    assert len(sim.trace.of_kind("te.rehome")) == len(moves)
    for move in moves:
        assert assignment[move.destination_prefix] == move.to_itr


def test_rebalance_leaves_the_egress_sequence_alone():
    """Re-homing moves hub routes; the next egress pick continues the
    round robin where the pushes left it."""
    sim, topology, dns, cp = make_world(num_sites=4, family="flat")
    for dst in (1, 2, 3):
        start_flow(sim, topology, dns, dst_site=dst, port=7000 + dst)
    sim.run(until=5.0)
    site = topology.sites[0]
    irc = cp.ircs[site.index]
    picks = irc.egress
    assert sorted(cp.egress_assignments[site.index].values()) == \
        sorted(n % len(site.xtrs) for n in range(picks))
    moves = cp.rebalance_site_egress(
        site, loads=[10_000_000] + [0] * (len(site.xtrs) - 1))
    assert moves
    assert irc.egress == picks
    assert irc.select_egress() == picks % len(site.xtrs)


def test_steps_1_and_6_and_the_step7_fallback_share_the_inbound_counter():
    """Every choice of this site's inbound locator draws the next round-robin
    index, in call order; a Step-7 match of a Step-1 record draws none."""
    sim, _topology, _dns, cp = make_world()
    pce, irc = cp.pces[0], cp.ircs[0]
    site = pce.site
    locators = len(site.xtrs)
    registered = cp.registry.lookup_prefix(site.eid_prefix)
    pce.on_local_query(site.hosts[0].address, "a.example.", sim.now)
    narrowed = pce._narrowed(registered)                  # Step 6
    fallback = pce._match_step1_decision("b.example.")    # no Step-1 record
    matched = pce._match_step1_decision("a.example.")     # Step 1's own
    pce.on_local_query(site.hosts[0].address, "c.example.", sim.now)
    assert matched == 0
    assert narrowed.rlocs[0].address == site.rloc_of(1 % locators)
    assert fallback == 2 % locators
    assert pce.pending_ingress == {"c.example.": 3 % locators}
    assert irc.ingress == 4


def test_rehomed_flow_survives_in_push_to_all_mode():
    """The Step-7b rationale: moves are safe because every ITR has the mapping."""
    sim, topology, dns, cp = make_world()
    outcome, sink = start_flow(sim, topology, dns)
    sim.run(until=5.0)
    site = topology.sites[0]
    prefix = topology.sites[1].eid_prefix
    current = cp.egress_assignments[site.index][prefix]
    other = 1 - current
    cp.set_egress_route(site, prefix, other)
    src = site.hosts[0]
    dst = topology.sites[1].hosts[0]
    src.send(udp_packet(src.address, dst.address, 5000, 7000))
    sim.run(until=sim.now + 2.0)
    assert len(sink) == 2
    assert cp.miss_policy.stats.dropped == 0


def test_precompute_false_adds_latency():
    """A positive computation delay holds each Step-6 reply back; 0.0
    (precomputed) sends it at line rate."""
    sim_a, topo_a, dns_a, cp_a = make_world(seed=43, computation_delay=0.0)
    out_a, _ = start_flow(sim_a, topo_a, dns_a)
    sim_a.run(until=5.0)
    sim_b, topo_b, dns_b, cp_b = make_world(seed=43, computation_delay=0.02)
    out_b, _ = start_flow(sim_b, topo_b, dns_b)
    sim_b.run(until=5.0)
    assert out_b["dns_elapsed"] > out_a["dns_elapsed"] + 0.015


def test_control_message_accounting():
    sim, topology, dns, cp = make_world()
    start_flow(sim, topology, dns)
    sim.run(until=5.0)
    # one per ITR at site S
    assert sum(pce.stats.push_messages for pce in cp.pces.values()) == 2
    messages, sent = _control(SimpleNamespace(mapping_system=None,
                                              control_plane=cp))
    assert sent > 0
    assert messages >= 3
