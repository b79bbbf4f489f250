"""Failure injection: dead servers, partitions, and half-broken paths.

The substrate must degrade gracefully — flows fail cleanly (marked failed,
no exceptions, no stuck processes), and recover when the fault heals.
"""

from process_kernel import Process

from repro.experiments import ScenarioConfig, WorkloadConfig, build_scenario, run_workload
from repro.experiments.scenario import FLOW_UDP_PORT
from repro.lisp.policies import MAX_QUEUE
from repro.net.packet import udp_packet


def fig1_world(**overrides):
    config = ScenarioConfig(control_plane="pce", topology="fig1", seed=61, **overrides)
    return build_scenario(config)


def cut_node_links(node, up):
    for iface in node.interfaces.values():
        if iface.link is not None:
            iface.link.up = up
            # Also the reverse direction of the pair.
            peer = iface.link.dst_interface
            for peer_iface in peer.node.interfaces.values():
                if peer_iface.link is not None and \
                        peer_iface.link.dst_interface is iface:
                    peer_iface.link.up = up


def start_lookup(scenario, src_site=0, dst_site=1):
    site = scenario.topology.sites[src_site]
    host = site.hosts[0]
    stub = scenario.stub_for(host, site)
    return stub.lookup(scenario.host_name(scenario.topology.sites[dst_site], 0),
                       timeout=1.0)


def test_dead_root_server_fails_lookup_cleanly():
    scenario = fig1_world()
    root = scenario.topology.infra_hosts["root-dns"]
    cut_node_links(root, up=False)
    proc = start_lookup(scenario)
    scenario.sim.run(until=30.0)
    assert proc._triggered
    address, elapsed = proc.value
    assert address is None
    assert elapsed > 0


def test_root_recovery_restores_resolution():
    scenario = fig1_world()
    sim = scenario.sim
    root = scenario.topology.infra_hosts["root-dns"]
    cut_node_links(root, up=False)
    first = start_lookup(scenario)
    sim.run(until=30.0)
    assert first.value[0] is None
    cut_node_links(root, up=True)
    second = start_lookup(scenario)
    sim.run(until=60.0)
    assert second.value[0] == scenario.topology.sites[1].hosts[0].address


def test_dead_authoritative_server_only_breaks_its_zone():
    scenario = fig1_world()
    sim = scenario.sim
    site_d = scenario.topology.sites[1]
    cut_node_links(site_d.dns_node, up=False)
    # Lookup toward the dead zone fails...
    failed = start_lookup(scenario, src_site=0, dst_site=1)
    sim.run(until=30.0)
    assert failed.value[0] is None
    # ...but the resolver itself still answers its own zone.
    site_s = scenario.topology.sites[0]
    stub = scenario.stub_for(site_s.hosts[0], site_s)
    ok = stub.lookup(scenario.host_name(site_s, 1))
    sim.run(until=60.0)
    assert ok.value[0] == site_s.hosts[1].address


def test_workload_survives_mid_run_dns_outage():
    """Flows during an authoritative outage fail; the run completes."""
    config = ScenarioConfig(control_plane="pce", num_sites=4, seed=67)
    scenario = build_scenario(config)
    sim = scenario.sim
    victim = scenario.topology.sites[2]
    sim.call_in(0.5, cut_node_links, victim.dns_node, False)
    records = run_workload(scenario, WorkloadConfig(num_flows=30, arrival_rate=10.0,
                                                    grace_period=15.0))
    assert len(records) == 30
    failed = [r for r in records if r.failed]
    succeeded = [r for r in records if not r.failed]
    assert succeeded, "flows to healthy sites must still succeed"
    # Any successful flow still lost nothing (the PCE guarantee holds).
    assert all(r.packets_lost == 0 for r in succeeded)
    # Flows whose destination zone died (after its TTL'd entries expired)
    # fail cleanly rather than hanging.
    for record in failed:
        assert record.destination is None


def test_total_partition_between_sites_loses_data_not_control():
    """Cutting the destination's access links after resolution: packets die
    in the network, the simulation stays consistent."""
    scenario = fig1_world()
    sim = scenario.sim
    site_s, site_d = scenario.topology.sites
    source = site_s.hosts[0]
    stub = scenario.stub_for(source, site_s)
    state = {}

    def flow():
        address, _ = yield stub.lookup(scenario.host_name(site_d, 0))
        state["address"] = address
        source.send(udp_packet(source.address, address, 5000, FLOW_UDP_PORT))

    Process(sim, flow())
    sim.run(until=2.0)
    sink = scenario.sink_for(site_d.index, 0)
    assert sink.received == 1
    # Now cut every access link of site D and send again.
    for links in site_d.access_links:
        links["uplink"].up = False
        links["downlink"].up = False
    source.send(udp_packet(source.address, state["address"], 5000, FLOW_UDP_PORT))
    sim.run(until=4.0)
    assert sink.received == 1  # second packet lost in the dead access links
    downlinks = {links["downlink"].name for links in site_d.access_links}
    drops = [record for record in sim.trace.of_kind("link.drop")
             if record.source in downlinks]
    assert len(drops) == 1


def test_queue_policy_timeout_drops_buffered_packets_eventually():
    """If resolution never completes (dead overlay), queued packets do not
    leak: the buffer stays bounded and the flow simply loses them."""
    config = ScenarioConfig(control_plane="alt", num_sites=3, seed=71,
                            miss_policy="queue")
    scenario = build_scenario(config)
    sim = scenario.sim
    # Kill the destination site's overlay entry point (xtr0 carries ALT).
    site_d = scenario.topology.sites[1]
    cut_node_links(site_d.xtrs[0], up=False)
    src = scenario.topology.sites[0].hosts[0]
    dst = site_d.hosts[0]
    # Each packet carries a fate list, as a flow's first packet does.
    packets = [udp_packet(src.address, dst.address, 5000, FLOW_UDP_PORT,
                          meta={"fates": []})
               for _ in range(MAX_QUEUE + 6)]
    for packet in packets:
        src.send(packet)
    sim.run(until=20.0)
    fates = [packet.meta["fates"] for packet in packets]
    queued = sum("queued-at-itr" in fate for fate in fates)
    assert queued <= MAX_QUEUE
    assert sum("dropped-queue-overflow" in fate for fate in fates) \
        == MAX_QUEUE + 6 - queued
    assert sum(xtr.resolutions_failed for xtr in scenario.iter_xtrs()) >= 1
