"""F1 — the Fig. 1 walkthrough: Steps 1-8 as an emergent event trace.

Builds the exact Fig. 1 world (two sites, disjoint provider pairs), starts
one flow, and extracts the timeline of the eight steps plus the first-data-
packet and reverse-mapping events.  The harness checks that the ordering
and the paper's timing claim — mapping installed before the host can send —
hold in simulation rather than by construction.
"""

from repro.experiments.scenario import FLOW_UDP_PORT, ScenarioConfig, build_scenario
from repro.net.packet import udp_packet

STEP_KINDS = [
    ("1", "pce.step1-ipc", "PCE_S learns E_S via IPC, picks ingress RLOC"),
    ("2-5", "pce.observe-query", "PCEs observe the iterative DNS queries"),
    ("6", "pce.step6-encap", "PCE_D encapsulates the reply + mapping (port P)"),
    ("7a", "pce.step7a-forward", "PCE_S forwards the DNS reply to DNS_S"),
    ("7b", "pce.step7b-push", "PCE_S pushes (E_S,E_D,RLOC_S,RLOC_D) to all ITRs"),
    ("8", "pce.step8-dns-reply", "DNS_S answers E_S"),
]


def run_fig1_walkthrough(seed=11):
    """Run the walkthrough; returns {steps, checks, records}.

    The world is torn down before this returns.
    """
    config = ScenarioConfig(control_plane="pce", topology="fig1", seed=seed)
    scenario = build_scenario(config)
    sim = scenario.sim
    topology = scenario.topology
    site_s, site_d = topology.sites
    source = site_s.hosts[0]
    stub = scenario.stub_for(source, site_s)
    qname = scenario.host_name(site_d, 0)
    timeline = {}

    def resolved(lookup):
        address, _elapsed = lookup.value
        timeline["dns_done"] = sim.now
        timeline["address"] = address
        source.send(udp_packet(source.address, address, 5000, FLOW_UDP_PORT,
                               payload_bytes=1000))

    stub.lookup(qname).callbacks.append(resolved)
    sim.run(until=5.0)

    dns_s_address = str(site_s.dns_address)
    steps = []
    for label, kind, description in STEP_KINDS:
        matches = sim.trace.of_kind(kind)
        if kind == "pce.observe-query":
            # Steps 2-5 are the *iterative* queries (resolver -> hierarchy),
            # not the host's initial stub query, which also transits PCE_S.
            matches = [r for r in matches if r.detail.get("dst") != dns_s_address]
        if not matches:
            steps.append((label, None, description))
            continue
        steps.append((label, matches[0].time, description))

    installs = [r.time for r in sim.trace.of_kind("itr.mapping-installed")
                if r.detail.get("origin") == "pce-push"]
    encaps = sim.trace.of_kind("itr.encap")
    decaps = sim.trace.of_kind("etr.decap")
    reverse = sim.trace.of_kind("etr.reverse-multicast")
    reverse_installs = [r.time for r in sim.trace.of_kind("itr.mapping-installed")
                        if r.detail.get("origin", "").startswith("reverse")]
    sink = scenario.sink_for(site_d.index, 0)

    first_encap = encaps[0].time if encaps else None
    checks = {
        # The paper's operational claim: the mapping is in place at the ITRs
        # before the host's first data packet needs it.
        "mapping_installed_before_first_packet": bool(installs) and
            first_encap is not None and max(installs) <= first_encap,
        # And its timing claim: installation lands within the DNS resolution
        # window (tolerance of one intra-site RTT for the final local hops).
        "mapping_ready_within_dns_window": bool(installs) and
            max(installs) <= timeline.get("dns_done", float("inf")) + 0.001,
        "first_packet_delivered": sink.received == 1,
        "no_itr_drops": scenario.total_first_packet_drops() == 0,
        "reverse_mapping_on_all_etrs": len(reverse_installs) >= len(site_d.xtrs) - 1,
        "step_order_monotonic": _monotonic([t for _l, t, _d in steps if t is not None]),
    }
    records = {
        "dns_done": timeline.get("dns_done"),
        "itr_installs": installs,
        "first_encap": encaps[0].time if encaps else None,
        "first_decap": decaps[0].time if decaps else None,
        "reverse_multicast": reverse[0].time if reverse else None,
        "delivery": sink.arrival_times[0] if sink.arrival_times else None,
    }
    scenario.teardown()
    return {"steps": steps, "checks": checks, "records": records}


def _monotonic(times):
    return all(a <= b for a, b in zip(times, times[1:], strict=False))
