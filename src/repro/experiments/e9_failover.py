"""E9 — locator failure: the blackhole window with and without probing.

An ongoing flow tunnels into the destination site's preferred locator.  At
a known instant the access link behind that locator fails.  A static LISP
deployment keeps encapsulating into the dead locator (the mapping says
nothing about its health) — every packet is lost until the link returns.
With RLOC probing plus backup locators in the pushed mapping (the dynamic
mapping management the paper's TE discussion anticipates), the ITR detects
the failure in a couple of probe periods and fails over to the surviving
locator; when the link heals, traffic moves back.

Reported per variant: packets lost during the failure, the blackhole
duration (last loss minus failure instant), and whether the flow recovered.
E9 scripts its world rather than run a sweep grid: its one hand-paced
50 ms stream is no Poisson workload.
"""

from repro.experiments.scenario import FLOW_UDP_PORT, ScenarioConfig, build_scenario
from repro.experiments.worldrun import schedule_access_failure
from repro.net.packet import udp_packet

HEADERS = ("variant", "pkts_sent", "pkts_lost", "blackhole_s", "failover")

FAIL_AT = 3.0
REPAIR_AT = 9.0
FLOW_END = 12.0
PACKET_INTERVAL = 0.05


def run_e9(seed=29, probe_period=0.4):
    variants = (
        ("pce+probing", dict(enable_probing=True, probe_period=probe_period)),
        ("pce-static", dict(enable_probing=False)),
    )
    return [_run_variant(label, overrides, seed) for label, overrides in variants]


def _run_variant(label, overrides, seed):
    # Untraced: E9 reads its sink and its own counter, never the trace.
    config = ScenarioConfig(control_plane="pce", topology="fig1", seed=seed,
                            irc_policy="primary", tracing=False, **overrides)
    scenario = build_scenario(config)
    sim = scenario.sim
    site_s, site_d = scenario.topology.sites
    source = site_s.hosts[0]
    sink = scenario.sink_for(site_d.index, 0)
    stub = scenario.stub_for(source, site_s)
    row = {"variant": label, "packets_sent": 0}
    stub.lookup(scenario.host_name(site_d, 0)).callbacks.append(
        lambda lookup: _send(sim, source, lookup.value[0], row))
    # Fail and repair the destination's primary access link (both directions).
    schedule_access_failure(sim, site_d, 0, FAIL_AT, REPAIR_AT)
    sim.run(until=FLOW_END + 2.0)

    arrivals = sink.arrival_times
    scenario.teardown()
    row["packets_lost"] = row["packets_sent"] - len(arrivals)
    # Blackhole: the longest gap in arrivals that contains the failure time.
    blackhole = 0.0
    previous = None
    for when in arrivals:
        if previous is not None and previous <= FAIL_AT <= when:
            blackhole = when - previous
            break
        previous = when
    else:
        if previous is not None and previous < FAIL_AT:
            blackhole = REPAIR_AT - FAIL_AT  # never recovered until repair
    row.update(blackhole_seconds=blackhole, recovered_before_repair=(
        blackhole < (REPAIR_AT - FAIL_AT) * 0.9))
    return row


def _send(sim, source, address, row):
    """One packet of the flow, then the next one a packet interval later.

    A module function, not a closure: a closure that schedules itself
    refers to itself, a reference cycle the world's teardown cannot see.
    """
    if sim.now < FLOW_END:
        source.send(udp_packet(source.address, address, 5000, FLOW_UDP_PORT,
                               payload_bytes=800, meta={"sent_at": sim.now}))
        row["packets_sent"] += 1
        sim.call_in(PACKET_INTERVAL, _send, sim, source, address, row)


def as_tuple(row):
    return (row["variant"], row["packets_sent"], row["packets_lost"],
            round(row["blackhole_seconds"], 3),
            row["recovered_before_repair"])


def check_shape(rows):
    failures = []
    by_variant = {row["variant"]: row for row in rows}
    probing = by_variant.get("pce+probing")
    static = by_variant.get("pce-static")
    if probing is None or static is None:
        return ["missing variants"]
    if not probing["recovered_before_repair"]:
        failures.append("probing variant did not fail over before the repair")
    if static["recovered_before_repair"]:
        failures.append("static variant recovered without probing (unexpected)")
    if not probing["packets_lost"] < static["packets_lost"]:
        failures.append("probing did not reduce packet loss")
    if not probing["blackhole_seconds"] < static["blackhole_seconds"] / 2:
        failures.append("probing blackhole not substantially shorter")
    # Detection takes a small number of probe periods, not seconds.
    if not probing["blackhole_seconds"] < 2.0:
        failures.append(
            f"probing blackhole lasted {probing['blackhole_seconds']:.2f}s")
    return failures
