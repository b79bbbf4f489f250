"""The hybrid packet/fluid data plane.

Fluid flows advance as rate x interval byte chunks posted straight into
the link ledgers — no per-packet events — while mice, first packets and
control-plane traffic stay packet-level.  These tests pin the contract:
exact byte conservation, window-granular capacity sharing with packet
traffic, probe/re-probe path discovery, the pump's grid-aligned ticks and
grouped bookings, and agreement with the packet-level sender within a
stated tolerance.  The seeded property test over random flow sets lives
in ``tests/test_fluid_pump.py``.
"""

import random

import pytest

from repro.experiments import (ScenarioConfig, WorkloadConfig, build_scenario,
                               run_workload)
from repro.experiments.workload import peak_concurrent_flows
from repro.experiments.worldbuild import build_world, restore_world
from repro.net.addresses import IPv4Prefix
from repro.net.fib import FibEntry
from repro.net.host import Host
from repro.net.link import Link, LinkStats, connect
from repro.sim import Simulator
from repro.traffic.flows import (FlowIdAllocator, FlowRecord, UdpSink,
                                 send_flow)
from repro.traffic.popularity import FlowPlan, FlowShaper, FlowSizeSampler

from test_net_link_node import tx_bytes, utilization_series

WIRE = 1028  # 1000B payload + 28B IPv4+UDP headers


def linked_hosts(sim, delay=0.01):
    a = Host(sim, "a", address="10.0.0.1")
    b = Host(sim, "b", address="10.0.0.2")
    iface_a = a.add_interface("eth0")
    iface_b = b.add_interface("eth0")
    connect(sim, iface_a, iface_b, delay=delay)
    a.fib.insert(FibEntry(IPv4Prefix("0.0.0.0/0"), iface_a))
    b.fib.insert(FibEntry(IPv4Prefix("0.0.0.0/0"), iface_b))
    return a, b


# --------------------------------------------------------------------- #
# Shaper: fluid classification and chunk sizing
# --------------------------------------------------------------------- #

def test_flow_shaper_fluid_plans_bulk_flows():
    sizes = FlowSizeSampler(random.Random(0), dist="constant", mean=100)
    shaper = FlowShaper(sizes, payload_bytes=1000, pacing="fluid",
                        pace_rate_bps=2_000_000.0, fluid_threshold=10,
                        chunk_interval=0.25)
    plan = shaper.plan()
    assert plan.kind == "fluid"
    assert plan.packets == 100
    assert plan.chunk_interval == 0.25
    # 0.25 s of 2 Mbit/s is 62500 bytes = ~60.8 wire packets.
    assert plan.chunk_packets == round(2_000_000.0 * 0.25 / (8 * WIRE))


def test_flow_shaper_fluid_small_flows_stay_packet_level():
    sizes = FlowSizeSampler(random.Random(0), dist="constant", mean=4)
    shaper = FlowShaper(sizes, payload_bytes=1000, pacing="fluid",
                        fluid_threshold=10)
    plan = shaper.plan()
    assert plan.kind == "mouse"
    assert plan.chunk_packets == 0


def test_flow_shaper_fluid_validation():
    sizes = FlowSizeSampler(random.Random(0), dist="constant", mean=5)
    with pytest.raises(ValueError):
        FlowShaper(sizes, payload_bytes=1000, pacing="fluid",
                   chunk_interval=0.0)
    with pytest.raises(ValueError):
        FlowShaper(sizes, payload_bytes=1000, pacing="fluid",
                   fluid_threshold=0)


# --------------------------------------------------------------------- #
# LinkStats.book_fluid: the window-granular transmitter model
# --------------------------------------------------------------------- #

def test_book_fluid_infinite_rate_grants_everything():
    stats = LinkStats()
    granted = stats.book_fluid(0.0, 0.5, 10_000, None)
    assert granted == 10_000
    assert stats.fluid_bytes == tx_bytes(stats) == 10_000
    assert stats.windows[0][0] == 0.0   # no transmitter seconds


def test_book_fluid_accrues_busy_time_like_serialisation():
    stats = LinkStats()
    granted = stats.book_fluid(0.0, 0.5, 50_000, 1_000_000.0)
    assert granted == 50_000
    # 50 kB at 1 Mbit/s is 0.4 s of transmitter time.
    assert stats.windows[0][0] == pytest.approx(0.4)
    assert stats.fluid_bytes == 50_000


def test_book_fluid_clips_to_chunk_dwell_time():
    # The chunk overlaps the window for only 0.1 s: it cannot claim more
    # transmitter seconds than its own interval, even in an empty window.
    stats = LinkStats()
    granted = stats.book_fluid(0.0, 0.1, 50_000, 1_000_000.0)
    assert granted == 12_500  # 0.1 s at 1 Mbit/s


def test_book_fluid_saturated_window_grants_nothing():
    stats = LinkStats()
    stats.account_transmission(0.0, 1.0, 125_000)  # packets filled window 0
    granted = stats.book_fluid(0.2, 0.5, 10_000, 1_000_000.0)
    assert granted == 0


def test_book_fluid_shares_capacity_with_packets():
    stats = LinkStats()
    stats.account_transmission(0.0, 0.6, 75_000)  # packets took 0.6 s
    granted = stats.book_fluid(0.0, 1.0, 100_000, 1_000_000.0)
    # Only 0.4 s of transmitter time remains in window 0.
    assert granted == 50_000
    assert stats.windows[0][0] == pytest.approx(1.0)  # window is now full


def test_book_fluid_spans_multiple_windows():
    stats = LinkStats()
    granted = stats.book_fluid(0.5, 2.0, 250_000, 1_000_000.0)
    assert granted == 250_000  # 2.0 s at 1 Mbit/s
    series = utilization_series(stats)
    assert [start for start, _busy, _vol in series] == [0.0, 1.0, 2.0]


# --------------------------------------------------------------------- #
# Link.post_fluid: synchronous ledger updates, conservation by design
# --------------------------------------------------------------------- #

def _rated_link(sim, rate_bps=1_000_000.0):
    a, b = linked_hosts(sim, delay=0.0)
    link = a.interfaces["eth0"].link
    link.rate_bps = rate_bps
    return a, b, link


def test_post_fluid_conserves_bytes_exactly():
    sim = Simulator()
    _a, _b, link = _rated_link(sim)
    delivered = link.post_fluid(200_000, 7, 1.0)  # window grants 125 kB
    stats = link.stats
    assert delivered == 125_000
    assert stats.bytes_offered == 200_000
    assert stats.bytes_delivered == 125_000
    assert stats.bytes_dropped == 75_000
    assert stats.bytes_in_flight == 0  # chunks are never in flight
    assert stats.conservation_violations(drained=True) == []
    account = stats.flows[7]
    assert account.offered == 200_000
    assert account.delivered + account.dropped == 200_000


def test_post_fluid_down_link_drops_everything():
    sim = Simulator()
    _a, _b, link = _rated_link(sim)
    link.up = False
    assert link.post_fluid(10_000, 7, 0.5) == 0
    assert link.stats.bytes_dropped == 10_000
    assert link.stats.conservation_violations(drained=True) == []


# --------------------------------------------------------------------- #
# The fluid sender: probe, chunks, re-probe, give-up
# --------------------------------------------------------------------- #

def _fluid_plan(packets=100, chunk_packets=60, interval=0.25):
    return FlowPlan(packets=packets, payload_bytes=1000, spacing=0.004,
                    kind="fluid", chunk_interval=interval,
                    chunk_packets=chunk_packets)


def test_fluid_sender_spends_budget_exactly():
    sim = Simulator()
    a, b = linked_hosts(sim, delay=0.0)
    sink = UdpSink(sim, b, 9000)
    record = FlowRecord(flow_id=60, source=a.address)
    send_flow(sim, a, b.address, 9000, record, _fluid_plan())
    sim.run()
    assert record.flow_kind == "fluid"
    assert record.bytes_sent == record.bytes_budget == 100_000
    assert record.packets_sent == 1       # the probe
    assert record.chunks_sent == 2        # 60 + 39 packets' worth
    # Probe at 0, its wait ends at 0.25 — itself tick 1 of the 0.25 s
    # grid, so the flow joins and is pumped at once: 60 packets at 0.25,
    # the last 39 at tick 2.
    assert record.finished_at == 0.5
    assert not record.failed
    # The sink saw the probe as a packet and the chunks as fluid bytes;
    # the link's ledger holds both for the flow.
    assert sink.by_flow[60] == 1
    assert sink.fluid_bytes == 99 * WIRE
    assert a.interfaces["eth0"].link.stats.flows[60].delivered == 100 * WIRE
    link = a.interfaces["eth0"].link
    assert link.stats.conservation_violations(drained=True) == []


def test_fluid_finish_moves_by_less_than_one_interval(monkeypatch):
    """The timing bound of grid-aligned ticks.

    A flow joins the pump when its probe wait ends and posts its first
    chunk at the next multiple of ``chunk_interval`` — less than one
    interval later than a sender ticking on its own clock would — then
    one chunk per tick, so its finish moves by less than one
    ``chunk_interval`` and it never posts two chunks inside one interval.
    """
    sim = Simulator()
    a, b = linked_hosts(sim, delay=0.0)
    UdpSink(sim, b, 9000)
    link = a.interfaces["eth0"].link
    chunk_times = []
    post_fluid = Link.post_fluid

    def spy(self, size, flow_id, duration):
        if self is link:    # links are slotted: the class is patched
            chunk_times.append(sim.now)
        return post_fluid(self, size, flow_id, duration)

    monkeypatch.setattr(Link, "post_fluid", spy)
    record = FlowRecord(flow_id=63, source=a.address)
    sim.call_in(0.1, send_flow, sim, a, b.address, 9000, record, _fluid_plan())
    sim.run()
    # Probe at 0.1, wait ends at 0.35 (off the grid): chunks at ticks 2
    # and 3.  Off its own clock the flow would have posted at 0.35 and
    # 0.6 and finished at 0.6; it finishes 0.15 s (< 0.25 s) later.
    assert chunk_times == [0.5, 0.75]
    assert record.finished_at == 0.75
    assert record.finished_at - 0.6 < 0.25
    assert record.bytes_sent == record.bytes_budget


def test_fluid_sender_far_fewer_events_than_packet_sender():
    def events_for(plan):
        sim = Simulator()
        a, b = linked_hosts(sim, delay=0.0)
        UdpSink(sim, b, 9000)
        record = FlowRecord(flow_id=1, source=a.address)
        send_flow(sim, a, b.address, 9000, record, plan)
        sim.run()
        return sim.processed_events

    fluid = events_for(_fluid_plan(packets=200))
    packet = events_for(FlowPlan(packets=200, payload_bytes=1000,
                                 spacing=0.004, kind="elephant"))
    # The hosts' link is rate-less, so a hop is one engine event (the
    # delivery).  A sender is no process: its first packet leaves inside
    # ``send_flow`` and only its completion event is its own.  The probe's
    # hop and its wait, four pump ticks (60+60+60+19 packets) with a
    # re-arm after all but the last, the pump's wake-up and the
    # completion: 1 + 1 + 4 + 3 + 1 + 1.  The packet sender pays 200 hops,
    # 199 spacing gaps and the completion.
    assert fluid == 11
    assert packet == 400


def test_fluid_sender_gives_up_when_path_never_answers():
    sim = Simulator()
    a, b = linked_hosts(sim, delay=0.0)
    UdpSink(sim, b, 9000)
    a.interfaces["eth0"].link.up = False
    record = FlowRecord(flow_id=61, source=a.address)
    send_flow(sim, a, b.address, 9000, record, _fluid_plan())
    sim.run()
    assert record.failed
    assert record.finished_at is not None
    assert record.packets_sent == 3  # 1 + FLUID_PROBE_RETRIES probes
    assert record.bytes_sent == 3000 < record.bytes_budget


def test_fluid_sender_reprobes_after_path_failure():
    sim = Simulator()
    a, b = linked_hosts(sim, delay=0.0)
    sink = UdpSink(sim, b, 9000)
    link = a.interfaces["eth0"].link
    record = FlowRecord(flow_id=62, source=a.address)
    send_flow(sim, a, b.address, 9000, record, _fluid_plan(packets=200))
    # Kill the link under the second chunk, repair it two probe intervals
    # later: the dead chunk (charged to the budget like any lost bytes)
    # triggers re-discovery and the flow still completes.
    sim.call_in(0.30, lambda: setattr(link, "up", False))
    sim.call_in(0.60, lambda: setattr(link, "up", True))
    sim.run()
    assert not record.failed
    assert record.bytes_sent == record.bytes_budget
    assert record.packets_sent >= 2  # initial probe + at least one re-probe
    assert link.stats.bytes_dropped > 0  # the chunk that died
    assert link.stats.conservation_violations(drained=True) == []
    assert sink.fluid_bytes > 0
    assert link.stats.flows[62].delivered \
        == sink.by_flow[62] * WIRE + sink.fluid_bytes


# --------------------------------------------------------------------- #
# Fluid vs packet equivalence on a full scenario
# --------------------------------------------------------------------- #

#: Fluid chunks post each hop's own wire size, tunnel headers included, so
#: what is left is whole-chunk loss where packet mode would lose single
#: packets; on this workload it measures 0.003% in total and nothing per
#: flow (see docs/contracts.md).
EQUIV_TOLERANCE = 0.01


def _run_paced(pacing):
    config = ScenarioConfig(control_plane="pce", num_sites=3, seed=77)
    scenario = build_scenario(config)
    workload = WorkloadConfig(num_flows=24, arrival_rate=12.0,
                              packets_per_flow=40, payload_bytes=1200,
                              size_dist="pareto", pacing=pacing,
                              pace_rate_bps=4_000_000.0,
                              elephant_threshold=20.0, fluid_threshold=20.0,
                              fluid_chunk_interval=0.25, grace_period=12.0)
    records = run_workload(scenario, workload)
    scenario.sim.run()
    return scenario, records


def test_fluid_matches_packet_sender_within_tolerance():
    shaped, shaped_records = _run_paced("shaped")
    fluid, fluid_records = _run_paced("fluid")
    # Same seed, same RNG discipline: the flows themselves are identical.
    assert [r.bytes_budget for r in shaped_records] \
        == [r.bytes_budget for r in fluid_records]
    assert {r.flow_kind for r in shaped_records} == {"mouse", "elephant"}
    assert {r.flow_kind for r in fluid_records} >= {"fluid"}
    assert all(not r.failed for r in fluid_records)
    assert all(r.bytes_sent == r.bytes_budget for r in fluid_records)

    # Per-link delivered bytes agree within the stated tolerance.
    shaped_total = sum(link.stats.bytes_delivered
                       for link in shaped.links)
    fluid_total = sum(link.stats.bytes_delivered
                      for link in fluid.links)
    assert fluid_total == pytest.approx(shaped_total, rel=EQUIV_TOLERANCE)

    # Per-flow delivered byte shares agree too: what each flow's last hop,
    # the link into its sink's host, delivered.
    def delivered_by_flow(scenario):
        scenario.fluid_pump.settle()
        hosts = {sink.host for sink in scenario.udp_sinks.values()}
        totals = {}
        for link in scenario.links:
            if link.dst_interface.node in hosts:
                for flow_id, account in link.stats.flows.items():
                    totals[flow_id] = totals.get(flow_id, 0) + account.delivered
        return totals

    shaped_flows = delivered_by_flow(shaped)
    fluid_flows = delivered_by_flow(fluid)
    assert set(shaped_flows) == set(fluid_flows)
    for flow_id, shaped_bytes in shaped_flows.items():
        assert fluid_flows[flow_id] == pytest.approx(
            shaped_bytes, rel=EQUIV_TOLERANCE)

    # And both worlds conserve bytes exactly.
    for scenario in (shaped, fluid):
        accounting = scenario.byte_accounting(drained=True)
        assert accounting["violations"] == []


@pytest.mark.parametrize("control_plane, wire_sizes",
                         [("pce", {1228, 1264}), ("plain", {1228})])
def test_fluid_matches_packets_byte_for_byte_on_lossless_paths(
        control_plane, wire_sizes):
    """Where nothing is lost the two tiers must agree exactly, hop by hop.

    Three 100-packet flows on infinite-rate links: every link a flow
    crosses books the same offered/delivered bytes for it whether the
    flow went as 100 packets or as a probe plus chunks — including the
    36 bytes of tunnel header per packet between the xTRs of a PCE world,
    which the 1% equivalence bound alone is too coarse to see (without
    them that workload is 0.93% off in total).
    """
    def accounts(pacing):
        scenario = build_scenario(ScenarioConfig(
            control_plane=control_plane, num_sites=3, seed=9))
        records = run_workload(scenario, WorkloadConfig(
            num_flows=3, arrival_rate=5.0, packets_per_flow=100,
            payload_bytes=1200, pacing=pacing, pace_rate_bps=4_000_000.0,
            elephant_threshold=10.0, fluid_threshold=10.0, grace_period=10.0))
        assert all(r.bytes_sent == r.bytes_budget and not r.failed
                   for r in records)
        return ({record.flow_kind for record in records},
                {link.name: {flow_id: account.as_tuple() for flow_id, account
                             in link.stats.flows.items()}
                 for link in scenario.links if link.stats.flows})

    packet_kinds, as_packets = accounts("shaped")
    fluid_kinds, as_fluid = accounts("fluid")
    assert (packet_kinds, fluid_kinds) == ({"elephant"}, {"fluid"})
    assert as_fluid == as_packets
    assert {delivered // 100 for by_flow in as_fluid.values()
            for _offered, delivered, _dropped in by_flow.values()} == wire_sizes


def test_fluid_workload_counts_concurrency():
    _fluid, records = _run_paced("fluid")
    assert peak_concurrent_flows(records) >= 2
    assert all(r.finished_at is not None for r in records if not r.failed)


# --------------------------------------------------------------------- #
# FlowIdAllocator: per-world ids, stable across restore
# --------------------------------------------------------------------- #

def test_flow_id_allocator_is_sequential_and_checkpointable():
    ids = FlowIdAllocator()
    assert [ids.allocate() for _ in range(3)] == [1, 2, 3]
    state = ids.snapshot_state()
    assert ids.allocate() == 4
    ids.restore_state(state)
    assert ids.allocate() == 4


def test_flow_ids_identical_in_fresh_and_restored_worlds():
    """The satellite contract: ids are world state, not process state.

    A module-level counter would hand a restored world different ids than
    the fresh build got (the worker process has allocated in between);
    the per-world allocator makes the two runs label flows identically.
    """
    config = ScenarioConfig(control_plane="pce", num_sites=3, seed=5)
    workload = WorkloadConfig(num_flows=10, arrival_rate=10.0)
    scenario = build_world(config)
    first = [r.flow_id for r in run_workload(scenario, workload)]
    restore_world(scenario)
    second = [r.flow_id for r in run_workload(scenario, workload)]
    assert first == second == list(range(1, 11))
