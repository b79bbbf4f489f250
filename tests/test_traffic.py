"""Tests for traffic models: Zipf popularity, TCP handshake, UDP sinks."""

import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.fib import FibEntry
from repro.net.addresses import IPv4Prefix
from repro.net.host import Host
from repro.net.link import connect
from repro.net.packet import udp_packet
from repro.sim import Simulator
from repro.traffic.flows import (DEFAULT_RTO, MAX_SYN_RETRIES, FlowRecord,
                                 TcpStack, UdpSink, send_flow)
from repro.traffic.popularity import (FlowPlan, FlowShaper, FlowSizeSampler,
                                      ZipfSampler)


def test_zipf_probabilities_sum_to_one():
    sampler = ZipfSampler(10, random.Random(0), s=1.0)
    total = sum(sampler.probability(rank) for rank in range(10))
    assert total == pytest.approx(1.0)


def test_zipf_rank_ordering():
    sampler = ZipfSampler(10, random.Random(0), s=1.2)
    probs = [sampler.probability(rank) for rank in range(10)]
    assert probs == sorted(probs, reverse=True)


def test_zipf_zero_skew_is_uniform():
    sampler = ZipfSampler(4, random.Random(0), s=0.0)
    for rank in range(4):
        assert sampler.probability(rank) == pytest.approx(0.25)


def test_zipf_samples_match_skew():
    rng = random.Random(1)
    sampler = ZipfSampler(20, rng, s=1.5)
    draws = [sampler.sample() for _ in range(4000)]
    top = sum(1 for d in draws if d == 0) / len(draws)
    assert top > 0.3  # rank 1 dominates at s=1.5
    assert top == pytest.approx(sampler.probability(0), abs=0.03)


def test_zipf_validation():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        ZipfSampler(0, rng)
    with pytest.raises(ValueError):
        ZipfSampler(5, rng, s=-1)


@given(st.integers(min_value=1, max_value=50),
       st.floats(min_value=0.0, max_value=3.0),
       st.integers(min_value=0, max_value=2**31))
def test_zipf_samples_in_range(n, s, seed):
    sampler = ZipfSampler(n, random.Random(seed), s=s)
    for _ in range(20):
        assert 0 <= sampler.sample() < n


def linked_hosts(sim, delay=0.01):
    a = Host(sim, "a", address="10.0.0.1")
    b = Host(sim, "b", address="10.0.0.2")
    iface_a = a.add_interface("eth0")
    iface_b = b.add_interface("eth0")
    connect(sim, iface_a, iface_b, delay=delay)
    a.fib.insert(FibEntry(IPv4Prefix("0.0.0.0/0"), iface_a))
    b.fib.insert(FibEntry(IPv4Prefix("0.0.0.0/0"), iface_b))
    return a, b


def test_tcp_handshake_takes_one_rtt():
    sim = Simulator()
    a, b = linked_hosts(sim, delay=0.05)
    TcpStack(sim, b).listen(80)
    client = TcpStack(sim, a)
    proc = client.connect(b.address, 80)
    sim.run()
    elapsed, retries = proc.value
    assert retries == 0
    assert elapsed == pytest.approx(0.1)  # SYN + SYN/ACK


def test_tcp_handshake_retransmits_on_loss():
    sim = Simulator()
    a, b = linked_hosts(sim, delay=0.05)
    TcpStack(sim, b).listen(80)
    client = TcpStack(sim, a)
    # Break the link for the first SYN, restore before the RTO fires.
    link = a.interfaces["eth0"].link
    link.up = False
    sim.call_in(0.5, lambda: setattr(link, "up", True))
    proc = client.connect(b.address, 80)
    sim.run()
    elapsed, retries = proc.value
    assert retries == 1
    assert elapsed == pytest.approx(DEFAULT_RTO + 0.1)


#: When a connect nobody answers gives up: every RTO, doubling, in turn.
GIVE_UP_AT = sum(DEFAULT_RTO * 2 ** attempt
                 for attempt in range(MAX_SYN_RETRIES + 1))


def test_tcp_handshake_gives_up():
    sim = Simulator()
    a, b = linked_hosts(sim)
    TcpStack(sim, b).listen(80)
    link = a.interfaces["eth0"].link
    link.up = False
    proc = TcpStack(sim, a).connect(b.address, 80)
    sim.run()
    assert proc.value is None
    assert sim.now == pytest.approx(GIVE_UP_AT)
    assert link.stats.drops == MAX_SYN_RETRIES + 1


def test_tcp_no_listener_times_out():
    sim = Simulator()
    a, b = linked_hosts(sim)
    TcpStack(sim, b)  # stack exists but port 80 not listening
    proc = TcpStack(sim, a).connect(b.address, 80)
    sim.run()
    assert proc.value is None
    assert sim.now == pytest.approx(GIVE_UP_AT)


def test_udp_sink_counts_by_flow():
    sim = Simulator()
    a, b = linked_hosts(sim)
    sink = UdpSink(sim, b, 9000)
    for flow_id in (1, 1, 2):
        a.send(udp_packet(a.address, b.address, 5000, 9000,
                          meta={"flow_id": flow_id}))
    sim.run()
    assert sink.received == 3
    assert sink.by_flow == {1: 2, 2: 1}
    assert len(sink.arrival_times) == 3


def test_udp_burst_paces_packets():
    sim = Simulator()
    a, b = linked_hosts(sim, delay=0.0)
    sink = UdpSink(sim, b, 9000)
    record = FlowRecord(flow_id=42, source=a.address)
    send_flow(sim, a, b.address, 9000, record,
              FlowPlan(packets=4, payload_bytes=1000, spacing=0.01,
                       kind="constant"))
    sim.run()
    assert record.packets_sent == 4
    assert sink.by_flow[42] == 4
    gaps = [t2 - t1 for t1, t2 in zip(sink.arrival_times,
                                      sink.arrival_times[1:], strict=False)]
    assert all(gap == pytest.approx(0.01) for gap in gaps)


def test_flow_record_packets_lost():
    record = FlowRecord(flow_id=1)
    record.packets_sent = 5
    record.packets_delivered = 3
    assert record.packets_lost == 2


def test_flow_shaper_constant_mode_matches_legacy_sender():
    sizes = FlowSizeSampler(random.Random(0), dist="constant", mean=5)
    shaper = FlowShaper(sizes, payload_bytes=1000, pacing="constant",
                        spacing=0.002)
    plan = shaper.plan()
    assert plan == FlowPlan(packets=5, payload_bytes=1000, spacing=0.002,
                            kind="constant")
    assert plan.byte_budget == 5000


def test_flow_shaper_classifies_mice_and_elephants():
    sizes = FlowSizeSampler(random.Random(7), dist="pareto", mean=5)
    shaper = FlowShaper(sizes, payload_bytes=1000, pacing="shaped",
                        pace_rate_bps=2_000_000.0)
    assert shaper.elephant_threshold == 10.0  # 2x the mean by default
    kinds = {}
    for _ in range(300):
        plan = shaper.plan()
        kinds.setdefault(plan.kind, []).append(plan)
    assert set(kinds) == {"mouse", "elephant"}
    assert all(plan.packets > 10 for plan in kinds["elephant"])
    assert all(plan.packets <= 10 for plan in kinds["mouse"])
    assert all(plan.spacing == 0.0 for plan in kinds["mouse"])
    # Elephant gap: (1000 + 28 header bytes) * 8 bits / 2 Mbit/s.
    expected_gap = 1028 * 8 / 2_000_000.0
    assert all(plan.spacing == pytest.approx(expected_gap)
               for plan in kinds["elephant"])


def test_flow_shaper_validation():
    sizes = FlowSizeSampler(random.Random(0), dist="constant", mean=5)
    with pytest.raises(ValueError):
        FlowShaper(sizes, payload_bytes=1000, pacing="bogus")
    with pytest.raises(ValueError):
        FlowShaper(sizes, payload_bytes=0, pacing="shaped")
    with pytest.raises(ValueError):
        FlowShaper(sizes, payload_bytes=1000, pacing="shaped", pace_rate_bps=0)
    with pytest.raises(ValueError):
        FlowShaper(sizes, payload_bytes=1000, pacing="shaped",
                   elephant_threshold=0)


def test_send_flow_mouse_bursts_back_to_back():
    sim = Simulator()
    a, b = linked_hosts(sim, delay=0.0)
    sink = UdpSink(sim, b, 9000)
    record = FlowRecord(flow_id=50, source=a.address)
    plan = FlowPlan(packets=4, payload_bytes=500, spacing=0.0, kind="mouse")
    send_flow(sim, a, b.address, 9000, record, plan)
    sim.run()
    assert record.packets_sent == 4
    assert record.bytes_sent == record.bytes_budget == 2000
    assert record.flow_kind == "mouse"
    assert sink.arrival_times == [0.0] * 4  # one instant, no pacing gaps


def test_send_flow_elephant_paces_at_plan_spacing():
    sim = Simulator()
    a, b = linked_hosts(sim, delay=0.0)
    sink = UdpSink(sim, b, 9000)
    record = FlowRecord(flow_id=51, source=a.address)
    plan = FlowPlan(packets=3, payload_bytes=500, spacing=0.02, kind="elephant")
    send_flow(sim, a, b.address, 9000, record, plan)
    sim.run()
    gaps = [t2 - t1 for t1, t2 in zip(sink.arrival_times,
                                      sink.arrival_times[1:], strict=False)]
    assert gaps == [pytest.approx(0.02)] * 2
    assert record.flow_kind == "elephant"


def test_flow_record_is_slotted_and_otherwise_unchanged():
    record = FlowRecord(flow_id=7, source="100.0.0.1", qname="h.example.",
                        started_at=0.5)
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.scratch = 1      # nothing hangs ad-hoc attributes on a record
    assert repr(record) == (
        "FlowRecord(flow_id=7, source='100.0.0.1', destination=None, "
        "qname='h.example.', started_at=0.5, dns_done_at=None, "
        "dns_elapsed=None, established_at=None, setup_elapsed=None, "
        "syn_retransmissions=0, packets_sent=0, packets_delivered=0, "
        "bytes_budget=0, bytes_sent=0, chunks_sent=0, finished_at=None, "
        "flow_kind=None, first_packet_fates=[], failed=False)")
    twin = FlowRecord(flow_id=7, source="100.0.0.1", qname="h.example.",
                      started_at=0.5)
    assert record == twin and record.first_packet_fates is not twin.first_packet_fates
    record.first_packet_fates.append("encapsulated")
    record.packets_sent = 3
    assert record != twin and record.packets_lost == 3
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(record, protocol))
        assert copy == record and repr(copy) == repr(record)
