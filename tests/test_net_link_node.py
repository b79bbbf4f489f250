"""Tests for links (delay, serialisation, queues, drops) and node dispatch."""

import math

import pytest
from process_kernel import Process

from repro.net.errors import PortInUseError
from repro.net.host import Host
from repro.net import link as link_module
from repro.net.link import WINDOW_WIDTH, Link, connect
from repro.net.packet import udp_packet
from repro.net.router import Router
from repro.sim import Simulator


def utilization_series(stats):
    """*stats*' windows as sorted ``(window_start, busy_fraction, bytes)``
    tuples: per-window transmitter utilization (0.0 on infinite-rate
    links) and offered-to-transmitter volume."""
    return [(index * WINDOW_WIDTH, min(1.0, busy / WINDOW_WIDTH), volume)
            for index, (busy, volume) in sorted(stats.windows.items())]


def busy_seconds(stats):
    """*stats*' transmitter busy time: its windows' busy seconds summed."""
    return math.fsum(busy for busy, _volume in stats.windows.values())


def tx_bytes(stats):
    """Bytes *stats*' transmitter sent, packets and fluid chunks alike:
    its windows' volumes summed."""
    return sum(volume for _busy, volume in stats.windows.values())


def two_hosts(sim, delay=0.01, rate_bps=None):
    a = Host(sim, "a", address="10.0.0.1")
    b = Host(sim, "b", address="10.0.0.2")
    iface_a = a.add_interface("eth0")
    iface_b = b.add_interface("eth0")
    connect(sim, iface_a, iface_b, delay=delay, rate_bps=rate_bps)
    a.fib.add("0.0.0.0/0", iface_a)
    b.fib.add("0.0.0.0/0", iface_b)
    return a, b


def test_packet_arrives_after_propagation_delay():
    sim = Simulator()
    a, b = two_hosts(sim, delay=0.025)
    arrivals = []
    b.bind_udp(7, lambda packet, node: arrivals.append(sim.now))
    a.send(udp_packet(a.address, b.address, 1000, 7))
    sim.run()
    assert arrivals == [pytest.approx(0.025)]


def test_serialisation_delay_with_finite_rate():
    sim = Simulator()
    # 1000-byte packet at 1 Mbit/s -> 8 ms serialisation + 1 ms propagation.
    a, b = two_hosts(sim, delay=0.001, rate_bps=1_000_000)
    arrivals = []
    b.bind_udp(7, lambda packet, node: arrivals.append(sim.now))
    a.send(udp_packet(a.address, b.address, 1, 7, payload_bytes=1000 - 28))
    sim.run()
    assert arrivals == [pytest.approx(0.009)]


def test_queueing_back_to_back_packets():
    sim = Simulator()
    a, b = two_hosts(sim, delay=0.0, rate_bps=8_000)  # 1 byte per ms
    arrivals = []
    b.bind_udp(7, lambda packet, node: arrivals.append(sim.now))
    for _ in range(3):
        a.send(udp_packet(a.address, b.address, 1, 7, payload_bytes=100 - 28))
    sim.run()
    # Each 100-byte packet takes 100 ms to serialise; they queue in FIFO order.
    assert arrivals == [pytest.approx(0.1), pytest.approx(0.2), pytest.approx(0.3)]


@pytest.fixture
def one_packet_queue(monkeypatch):
    """Rated links queue one packet behind the one being serialised."""
    monkeypatch.setattr(link_module, "QUEUE_CAPACITY", 1)


def test_tail_drop_when_queue_full(one_packet_queue):
    sim = Simulator()
    a, b = two_hosts(sim, delay=0.0, rate_bps=8_000)
    arrivals = []
    b.bind_udp(7, lambda packet, node: arrivals.append(sim.now))
    accepted = [a.send(udp_packet(a.address, b.address, 1, 7, payload_bytes=72))
                for _ in range(5)]
    sim.run()
    # One in flight + one queued; the rest tail-dropped.
    assert accepted == [True, True, False, False, False]
    assert len(arrivals) == 2
    link = a.interfaces["eth0"].link
    assert link.stats.bytes_dropped == 3 * 100


def test_rateless_link_never_queues_or_tail_drops():
    """Infinite rate means no transmitter to wait behind: one instant's burst
    beyond ``QUEUE_CAPACITY`` is delivered whole, one engine event per packet
    (a burst of 1 500 used to deliver 1 001 and tail-drop 499)."""
    sim = Simulator()
    a, b = two_hosts(sim, delay=0.01)  # rate_bps=None
    arrivals = []
    b.bind_udp(7, lambda packet, node: arrivals.append(sim.now))
    link = a.interfaces["eth0"].link
    accepted = [link.send(udp_packet(a.address, b.address, 1, 7, payload_bytes=72))
                for _ in range(1500)]
    assert all(accepted)
    assert not link._queue and not link._busy
    assert link.stats.bytes_in_flight == 1500 * 100
    sim.run()
    assert arrivals == [0.01] * 1500
    stats = link.stats
    assert (stats.bytes_dropped, stats.bytes_in_flight) == (0, 0)
    assert tx_bytes(stats) == 1500 * 100
    assert utilization_series(stats) == [(0.0, 0.0, 1500 * 100)]
    assert sim.processed_events == 1500  # the deliveries, nothing else


def test_rated_link_queues_and_tail_drops_a_burst():
    """The same burst on a rated link: serialisation, FIFO queue, tail drop,
    and two engine events (serialised, propagated) per accepted packet."""
    sim = Simulator()
    a, b = two_hosts(sim, delay=0.01, rate_bps=8_000_000)
    arrivals = []
    b.bind_udp(7, lambda packet, node: arrivals.append(sim.now))
    link = a.interfaces["eth0"].link
    accepted = [link.send(udp_packet(a.address, b.address, 1, 7, payload_bytes=72))
                for _ in range(1500)]
    # One in serialisation + 1000 queued; the rest tail-dropped.
    assert accepted == [True] * 1001 + [False] * 499
    assert len(link._queue) == 1000 and link._busy
    sim.run()
    # 100 bytes at 8 Mbit/s serialise in 100 us, back to back.
    assert arrivals == pytest.approx([0.01 + 0.0001 * n for n in range(1, 1002)])
    stats = link.stats
    assert stats.bytes_in_flight == 0
    assert (tx_bytes(stats), stats.bytes_dropped) == (1001 * 100, 499 * 100)
    assert busy_seconds(stats) == pytest.approx(1001 * 0.0001)
    assert not link._busy
    assert sim.processed_events == 2 * 1001


def test_link_down_drops():
    sim = Simulator()
    a, b = two_hosts(sim)
    arrivals = []
    b.bind_udp(7, lambda packet, node: arrivals.append(sim.now))
    a.interfaces["eth0"].link.up = False
    assert a.send(udp_packet(a.address, b.address, 1, 7)) is False
    sim.run()
    assert arrivals == []


def test_link_stats_accumulate():
    sim = Simulator()
    a, b = two_hosts(sim)
    b.bind_udp(7, lambda packet, node: None)
    for _ in range(4):
        a.send(udp_packet(a.address, b.address, 1, 7, payload_bytes=100))
    sim.run()
    link = a.interfaces["eth0"].link
    assert link.stats.bytes_delivered == 4 * 128
    assert tx_bytes(link.stats) == 4 * 128


def _flow_packet(a, b, flow_id, payload=72):
    return udp_packet(a.address, b.address, 5000, 7, payload_bytes=payload,
                      meta={"flow_id": flow_id})


def test_per_flow_byte_accounting_conserves(one_packet_queue):
    sim = Simulator()
    a, b = two_hosts(sim, delay=0.0, rate_bps=8_000)
    b.bind_udp(7, lambda packet, node: None)
    for _ in range(5):
        a.send(_flow_packet(a, b, flow_id=1))
    a.send(_flow_packet(a, b, flow_id=2))
    sim.run()
    stats = a.interfaces["eth0"].link.stats
    # Flow 1: one in serialisation + one queued accepted; three tail-dropped.
    account = stats.flows[1]
    assert account.offered == 5 * 100
    assert account.delivered == 2 * 100
    assert account.dropped == 3 * 100
    assert account.in_flight == 0
    # Flow 2 arrived after the queue freed nothing: tail-dropped whole.
    assert stats.flows[2].dropped == 100
    # Totals line up with the per-flow accounts (all packets carried ids).
    assert stats.bytes_offered == 6 * 100
    assert stats.bytes_offered == stats.bytes_delivered + stats.bytes_dropped
    assert stats.bytes_in_flight == 0
    assert stats.conservation_violations(drained=True) == []


def test_bytes_in_flight_while_transmitting():
    sim = Simulator()
    a, b = two_hosts(sim, delay=0.0, rate_bps=8_000)
    b.bind_udp(7, lambda packet, node: None)
    a.send(_flow_packet(a, b, flow_id=9))
    link = a.interfaces["eth0"].link
    sim.run(until=0.05)  # mid-serialisation (100 bytes take 100 ms)
    assert link.stats.bytes_in_flight == 100
    assert link.stats.flows[9].in_flight == 100
    assert link.stats.conservation_violations() == []          # legal in flight
    assert link.stats.conservation_violations(drained=True) != []  # not drained
    sim.run()
    assert link.stats.bytes_in_flight == 0


def test_down_link_drop_mid_flight_accounted():
    sim = Simulator()
    a, b = two_hosts(sim, delay=0.05)
    b.bind_udp(7, lambda packet, node: None)
    a.send(_flow_packet(a, b, flow_id=3))
    link = a.interfaces["eth0"].link
    sim.run(until=0.01)      # packet is propagating
    link.up = False          # fails before delivery
    sim.run()
    assert link.stats.flows[3].dropped == 100
    assert link.stats.bytes_in_flight == 0
    assert link.stats.conservation_violations(drained=True) == []


def test_encapsulated_packets_account_to_inner_flow():
    from repro.lisp.headers import encapsulate

    sim = Simulator()
    a, b = two_hosts(sim)
    inner = _flow_packet(a, b, flow_id=77)
    outer = encapsulate(inner, a.address, b.address)
    a.send(outer)
    sim.run()
    stats = a.interfaces["eth0"].link.stats
    assert 77 in stats.flows
    assert stats.flows[77].offered == outer.size_bytes


def test_utilization_windows_split_busy_time():
    sim = Simulator()
    # 8000 bit/s -> a 100-byte packet serialises in 0.1 s.
    a, b = two_hosts(sim, delay=0.0, rate_bps=8_000)
    b.bind_udp(7, lambda packet, node: None)
    link = a.interfaces["eth0"].link
    assert WINDOW_WIDTH == 1.0
    # One packet in window 0, then two back-to-back starting at t=1.95:
    # the second transmission spans the window-1/window-2 boundary.
    a.send(_flow_packet(a, b, flow_id=1))
    sim.call_in(1.95, lambda: (a.send(_flow_packet(a, b, flow_id=1)),
                               a.send(_flow_packet(a, b, flow_id=1))))
    sim.run()
    series = dict((start, (busy, volume)) for start, busy, volume
                  in utilization_series(link.stats))
    assert series[0.0] == (pytest.approx(0.1), 100)
    # First back-to-back packet: bytes land at its 1.95 start, busy splits
    # 0.05 s before the boundary, 0.05 s after; the queued packet starts
    # (and lands its bytes) at 2.05, keeping window 2 busy until 2.15.
    assert series[1.0] == (pytest.approx(0.05), 100)
    assert series[2.0][0] == pytest.approx(0.15)
    assert series[2.0][1] == 100
    assert link.stats.peak_utilization() == pytest.approx(0.15)
    assert busy_seconds(link.stats) == pytest.approx(0.3)


def test_link_stats_snapshot_round_trip(one_packet_queue):
    """Every stats field — busy time, windows, per-flow accounts — restores."""
    sim = Simulator()
    a, b = two_hosts(sim, delay=0.0, rate_bps=8_000)
    b.bind_udp(7, lambda packet, node: None)
    link = a.interfaces["eth0"].link
    for _ in range(4):                       # includes a tail drop
        a.send(_flow_packet(a, b, flow_id=5))
    sim.run()
    checkpoint = link.snapshot_state()
    frozen = link.stats.snapshot_state()

    for _ in range(3):                       # dirty everything again
        a.send(_flow_packet(a, b, flow_id=6))
    link.up = False
    a.send(_flow_packet(a, b, flow_id=6))
    sim.run()
    assert link.stats.snapshot_state() != frozen

    link.restore_state(checkpoint)
    assert link.stats.snapshot_state() == frozen
    assert link.up is True
    stats = link.stats
    assert 6 not in stats.flows
    # One transmitted + one queued delivered; two tail-dropped.
    assert stats.flows[5].as_tuple() == (400, 200, 200)
    assert busy_seconds(stats) == pytest.approx(0.2)
    assert stats.windows and stats.conservation_violations(drained=True) == []
    # The restored copies are independent: mutating live state must not
    # reach back into the frozen checkpoint.
    stats.flows[5].delivered += 1
    stats.windows[0][1] += 1
    assert link.snapshot_state() != checkpoint


def test_idle_links_share_one_ledger_that_nothing_writes(one_packet_queue):
    """A link reads the shared all-zero ledger until a byte is offered to
    it; its checkpoint says so with None, and a restore hands it back."""
    sim = Simulator()
    a, b = two_hosts(sim, delay=0.0, rate_bps=8_000)
    b.bind_udp(7, lambda packet, node: None)
    link = a.interfaces["eth0"].link
    back = b.interfaces["eth0"].link
    pristine = link.snapshot_state()
    assert link.stats is back.stats is link_module.IDLE_STATS
    assert pristine == (True, False, None)
    for _ in range(4):                       # queues and tail-drops
        a.send(_flow_packet(a, b, flow_id=5))
    link.post_fluid(500, 6, 0.5)
    link.up = False
    a.send(_flow_packet(a, b, flow_id=5))   # a down-link drop
    sim.run()
    assert link.stats is not link_module.IDLE_STATS
    assert link.stats.bytes_dropped and link.stats.flows[6].offered == 500
    assert back.stats is link_module.IDLE_STATS
    assert link_module.IDLE_STATS.snapshot_state() \
        == link_module.LinkStats().snapshot_state()
    link.restore_state(pristine)
    assert link.stats is link_module.IDLE_STATS and link.up is True
    with pytest.raises(TypeError):
        link_module.IDLE_STATS.flows[1] = link_module.FlowAccount()


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, None, None, delay=-1.0)


def test_node_local_delivery_without_wire():
    sim = Simulator()
    host = Host(sim, "lonely", address="10.0.0.1")
    seen = []
    host.bind_udp(9, lambda packet, node: seen.append(packet.udp.dport))
    host.send(udp_packet(host.address, host.address, 1, 9))
    sim.run()
    assert seen == [9]


def test_node_no_route_counts_drop():
    sim = Simulator()
    host = Host(sim, "h", address="10.0.0.1")
    assert host.send(udp_packet(host.address, "11.0.0.1", 1, 2)) is False
    assert len(sim.trace.of_kind("node.no-route")) == 1


def test_udp_port_rebind_rejected():
    sim = Simulator()
    host = Host(sim, "h", address="10.0.0.1")
    host.bind_udp(53, lambda packet, node: None)
    with pytest.raises(PortInUseError):
        host.bind_udp(53, lambda packet, node: None)
    host.unbind_udp(53)
    host.bind_udp(53, lambda packet, node: None)


# --------------------------------------------------------------------- #
# UdpSocket.request: one event per exchange, no process
# --------------------------------------------------------------------- #

def _responder(sim, b, answer_after=0, delay=0.0):
    """Bind port 7 on *b*: log payloads, answer all but the first *answer_after*."""
    seen = []

    def reply(packet, serial):
        b.send(udp_packet(b.address, packet.ip.src, 7, packet.udp.sport,
                          payload=("re", serial)))

    def on_request(packet, _node):
        seen.append(packet.payload)
        if len(seen) > answer_after:
            sim.call_in(delay, reply, packet, len(seen))

    b.bind_udp(7, on_request)
    return seen


def test_udp_request_is_one_event_answered_by_the_reply():
    sim = Simulator()
    a, b = two_hosts(sim, delay=0.25)
    seen = _responder(sim, b)
    socket = a.open_udp()
    done = socket.request(b.address, 7, payload="ping", timeout=2.0)
    assert not done._triggered
    assert sim.processed_events == 0 and len(sim._queue) == 2
    answered = []
    done.callbacks.append(lambda event: answered.append((sim.now, event.value.payload)))
    sim.run()
    assert seen == ["ping"]
    assert answered == [(0.5, ("re", 1))]
    assert sim.now == 2.0  # the deadline still fires, into nothing
    # Request hop, the responder's zero-delay call, reply hop, the
    # completion event, the deadline: no process start or end.
    assert sim.processed_events == 5


def test_udp_request_resends_the_same_payload_object_on_timeout():
    sim = Simulator()
    a, b = two_hosts(sim, delay=0.25)
    seen = _responder(sim, b, answer_after=2)
    payload = object()
    results = []

    def client():
        packet = yield a.open_udp().request(b.address, 7, payload=payload,
                                            timeout=1.0, retries=2)
        results.append((sim.now, packet.payload))

    Process(sim, client())
    sim.run()
    assert len(seen) == 3 and all(sent is payload for sent in seen)
    assert results == [(2.5, ("re", 3))]


def test_udp_request_timeout_reaches_the_yielding_process_as_none():
    sim = Simulator()
    a, b = two_hosts(sim, delay=0.25)
    seen = _responder(sim, b, answer_after=99)
    socket = a.open_udp()
    results = []

    def client():
        try:
            packet = yield socket.request(b.address, 7, payload="ping",
                                          timeout=1.0, retries=2)
            results.append((sim.now, packet))
        finally:
            socket.close()

    Process(sim, client())
    sim.run()
    assert seen == ["ping"] * 3  # retries + 1 sends
    assert results == [(3.0, None)]
    assert not socket._waiters
    assert sim.serializable


def test_udp_request_late_reply_satisfies_the_current_attempt():
    sim = Simulator()
    a, b = two_hosts(sim, delay=0.25)
    seen = _responder(sim, b, delay=1.25)  # slower than the timeout
    results = []

    def client():
        packet = yield a.open_udp().request(b.address, 7, payload="ping",
                                            timeout=1.0, retries=2)
        results.append((sim.now, packet.payload))

    Process(sim, client())
    sim.run()
    # The answer to attempt 1 lands during attempt 2 and completes it.
    assert results == [(1.75, ("re", 1))]
    assert seen == ["ping", "ping"]


def test_unclaimed_packet_traced():
    sim = Simulator()
    a, b = two_hosts(sim)
    a.send(udp_packet(a.address, b.address, 1, 9999))
    sim.run()
    assert len(sim.trace.of_kind("node.unclaimed")) == 1


def test_base_node_does_not_forward():
    sim = Simulator()
    a, b = two_hosts(sim)
    # Address 10.0.0.3 is not local to b; base nodes refuse to forward.
    a.send(udp_packet(a.address, "10.0.0.3", 1, 7))
    sim.run()
    assert len(sim.trace.of_kind("node.no-forward")) == 1


def router_chain(sim, hops, delay=0.01):
    """a -- r1 -- ... -- rN -- b, with /32 routes end to end."""
    a = Host(sim, "a", address="10.0.0.1")
    b = Host(sim, "b", address="10.0.0.2")
    routers = [Router(sim, f"r{i}") for i in range(hops)]
    chain = [a, *routers, b]
    for left, right in zip(chain, chain[1:], strict=False):
        iface_l = left.add_interface(f"to-{right.name}")
        iface_r = right.add_interface(f"to-{left.name}")
        connect(sim, iface_l, iface_r, delay=delay)
    for i, node in enumerate(chain[:-1]):
        node.fib.add("10.0.0.2/32", node.interfaces[f"to-{chain[i + 1].name}"])
    for i, node in enumerate(chain[1:], start=1):
        node.fib.add("10.0.0.1/32", node.interfaces[f"to-{chain[i - 1].name}"])
    return a, b, routers


def test_router_forwards_across_chain():
    sim = Simulator()
    a, b, _routers = router_chain(sim, hops=3, delay=0.01)
    arrivals = []
    b.bind_udp(7, lambda packet, node: arrivals.append((sim.now, packet.ip.ttl)))
    a.send(udp_packet(a.address, b.address, 1, 7))
    sim.run()
    when, ttl = arrivals[0]
    assert when == pytest.approx(0.04)  # 4 links x 10 ms
    assert ttl == 64 - 3  # one decrement per router


def test_ttl_expiry_drops_packet():
    sim = Simulator()
    a, b, routers = router_chain(sim, hops=3)
    arrivals = []
    b.bind_udp(7, lambda packet, node: arrivals.append(sim.now))
    a.send(udp_packet(a.address, b.address, 1, 7, ttl=2))
    sim.run()
    assert arrivals == []
    assert len(sim.trace.of_kind("router.ttl-expired")) == 1


def test_forward_tap_can_consume():
    sim = Simulator()
    a, b, routers = router_chain(sim, hops=1)
    tapped = []
    routers[0].add_forward_tap(lambda packet, node: tapped.append(packet.uid) or True)
    arrivals = []
    b.bind_udp(7, lambda packet, node: arrivals.append(sim.now))
    a.send(udp_packet(a.address, b.address, 1, 7))
    sim.run()
    assert len(tapped) == 1
    assert arrivals == []  # consumed by the tap


def test_forward_tap_observe_only():
    sim = Simulator()
    a, b, routers = router_chain(sim, hops=1)
    tapped = []
    routers[0].add_forward_tap(lambda packet, node: (tapped.append(packet.uid), False)[1])
    arrivals = []
    b.bind_udp(7, lambda packet, node: arrivals.append(sim.now))
    a.send(udp_packet(a.address, b.address, 1, 7))
    sim.run()
    assert len(tapped) == 1
    assert len(arrivals) == 1
