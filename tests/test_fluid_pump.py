"""The fluid pump: per-link bookings, pro-rata loss, flows written late.

``FluidPump`` advances every fluid flow of a world in one engine event per
chunk interval.  Groups of flows that share a path are counted, not
visited: a tick that grants a group in full writes nothing per flow, and
rate-less, up groups are summed into one booking per link.  A group with
a rated or down hop books each hop itself, in the order the groups
formed, and splits what a hop grants between its flows.  Records and
per-flow accounts catch up when a flow leaves, when a tick cuts its group
short and when a reader calls ``settle()``.  The unit tests pin the
bookings, the split, the settling and the pump's life cycle.  The seeded
tests drive random flow sets over a shared bottleneck with links going
down and up: against the per-group, per-flow reference pump in
``reference_pump.py``, tick by tick, and on their own, checking that the
totals are exact after every tick and lag the per-flow accounts by
exactly the unsettled packets, that after ``settle()`` the two tell one
story, and that a twin run settled only by flows leaving ends with the
same per-flow ledgers as the run settled every tick.
"""

import random

import pytest

from repro.net.addresses import IPv4Prefix
from repro.net.fib import FibEntry
from repro.net.host import Host
from repro.net.link import FlowAccount, Link, connect
from repro.net.router import Router
from repro.sim import Simulator
from repro.traffic.flows import (FlowRecord, FluidPump, UdpSink,
                                 _split_pro_rata, send_flow)
from repro.traffic.popularity import FlowPlan
from reference_pump import ReferencePump

PAYLOAD = 1000
WIRE = PAYLOAD + 28
INTERVAL = 0.25
PORT = 9000


def fluid_plan(packets, chunk_packets=40):
    return FlowPlan(packets=packets, payload_bytes=PAYLOAD, spacing=0.004,
                    kind="fluid", chunk_interval=INTERVAL,
                    chunk_packets=chunk_packets)


class Dumbbell:
    """``sources - left = right - sinks``: every flow crosses ``left->right``.

    Access links are infinite-rate; the bottleneck's rate is the test's,
    and so is the pump (*pump*, called with the simulator).
    """

    def __init__(self, sim, sources=3, sinks=2, bottleneck_bps=None,
                 pump=FluidPump):
        self.sim = sim
        self.left = Router(sim, "left")
        self.right = Router(sim, "right")
        trunk_l = self.left.add_interface("trunk")
        trunk_r = self.right.add_interface("trunk")
        self.bottleneck, _ = connect(sim, trunk_l, trunk_r, delay=0.001,
                                     rate_bps=bottleneck_bps)
        self.left.fib.insert(FibEntry(IPv4Prefix("10.0.1.0/24"), trunk_l))
        self.right.fib.insert(FibEntry(IPv4Prefix("10.0.0.0/24"), trunk_r))
        self.sources = [self._attach(self.left, f"s{index}", f"10.0.0.{index + 1}")
                        for index in range(sources)]
        self.sinks = [self._attach(self.right, f"d{index}", f"10.0.1.{index + 1}")
                      for index in range(sinks)]
        self.udp_sinks = [UdpSink(sim, host, PORT) for host in self.sinks]
        self.pump = pump(sim)

    def _attach(self, router, name, address):
        host = Host(self.sim, name, address=address)
        host_iface = host.add_interface("eth0")
        router_iface = router.add_interface(f"to-{name}")
        connect(self.sim, host_iface, router_iface, delay=0.001)
        host.fib.insert(FibEntry(IPv4Prefix("0.0.0.0/0"), host_iface))
        router.fib.insert(FibEntry(IPv4Prefix(f"{address}/32"), router_iface))
        return host

    def links(self):
        for node in (self.left, self.right, *self.sources, *self.sinks):
            for iface in node.interfaces.values():
                yield iface.link

    def last_hop(self, sink_index):
        """The link that delivers into sink host *sink_index*."""
        return self.right.interfaces[f"to-d{sink_index}"].link

    def start(self, flow_id, source, sink, packets, at=0.0, chunk_packets=40):
        record = FlowRecord(flow_id=flow_id,
                            source=self.sources[source].address)
        self.sim.call_in(at, send_flow, self.sim, self.sources[source],
                         self.sinks[sink].address, PORT, record,
                         fluid_plan(packets, chunk_packets), self.pump)
        return record


def count_calls(monkeypatch, link):
    """Log *link*'s post_fluid calls; returns the list they are logged to.

    Links are slotted, so the spy wraps the class's method and keeps the
    calls made on *link*; spies on several links chain.
    """
    calls = []
    post_fluid = Link.post_fluid

    def spy(self, size, flow_id, duration):
        delivered = post_fluid(self, size, flow_id, duration)
        if self is link:
            calls.append((link.sim.now, size, flow_id, delivered))
        return delivered

    monkeypatch.setattr(Link, "post_fluid", spy)
    return calls


# --------------------------------------------------------------------- #
# The pro-rata split
# --------------------------------------------------------------------- #

def test_split_pro_rata_is_exact_and_largest_remainder():
    # Exact shares 33.33 / 33.33 / 33.33: the spare byte goes to the
    # earliest flow on a tie.
    assert _split_pro_rata([50, 50, 50], 100, 150) == [34, 33, 33]
    # Exact shares 0.6 / 1.2 / 4.2: the byte left over after the floors
    # (0, 1, 4) goes to the largest remainder, 0.6.
    assert _split_pro_rata([1, 2, 7], 6, 10) == [1, 1, 4]
    assert _split_pro_rata([10, 0, 30], 0, 40) == [0, 0, 0]


def test_split_pro_rata_properties_hold_on_random_inputs():
    rng = random.Random(2024)
    for _ in range(300):
        offers = [rng.choice((0, rng.randrange(1, 10**rng.randrange(1, 9))))
                  for _ in range(rng.randrange(1, 12))]
        total = sum(offers)
        if not total:
            continue
        granted = rng.randrange(total)
        shares = _split_pro_rata(offers, granted, total)
        assert sum(shares) == granted
        assert all(0 <= share <= offer
                   for share, offer in zip(shares, offers, strict=True))
        # Within one byte of the exact share, so equal offers differ by <= 1.
        assert all(abs(share * total - offer * granted) < total
                   for share, offer in zip(shares, offers, strict=True))


# --------------------------------------------------------------------- #
# Bookings: one per rate-less link per tick, per group on a rated path
# --------------------------------------------------------------------- #

def _shared_path_run(monkeypatch, bottleneck_bps):
    """Flows 1 and 2 share a path, flow 3 joins them at the bottleneck.

    Returns the bottleneck's and the shared last hop's ``post_fluid``
    calls after checking what every rate lets through in full: each
    flow's budget, account, chunks and finish.
    """
    sim = Simulator()
    net = Dumbbell(sim, bottleneck_bps=bottleneck_bps)
    calls = count_calls(monkeypatch, net.bottleneck)
    last_hop_calls = count_calls(monkeypatch, net.last_hop(0))
    first = net.start(1, source=0, sink=0, packets=101)
    second = net.start(2, source=0, sink=0, packets=61)
    other = net.start(3, source=1, sink=0, packets=41)   # another path
    sim.run()
    assert all(r.bytes_sent == r.bytes_budget and not r.failed
               for r in (first, second, other))
    flows = net.bottleneck.stats.flows
    assert flows[1].as_tuple() == (101 * WIRE, 101 * WIRE, 0)
    assert flows[2].as_tuple() == (61 * WIRE, 61 * WIRE, 0)
    assert flows[3].as_tuple() == (41 * WIRE, 41 * WIRE, 0)
    assert net.udp_sinks[0].fluid_bytes == 200 * WIRE
    assert [r.chunks_sent for r in (first, second, other)] == [3, 2, 1]
    assert [r.finished_at for r in (first, second, other)] == [0.75, 0.5, 0.25]
    return calls, last_hop_calls


def test_flows_sharing_a_path_share_one_booking_per_link(monkeypatch):
    calls, last_hop_calls = _shared_path_run(monkeypatch, None)
    # Probes leave at 0 and are answered by 0.25 = tick 1.  Flows 1 and 2
    # form one group, flow 3 another; every hop is rate-less and up, so
    # each tick books each link once with both groups' bytes: (40+40) +
    # 40 packets at tick 1, (40+20) at tick 2, flow 1's last 20 at tick 3.
    # Every booking is anonymous: the per-flow accounts are the pump's to
    # write.
    assert calls == [(0.25, 120 * WIRE, None, 120 * WIRE),
                     (0.5, 60 * WIRE, None, 60 * WIRE),
                     (0.75, 20 * WIRE, None, 20 * WIRE)]
    assert last_hop_calls == calls


def test_flows_on_a_rated_path_book_per_group_in_arrival_order(monkeypatch):
    # A rated bottleneck with room for every chunk: the grant is in full,
    # but where one could be short the order decides who gets it, so each
    # group books its hops itself, in the order the groups formed.  The
    # rate-less last hop they share is booked per group too.
    calls, last_hop_calls = _shared_path_run(monkeypatch, 100e6)
    assert calls == [(0.25, 80 * WIRE, None, 80 * WIRE),
                     (0.25, 40 * WIRE, None, 40 * WIRE),
                     (0.5, 60 * WIRE, None, 60 * WIRE),
                     (0.75, 20 * WIRE, None, 20 * WIRE)]
    assert last_hop_calls == calls


def test_a_short_grant_goes_to_the_group_that_formed_last(monkeypatch):
    sim = Simulator()
    # A 40-packet chunk takes 0.19 s of the bottleneck's transmitter, and
    # its 1 s window holds five of them and the two probes: at 0.75 the
    # group that formed first still gets its chunk in full, the other
    # what is left of the window.
    net = Dumbbell(sim, bottleneck_bps=40 * WIRE * 8 / 0.19)
    calls = count_calls(monkeypatch, net.bottleneck)
    net.start(1, source=0, sink=0, packets=121)
    net.start(2, source=1, sink=0, packets=121)
    sim.run(until=0.8)
    assert [(when, size, granted == size)
            for when, size, _id, granted in calls] \
        == [(0.25, 40 * WIRE, True), (0.25, 40 * WIRE, True),
            (0.5, 40 * WIRE, True), (0.5, 40 * WIRE, True),
            (0.75, 40 * WIRE, True), (0.75, 40 * WIRE, False)]


def test_pump_without_one_is_private_to_the_flow(monkeypatch):
    """``send_flow`` with no pump still works: each flow brings its own."""
    sim = Simulator()
    net = Dumbbell(sim)
    calls = count_calls(monkeypatch, net.bottleneck)
    records = []
    for flow_id in (1, 2):
        record = FlowRecord(flow_id=flow_id, source=net.sources[0].address)
        send_flow(sim, net.sources[0], net.sinks[0].address, PORT, record,
                  fluid_plan(41))
        records.append(record)
    sim.run()   # no until: the foreground ticks drain with everything else
    assert [size for _when, size, _id, _ok in calls] == [40 * WIRE] * 2
    assert all(r.bytes_sent == r.bytes_budget for r in records)
    assert sim.serializable


def test_saturated_link_splits_the_grant_pro_rata():
    sim = Simulator()
    # 1 000 040 bit/s grants 31 251 bytes per 0.25 s tick; two equal flows
    # offer 2 x 40 x 1028 = 82 240, so each tick leaves one odd byte.
    net = Dumbbell(sim, bottleneck_bps=1_000_040.0)
    a = net.start(1, source=0, sink=0, packets=201)
    b = net.start(2, source=0, sink=0, packets=201)
    ticks = 0
    while not sim.serializable:
        sim.run(until=sim.now + INTERVAL)
        ticks += 1
        # An idle link has no accounts: read them once traffic started.
        account_a = net.bottleneck.stats.flows[1]
        account_b = net.bottleneck.stats.flows[2]
        assert account_a.offered == account_b.offered
        assert 0 <= account_a.delivered - account_b.delivered <= ticks
    # The odd byte went to the earlier flow every saturated tick.
    assert account_a.delivered - account_b.delivered == 5
    assert account_a.delivered + account_b.delivered \
        == 2 * WIRE + 5 * 31_251
    assert a.bytes_sent == b.bytes_sent == 201 * PAYLOAD
    assert net.bottleneck.stats.conservation_violations(drained=True) == []


def test_pump_never_posts_an_empty_chunk_past_a_dead_hop(monkeypatch):
    sim = Simulator()
    net = Dumbbell(sim)
    record = net.start(1, source=0, sink=0, packets=201)
    last_hop_calls = count_calls(monkeypatch, net.last_hop(0))
    sim.call_in(0.3, setattr, net.bottleneck, "up", False)
    sim.run()
    # Tick 1 (0.25) crossed; tick 2 (0.5) died on the bottleneck and
    # offered the last hop nothing; the flow left to re-probe, found no
    # path in FLUID_PROBE_RETRIES attempts and gave up.
    assert [when for when, *_rest in last_hop_calls] == [0.25]
    assert all(size > 0 for _when, size, *_rest in last_hop_calls)
    assert record.failed
    assert record.chunks_sent == 2
    assert record.packets_sent == 3


def test_answered_reprobe_costs_the_flow_no_extra_interval(monkeypatch):
    """A flow that re-probes from inside a tick makes the next tick.

    Its chunk dies at tick k, its probe leaves in the same instant and is
    answered within the interval: the wait ends at tick k+1's own instant,
    *ahead* of the tick, so the flow posts again exactly one interval
    after the chunk it lost — group mates never stopped.
    """
    sim = Simulator()
    net = Dumbbell(sim)
    access = net.sources[0].interfaces["eth0"].link
    calls = count_calls(monkeypatch, access)
    mate_calls = count_calls(monkeypatch, net.sources[1].interfaces["eth0"].link)
    flow = net.start(1, source=0, sink=0, packets=161)
    mate = net.start(2, source=1, sink=0, packets=241)   # keeps the lane armed
    # Down across tick 2 only: the chunk at 0.5 dies on the first hop,
    # the probe sent at 0.5 is lost too, the one sent at 0.75 gets through.
    sim.call_in(0.4, setattr, access, "up", False)
    sim.call_in(0.6, setattr, access, "up", True)
    sim.run()
    assert [(when, delivered > 0) for when, _size, _id, delivered in calls] \
        == [(0.25, True), (0.5, False), (1.0, True), (1.25, True)]
    assert [when for when, *_rest in mate_calls] \
        == [0.25, 0.5, 0.75, 1.0, 1.25, 1.5]
    assert flow.packets_sent == 3 and not flow.failed
    # 161 packets: 3 probes, 40 + 40 (dead) + 40 + 38 in chunks.
    assert flow.bytes_sent == flow.bytes_budget
    assert (flow.finished_at, mate.finished_at) == (1.25, 1.5)


# --------------------------------------------------------------------- #
# Life cycle: armed only while flows are active, checkpointed idle
# --------------------------------------------------------------------- #

def test_pump_arms_on_first_join_and_disarms_when_empty():
    sim = Simulator()
    net = Dumbbell(sim)
    net.start(1, source=0, sink=0, packets=81)
    assert net.pump.snapshot_state() == {"_lanes": {}}
    sim.run(until=0.3)
    assert list(net.pump._lanes) == [INTERVAL]
    # The armed tick is a queued event: the engine refuses a capture.
    with pytest.raises(RuntimeError, match="queued events"):
        sim.snapshot_state()
    sim.run()
    assert net.pump._lanes == {}
    assert net.pump.snapshot_state() == {"_lanes": {}}
    assert sim.serializable
    events = sim.processed_events
    sim.run(until=5.0)                  # nothing left ticking
    assert sim.processed_events == events


def test_pump_runs_one_lane_per_chunk_interval(monkeypatch):
    sim = Simulator()
    net = Dumbbell(sim)
    calls = count_calls(monkeypatch, net.bottleneck)
    slow = FlowRecord(flow_id=1, source=net.sources[0].address)
    fast = FlowRecord(flow_id=2, source=net.sources[0].address)
    for record, interval in ((slow, 0.5), (fast, 0.125)):
        plan = FlowPlan(packets=81, payload_bytes=PAYLOAD, spacing=0.004,
                        kind="fluid", chunk_interval=interval,
                        chunk_packets=40)
        send_flow(sim, net.sources[0], net.sinks[0].address, PORT, record,
                  plan, net.pump)
    sim.run()
    assert [when for when, *_rest in calls] == [0.125, 0.25, 0.5, 1.0]
    assert (fast.finished_at, slow.finished_at) == (0.25, 1.0)


# --------------------------------------------------------------------- #
# Seeded property test
# --------------------------------------------------------------------- #

def _check_ledgers(net, records):
    for link in net.links():
        stats = link.stats
        # Every byte here belongs to a flow (probes and chunks both carry
        # an id), so the per-flow accounts must add up to the link totals
        # the grouped bookings wrote.
        accounts = list(stats.flows.values())
        assert sum(a.offered for a in accounts) == stats.bytes_offered
        assert sum(a.delivered for a in accounts) == stats.bytes_delivered
        assert sum(a.dropped for a in accounts) == stats.bytes_dropped
        assert stats.fluid_bytes <= stats.bytes_delivered
        assert stats.conservation_violations() == []
    for index, sink in enumerate(net.udp_sinks):
        last_hop = net.last_hop(index).stats
        assert sink.fluid_bytes == last_hop.fluid_bytes
        # What the last hop delivered per flow is the sink's packets plus
        # its fluid bytes, flow by flow and so in sum.
        assert sum(account.delivered for account in last_hop.flows.values()) \
            == sum(sink.by_flow.values()) * WIRE + sink.fluid_bytes
        for flow_id, account in last_hop.flows.items():
            assert account.delivered >= sink.by_flow.get(flow_id, 0) * WIRE
    for record in records:
        assert record.bytes_sent <= record.bytes_budget
        assert record.bytes_sent % PAYLOAD == 0


def _check_unsettled(net, records):
    """What holds between settles: totals exact, per-flow lag exactly the pump's.

    Every link's per-flow accounts trail its totals by the unsettled
    packets of the active flows that cross it (``lag x`` the hop's size,
    offered and delivered alike, never dropped), and each sink's per-flow
    fluid bytes trail its total by ``lag x`` the last hop's size.
    """
    lag = {}
    sink_lag = {}
    for lane in net.pump._lanes.values():
        for group in lane.values():
            for flow in group.flows:
                packets = group.lag(flow)
                for link, size in group.hops:
                    lag[link] = lag.get(link, 0) + packets * size
                sink_lag[group.sink] = (sink_lag.get(group.sink, 0)
                                        + packets * group.last_size)
    for link in net.links():
        stats = link.stats
        accounts = list(stats.flows.values())
        assert sum(a.offered for a in accounts) + lag.get(link, 0) \
            == stats.bytes_offered
        assert sum(a.delivered for a in accounts) + lag.get(link, 0) \
            == stats.bytes_delivered
        assert sum(a.dropped for a in accounts) == stats.bytes_dropped
        assert stats.conservation_violations() == []
    for index, sink in enumerate(net.udp_sinks):
        last_hop = net.last_hop(index).stats
        assert sink.fluid_bytes == last_hop.fluid_bytes
        assert sum(account.delivered for account in last_hop.flows.values()) \
            + sink_lag.get(sink, 0) \
            == sum(sink.by_flow.values()) * WIRE + sink.fluid_bytes
    for record in records:
        assert record.bytes_sent <= record.bytes_budget
        assert record.bytes_sent % PAYLOAD == 0


def _random_run(seed, pump=FluidPump):
    """A seeded random flow set on a dumbbell with links failing: the net,
    the flow records, and the two identical records of the fairness pair."""
    rng = random.Random(seed)
    sim = Simulator(seed=seed)
    net = Dumbbell(sim, sources=3, sinks=2,
                   bottleneck_bps=rng.choice((None, 2_000_000.0, 8_000_000.0)),
                   pump=pump)
    records = [net.start(flow_id, source=rng.randrange(3),
                         sink=rng.randrange(2),
                         packets=rng.randrange(2, 400),
                         at=rng.choice((0.0, rng.uniform(0.0, 2.0))),
                         chunk_packets=rng.choice((10, 40, 100)))
               for flow_id in range(1, rng.randrange(4, 16))]
    # Two identical flows, started together: the fairness pair.
    twins = [net.start(flow_id, source=0, sink=1, packets=300, at=0.5)
             for flow_id in (101, 102)]
    victims = [net.bottleneck, net.last_hop(0),
               net.sources[1].interfaces["eth0"].link]
    for _ in range(rng.randrange(0, 4)):
        link = rng.choice(victims)
        down = rng.uniform(0.2, 3.0)
        sim.call_in(down, setattr, link, "up", False)
        sim.call_in(down + rng.uniform(0.1, 1.0), setattr, link, "up", True)
    return net, records, twins


def _per_flow_ledgers(net):
    """Every link's per-flow accounts in key order."""
    return [[(flow_id, account.as_tuple())
             for flow_id, account in link.stats.flows.items()]
            for link in net.links()]


@pytest.mark.parametrize("seed", range(8))
def test_random_flow_sets_keep_every_ledger_exact_after_every_tick(seed):
    net, records, twins = _random_run(seed)
    sim = net.sim
    ticks = 0
    while not sim.serializable:
        ticks += 1
        assert ticks < 400, "flows never drained"
        # Just past each grid point: the tick there has run.
        sim.run(until=ticks * INTERVAL + 1e-6)
        _check_unsettled(net, records + twins)
        net.pump.settle()
        _check_ledgers(net, records + twins)
        # Read without creating: key order is part of what the late twin
        # run below must reproduce.
        pair = [net.bottleneck.stats.flows.get(r.flow_id, FlowAccount())
                for r in twins]
        assert abs(pair[0].delivered - pair[1].delivered) <= ticks
        assert abs(pair[0].dropped - pair[1].dropped) <= ticks

    assert net.pump.snapshot_state() == {"_lanes": {}}
    for record in records + twins:
        assert record.finished_at is not None
        assert record.failed == (record.bytes_sent < record.bytes_budget)
    for link in net.links():
        assert link.stats.conservation_violations(drained=True) == []

    # The same seed settled only by flows leaving the pump: writing late
    # lands every byte where writing every tick did.
    late, late_records, late_twins = _random_run(seed)
    late.sim.run()
    assert late.pump._lanes == {}
    assert _per_flow_ledgers(late) == _per_flow_ledgers(net)
    assert late_records + late_twins == records + twins


def _exact_every_tick(net):
    """Everything a tick leaves exact: per link its totals and windows (in
    key order), per sink its totals and packet counts."""
    links = [(stats.bytes_offered, stats.bytes_delivered, stats.bytes_dropped,
              stats.fluid_bytes, [(index, list(window)) for index, window
                                  in stats.windows.items()])
             for stats in (link.stats for link in net.links())]
    sinks = [(sink.received, sink.bytes, sink.fluid_bytes, dict(sink.by_flow))
             for sink in net.udp_sinks]
    return links, sinks


@pytest.mark.parametrize("settle", [True, False], ids=["settled", "lazy"])
@pytest.mark.parametrize("seed", range(8))
def test_random_flow_sets_match_the_reference_pump_after_every_tick(seed,
                                                                    settle):
    """Tick by tick, the pump leaves what the per-group, per-flow pump does.

    Before any settle: link totals, windows and sink totals.  After one
    (every tick, or only once drained): every per-flow account in key
    order and every flow record.  The lazy run leaves flows unwritten for
    their whole stay, so a tick counted wrong shows in the totals.
    """
    net, records, twins = _random_run(seed)
    ref, ref_records, ref_twins = _random_run(seed, ReferencePump)
    ticks = 0
    while not (net.sim.serializable and ref.sim.serializable):
        ticks += 1
        assert ticks < 400, "flows never drained"
        net.sim.run(until=ticks * INTERVAL + 1e-6)
        ref.sim.run(until=ticks * INTERVAL + 1e-6)
        assert _exact_every_tick(net) == _exact_every_tick(ref), ticks
        if settle:
            net.pump.settle()
            ref.pump.settle()
            assert _per_flow_ledgers(net) == _per_flow_ledgers(ref), ticks
            assert records + twins == ref_records + ref_twins, ticks
    assert net.pump._lanes == {}
    assert _per_flow_ledgers(net) == _per_flow_ledgers(ref)
    assert records + twins == ref_records + ref_twins
    assert net.sim.processed_events == ref.sim.processed_events
