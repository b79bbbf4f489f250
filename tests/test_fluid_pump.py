"""The fluid pump: grouped bookings, pro-rata loss, exact ledgers per tick.

``FluidPump`` advances every fluid flow of a world in one engine event per
chunk interval, booking each link once per path group and splitting what
the link grants between the group's flows.  The unit tests pin the
grouping, the split and the pump's life cycle; the seeded property test
drives random flow sets over a shared rated bottleneck with links going
down and up, and checks after every tick that the grouped bookings and the
per-flow accounts still tell one story.
"""

import random

import pytest

from repro.net.addresses import IPv4Prefix
from repro.net.fib import FibEntry
from repro.net.host import Host
from repro.net.link import connect
from repro.net.router import Router
from repro.sim import Simulator
from repro.traffic.flows import (FlowRecord, FluidPump, UdpSink,
                                 _split_pro_rata, send_flow)
from repro.traffic.popularity import FlowPlan

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

    Access links are infinite-rate; the bottleneck's rate is the test's.
    """

    def __init__(self, sim, sources=3, sinks=2, bottleneck_bps=None):
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
        self.pump = FluidPump(sim)

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


def count_calls(link):
    """Wrap *link*.post_fluid; returns the list its calls are logged to."""
    calls = []
    post_fluid = link.post_fluid

    def spy(size, flow_id, duration):
        delivered = post_fluid(size, flow_id, duration)
        calls.append((link.sim.now, size, flow_id, delivered))
        return delivered

    link.post_fluid = spy
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
# One booking per link per path group
# --------------------------------------------------------------------- #

def test_flows_sharing_a_path_share_one_booking_per_link():
    sim = Simulator()
    net = Dumbbell(sim)
    calls = count_calls(net.bottleneck)
    first = net.start(1, source=0, sink=0, packets=101)
    second = net.start(2, source=0, sink=0, packets=61)
    other = net.start(3, source=1, sink=0, packets=41)   # another path
    sim.run()
    assert all(r.bytes_sent == r.bytes_budget and not r.failed
               for r in (first, second, other))
    # Probes leave at 0 and are answered by 0.25 = tick 1.  Flows 1 and 2
    # form one group: (40+40) and (40+20) packets in one booking each at
    # ticks 1 and 2, flow 1's last 20 alone at tick 3; flow 3 posts its 40
    # packets once.  Every booking is anonymous: the per-flow accounts are
    # the pump's to write.
    assert calls == [(0.25, 80 * WIRE, None, 80 * WIRE),
                     (0.25, 40 * WIRE, None, 40 * WIRE),
                     (0.5, 60 * WIRE, None, 60 * WIRE),
                     (0.75, 20 * WIRE, None, 20 * WIRE)]
    flows = net.bottleneck.stats.flows
    assert flows[1].as_tuple() == (101 * WIRE, 101 * WIRE, 0)
    assert flows[2].as_tuple() == (61 * WIRE, 61 * WIRE, 0)
    assert flows[3].as_tuple() == (41 * WIRE, 41 * WIRE, 0)
    assert net.udp_sinks[0].fluid_by_flow == {1: 100 * WIRE, 2: 60 * WIRE,
                                              3: 40 * WIRE}
    assert [r.chunks_sent for r in (first, second, other)] == [3, 2, 1]
    assert [r.finished_at for r in (first, second, other)] == [0.75, 0.5, 0.25]


def test_pump_without_one_is_private_to_the_flow():
    """``send_flow`` with no pump still works: each flow brings its own."""
    sim = Simulator()
    net = Dumbbell(sim)
    calls = count_calls(net.bottleneck)
    records = []
    for flow_id in (1, 2):
        record = FlowRecord(flow_id=flow_id, source=net.sources[0].address)
        send_flow(sim, net.sources[0], net.sinks[0].address, PORT, record,
                  fluid_plan(41))
        records.append(record)
    sim.run()   # no until: the foreground ticks drain with everything else
    assert [size for _when, size, _id, _ok in calls] == [40 * WIRE] * 2
    assert all(r.bytes_sent == r.bytes_budget for r in records)
    assert sim.pending_foreground == 0


def test_saturated_link_splits_the_grant_pro_rata():
    sim = Simulator()
    # 1 000 040 bit/s grants 31 251 bytes per 0.25 s tick; two equal flows
    # offer 2 x 40 x 1028 = 82 240, so each tick leaves one odd byte.
    net = Dumbbell(sim, bottleneck_bps=1_000_040.0)
    a = net.start(1, source=0, sink=0, packets=201)
    b = net.start(2, source=0, sink=0, packets=201)
    account_a = net.bottleneck.stats.flows[1]
    account_b = net.bottleneck.stats.flows[2]
    ticks = 0
    while sim.pending_foreground:
        sim.run(until=sim.now + INTERVAL)
        ticks += 1
        assert account_a.offered == account_b.offered
        assert 0 <= account_a.delivered - account_b.delivered <= ticks
    # The odd byte went to the earlier flow every saturated tick.
    assert account_a.delivered - account_b.delivered == 5
    assert account_a.delivered + account_b.delivered \
        == 2 * WIRE + 5 * 31_251
    assert a.bytes_sent == b.bytes_sent == 201 * PAYLOAD
    assert net.bottleneck.stats.conservation_violations(drained=True) == []


def test_pump_never_posts_an_empty_chunk_past_a_dead_hop():
    sim = Simulator()
    net = Dumbbell(sim)
    record = net.start(1, source=0, sink=0, packets=201)
    last_hop_calls = count_calls(net.last_hop(0))
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


def test_answered_reprobe_costs_the_flow_no_extra_interval():
    """A flow that re-probes from inside a tick makes the next tick.

    Its chunk dies at tick k, its probe leaves in the same instant and is
    answered within the interval: the wait ends at tick k+1's own instant,
    *ahead* of the tick, so the flow posts again exactly one interval
    after the chunk it lost — group mates never stopped.
    """
    sim = Simulator()
    net = Dumbbell(sim)
    access = net.sources[0].interfaces["eth0"].link
    calls = count_calls(access)
    mate_calls = count_calls(net.sources[1].interfaces["eth0"].link)
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
    assert net.pump.snapshot_state() == ()
    sim.run(until=0.3)
    assert list(net.pump._lanes) == [INTERVAL]
    with pytest.raises(RuntimeError, match="active flows"):
        net.pump.snapshot_state()
    sim.run()
    assert net.pump._lanes == {}
    assert net.pump.snapshot_state() == ()
    assert sim.pending_foreground == 0
    events = sim.processed_events
    sim.run(until=5.0)                  # nothing left ticking
    assert sim.processed_events == events


def test_pump_runs_one_lane_per_chunk_interval():
    sim = Simulator()
    net = Dumbbell(sim)
    calls = count_calls(net.bottleneck)
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
        for flow_id, account in last_hop.flows.items():
            assert account.delivered == (sink.by_flow[flow_id] * WIRE
                                         + sink.fluid_by_flow[flow_id])
    for record in records:
        assert record.bytes_sent <= record.bytes_budget
        assert record.bytes_sent % PAYLOAD == 0


@pytest.mark.parametrize("seed", range(8))
def test_random_flow_sets_keep_every_ledger_exact_after_every_tick(seed):
    rng = random.Random(seed)
    sim = Simulator(seed=seed)
    net = Dumbbell(sim, sources=3, sinks=2,
                   bottleneck_bps=rng.choice((None, 2_000_000.0, 8_000_000.0)))
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

    twin_accounts = [net.bottleneck.stats.flows[r.flow_id] for r in twins]
    ticks = 0
    while sim.pending_foreground:
        ticks += 1
        assert ticks < 400, "flows never drained"
        # Just past each grid point: the tick there has run.
        sim.run(until=ticks * INTERVAL + 1e-6)
        _check_ledgers(net, records + twins)
        assert abs(twin_accounts[0].delivered
                   - twin_accounts[1].delivered) <= ticks
        assert abs(twin_accounts[0].dropped - twin_accounts[1].dropped) <= ticks

    assert net.pump.snapshot_state() == ()
    for record in records + twins:
        assert record.finished_at is not None
        assert record.failed == (record.bytes_sent < record.bytes_budget)
    for link in net.links():
        assert link.stats.conservation_violations(drained=True) == []
