"""What a workload costs before and between its flows, not what it computes.

The driver's promise is that a flow exists from the instant it is due:
nothing per flow is queued at t=0, nothing of the driver outlives the run,
and a cached DNS answer is one engine event at the resolver.
"""

import gc
import weakref

from conftest import cache_reads, sent_by

from repro.dns.resolver import StubResolver
from repro.experiments import ScenarioConfig, WorkloadConfig, build_scenario, run_workload
from repro.traffic.flows import FlowIdAllocator


class _CountingAllocator(FlowIdAllocator):
    """Flow ids as usual, noting the engine's backlog at every arrival."""

    __slots__ = ("sim", "pending")

    def __init__(self, sim):
        FlowIdAllocator.__init__(self)
        self.sim = sim
        self.pending = []

    def allocate(self):
        self.pending.append(len(self.sim._queue))
        return FlowIdAllocator.allocate(self)


def pending_at_first_arrival(num_flows):
    scenario = build_scenario(ScenarioConfig(control_plane="plain", num_sites=3,
                                             seed=9401, tracing=False))
    scenario.flow_ids = _CountingAllocator(scenario.sim)
    records = run_workload(scenario, WorkloadConfig(
        num_flows=num_flows, arrival_rate=500.0, packets_per_flow=1))
    assert len(records) == num_flows
    return scenario.flow_ids.pending[0]


def test_backlog_at_the_first_arrival_does_not_grow_with_the_workload():
    assert pending_at_first_arrival(50) == pending_at_first_arrival(5000)


def test_a_dropped_world_dies_without_the_collector():
    """No cycle through the scenario: the driver is owned by its events."""
    assert gc.isenabled()
    gc.disable()
    try:
        scenario = build_scenario(ScenarioConfig(control_plane="pce", num_sites=3,
                                                 seed=9402, tracing=False))
        records = run_workload(scenario, WorkloadConfig(num_flows=20))
        assert len(records) == 20 and not any(r.failed for r in records)
        alive = weakref.ref(scenario)
        del scenario, records
        assert alive() is None
    finally:
        gc.enable()
        gc.collect()    # the world's own cycles (nodes, interfaces, links)


def test_cached_answer_is_one_event_and_a_miss_walk_still_coalesces(
        dns_queries):
    scenario = build_scenario(ScenarioConfig(control_plane="plain", num_sites=3,
                                             seed=9403, tracing=False))
    sim = scenario.sim
    site = scenario.topology.sites[0]
    resolver = scenario.dns.resolvers[site.index]
    qname = scenario.host_name(scenario.topology.sites[1], 0)
    marks = []
    resolver.query_listeners.append(
        lambda **_query: marks.append(sim.processed_events))
    send_reply = resolver._send_reply

    def noting_send_reply(packet, reply):
        marks.append(sim.processed_events)
        send_reply(packet, reply)
    resolver._send_reply = noting_send_reply

    # Cold: two hosts ask at once; one walk, the other rides it.
    reads = cache_reads(resolver.answer_cache)
    stubs = [StubResolver(sim, host, site.dns_address) for host in site.hosts]
    cold = [stub.lookup(qname) for stub in stubs]
    sim.run()
    assert all(lookup.value[0] is not None for lookup in cold)
    # One query missed the cache and walked; the other rode the walk.
    assert reads == [None]
    assert sent_by(dns_queries, resolver.node) == 3  # root, TLD, authoritative

    # Warm: from the query's arrival to the reply's departure, one event.
    del marks[:]
    warm = stubs[0].lookup(qname)
    sim.run()
    assert warm.value[0] == cold[0].value[0]
    arrived, replied = marks
    assert replied - arrived == 1
    assert len(reads) == 2 and reads[1] is not None    # the warm read hit
    assert sent_by(dns_queries, resolver.node) == 3
