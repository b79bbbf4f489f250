"""The callback workload driver against the generator-per-flow one.

``reference_driver`` keeps the driver that ran every flow as a process
created at t=0 (and the stub, resolver and sender processes under it).
Each test here builds the same world twice, runs one workload through
``run_workload`` and one through the reference, and demands that nothing a
simulation can observe differs: flow records, every link's ledgers, every
sink, the resolvers' caches and counters.  Only the engine's event count may.

Mutants of the new driver that were checked by hand to fail this file:
arrival gaps drawn lazily from the workload stream itself (sites and sizes
shift), ``call_in(when - now)`` instead of ``call_at(when)`` for arrivals
(``started_at`` an ulp off), a second ``answer_cache.get`` per query
(hit/miss counters), and fluid probe retries off by one (``packets_sent``
of the flows that give up).
"""

import itertools

import pytest
from reference_driver import reference_run_workload

from repro.experiments import ScenarioConfig, WorkloadConfig, build_scenario, run_workload
from repro.experiments.scenario import CONTROL_PLANES

PACINGS = ("constant", "shaped", "fluid")
TRANSPORTS = ("udp", "tcp", "tcp+burst")
CELLS = list(itertools.product(CONTROL_PLANES, PACINGS, TRANSPORTS))


def observable_state(scenario, records):
    """Everything the two drivers must agree on, as plain comparable data."""
    resolvers = {}
    for index, resolver in scenario.dns.resolvers.items():
        state = resolver.snapshot_state()
        del state["listeners"]      # bound methods of this world's PCEs
        resolvers[index] = state
    return {
        "now": scenario.sim.now,
        "records": [repr(record) for record in records],
        "links": {link.name: link.stats.snapshot_state()
                  for link in scenario.links},
        "sinks": {key: sink.snapshot_state()
                  for key, sink in scenario.udp_sinks.items()},
        "resolvers": resolvers,
        "stubs": {name: stub.lookups for name, stub in scenario.stubs.items()},
        "next_flow_id": scenario.flow_ids.snapshot_state(),
    }


def run_both(config, workload, prepare=None):
    """``(new, reference)`` observable states of *workload* on *config*."""
    states = []
    for driver in (run_workload, reference_run_workload):
        scenario = build_scenario(config)
        if prepare is not None:
            prepare(scenario)
        records = driver(scenario, workload)
        states.append((observable_state(scenario, records), records))
    return states


def assert_equal_states(new, reference):
    """Name the first thing that differs (pytest's own diff of a few hundred
    kilobytes of reprs takes minutes)."""
    for key, expected in reference.items():
        got = new[key]
        if got == expected:
            continue
        if isinstance(expected, list):
            pairs = enumerate(zip(got, expected, strict=False))
        elif isinstance(expected, dict):
            pairs = ((name, (got.get(name), expected[name])) for name in expected)
        else:
            pairs = [("value", (got, expected))]
        where, (ours, theirs) = next(
            ((name, pair) for name, pair in pairs if pair[0] != pair[1]),
            ("len", (len(got), len(expected))))
        pytest.fail(f"{key}[{where}] differs:\n new       {ours!r:.600}\n"
                    f" reference {theirs!r:.600}", pytrace=False)


def cell_workload(pacing, transport, **overrides):
    fields = dict(
        num_flows=24, arrival_rate=12.0, packets_per_flow=6,
        payload_bytes=1000, grace_period=15.0,
        mode="udp" if transport == "udp" else "tcp",
        tcp_data_burst=transport == "tcp+burst",
        pacing=pacing, size_dist="constant" if pacing == "constant" else "pareto",
        pace_rate_bps=400_000.0, fluid_threshold=3.0,
        fluid_chunk_interval=0.25)
    fields.update(overrides)
    return WorkloadConfig(**fields)


@pytest.mark.parametrize("plane,pacing,transport", CELLS)
def test_drivers_agree(plane, pacing, transport):
    index = CELLS.index((plane, pacing, transport))
    # Seeds no golden uses; one-second DNS TTLs so that answer-cache hits,
    # expiries and coalesced walks all occur within a cell.
    config = ScenarioConfig(control_plane=plane, num_sites=4, seed=9001 + index,
                            dns_host_ttl=1.0, tracing=False)
    (new, records), (reference, _) = run_both(config,
                                              cell_workload(pacing, transport))
    assert_equal_states(new, reference)
    assert len(records) == 24
    if transport != "tcp":
        assert any(record.bytes_sent for record in records)
    if pacing == "fluid" and transport != "tcp":
        assert any(record.flow_kind == "fluid" for record in records)


def test_drivers_agree_over_many_arrivals():
    """Two thousand arrival instants: ``origin + offset`` exactly, each one."""
    config = ScenarioConfig(control_plane="plain", num_sites=3, seed=9101,
                            tracing=False)
    workload = WorkloadConfig(num_flows=2000, arrival_rate=400.0,
                              packets_per_flow=1)
    (new, _), (reference, _) = run_both(config, workload)
    assert_equal_states(new, reference)


def test_drivers_agree_through_a_link_down_window():
    """Fluid flows re-probe across an outage; those caught early give up."""
    def outage(scenario):
        sim = scenario.sim
        links = [direction for pair in scenario.topology.sites[1].access_links
                 for direction in pair.values()]

        def set_up(up):
            for link in links:
                link.up = up
        sim.call_at(sim.now + 1.0, set_up, False)
        sim.call_at(sim.now + 1.6, set_up, True)

    config = ScenarioConfig(control_plane="pce", num_sites=3, seed=9201,
                            tracing=False)
    workload = cell_workload("fluid", "udp", num_flows=40, arrival_rate=25.0,
                             packets_per_flow=60, size_dist="constant",
                             dest_site=1)
    (new, records), (reference, _) = run_both(config, workload, outage)
    assert_equal_states(new, reference)
    gave_up = [r for r in records if r.failed and r.destination is not None]
    reprobed = [r for r in records if not r.failed and r.packets_sent > 1]
    assert gave_up and reprobed
    assert all(r.bytes_sent < r.bytes_budget for r in gave_up)
    assert all(r.bytes_sent == r.bytes_budget for r in reprobed)


def test_drivers_agree_when_the_resolver_is_unreachable():
    """A stub that times out: ``RequestTimeout`` ends the flow, failed."""
    def cut_resolver(scenario):
        for iface in scenario.topology.sites[0].dns_node.interfaces.values():
            if iface.link is not None:
                iface.link.up = False

    config = ScenarioConfig(control_plane="pce", num_sites=3, seed=9301,
                            tracing=False)
    workload = cell_workload("constant", "udp", num_flows=20, arrival_rate=20.0,
                             grace_period=12.0)
    (new, records), (reference, _) = run_both(config, workload, cut_resolver)
    assert_equal_states(new, reference)
    timed_out = [r for r in records if r.dns_elapsed == 10.0]
    assert timed_out, "some flow must start at the cut-off site"
    for record in timed_out:
        assert record.failed and record.destination is None
        assert record.packets_sent == 0
    assert any(not r.failed for r in records)
