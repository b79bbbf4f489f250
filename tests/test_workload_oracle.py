"""The callback code against the generator processes it replaced.

``reference_driver`` keeps the driver that ran every flow as a process
created at t=0 (and the stub, resolver and sender processes under it), and
the pull path as it was before the process kernel left ``src/``: the xTR's
miss, ALT/CONS/NERD resolution, RLOC probe rounds, the TCP handshake and
the resolver's walk.  Each test here builds the same world twice, runs one
workload through ``run_workload`` and the callback code, and one through
the reference with the retired generators installed, and demands that
nothing a simulation can observe differs: flow records, every link's
ledgers, every sink, every node's bound UDP ports, the resolvers' caches
and counters, every xTR's counters, map-cache and in-flight table, the
control plane's stats and every prober's verdicts.  Only the engine's
event count may.

Mutants of the new driver that were checked by hand to fail this file:
arrival gaps drawn lazily from the workload stream itself (sites and sizes
shift), ``call_in(when - now)`` instead of ``call_at(when)`` for arrivals
(``started_at`` an ulp off), a second ``answer_cache.get`` per query
(hit/miss counters), fluid probe retries off by one (``packets_sent``
of the flows that give up), a Map-Request loop that leaves an expired
nonce pending or gives up one attempt early, an RTO that grows linearly,
a probe that never marks its locator alive or keeps an expired nonce, an
xTR that leaves its site prefix in flight, a resolver walk that never
closes its socket, and an E9 sender one nanosecond slow.
"""

import itertools
from dataclasses import replace

import pytest
from reference_driver import (
    install_reference_pull_path,
    reference_run_workload,
    start_e9_sender,
    start_fig1_flow,
)

from repro.experiments import ScenarioConfig, WorkloadConfig, build_scenario, run_workload
from repro.experiments import e9_failover, fig1
from repro.experiments.e9_failover import FAIL_AT, FLOW_END, REPAIR_AT
from repro.experiments.fig1 import run_fig1_walkthrough
from repro.experiments.measure import _control
from repro.experiments.scenario import CONTROL_PLANES, Scenario
from repro.experiments.worldrun import schedule_access_failure
from repro.sim.state import Part

#: An xTR's counters, and its map-cache's.
XTR_COUNTERS = ("encapsulated", "decapsulated", "no_rloc_drops",
                "resolutions_started", "resolutions_failed")
CACHE_COUNTERS = ("hits", "misses", "expirations")

PACINGS = ("constant", "shaped", "fluid")
TRANSPORTS = ("udp", "tcp", "tcp+burst")
CELLS = list(itertools.product(CONTROL_PLANES, PACINGS, TRANSPORTS))


def pull_path_state(scenario):
    """The xTRs', the control plane's and the probers' side of a run."""
    xtrs = {}
    for xtr in scenario.iter_xtrs():
        state = xtr.snapshot_state()
        cache = state["map_cache"].state
        xtrs[xtr.node.name] = (
            [state[name] for name in XTR_COUNTERS],
            [cache[name] for name in CACHE_COUNTERS],
            sorted(state["_seen_inner_sources"]),
            [(str(prefix), repr(mapping))
             for prefix, mapping in xtr.map_cache.entries()],
            sorted(str(key) for key in xtr._pending))
    system = scenario.mapping_system
    if system is not None:
        control = (system.stats.snapshot_state(),
                   len(getattr(system, "_pending", ())))
    else:
        control = _control(scenario)
    policy = scenario.miss_policy
    probers = {}
    if scenario.control_plane is not None:
        for name, prober in scenario.control_plane.probers.items():
            probers[name] = (
                sorted(prober.down), sorted(prober._consecutive_misses.items()),
                prober._nonce, sorted(prober._pending))
    return {
        "xtrs": xtrs,
        "control": control,
        "miss_policy": None if policy is None else policy.stats.snapshot_state(),
        "probers": probers,
    }


def observable_state(scenario, records):
    """Everything the two drivers must agree on, as plain comparable data."""
    resolvers = {}
    for index, resolver in scenario.dns.resolvers.items():
        state = resolver.snapshot_state()
        del state["query_listeners"]  # bound methods of this world's PCEs
        # The reference driver's walk, installed on the instance.
        state.pop("_serve_recursive", None)
        state.pop("resolve", None)
        # A cache is a part: compare what it holds, not which cache it is.
        resolvers[index] = {name: value.state if type(value) is Part else value
                            for name, value in state.items()}
    return {
        "now": scenario.sim.now,
        "records": [repr(record) for record in records],
        "links": {link.name: link.stats.snapshot_state()
                  for link in scenario.links},
        "sinks": {key: sink.snapshot_state()
                  for key, sink in scenario.udp_sinks.items()},
        "resolvers": resolvers,
        "stubs": {name: stub.lookups for name, stub in scenario.stubs.items()},
        # Sockets a wait left open, whatever its outcome.
        "udp_ports": {node.name: sorted(node._udp_ports)
                      for node in scenario.topology.all_nodes()},
        "next_flow_id": scenario.flow_ids.snapshot_state(),
        "trace": trace_of(scenario),
        **pull_path_state(scenario),
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


@pytest.mark.parametrize("pacing,transport", [
    ("constant", "udp"), ("shaped", "tcp+burst"), ("fluid", "udp")])
def test_drivers_agree_with_probing_through_a_link_down_window(pacing, transport):
    """Probe rounds while the destination's primary locator is down: the
    probers mark it down, traffic fails over, and it comes back up."""
    def outage(scenario):
        now = scenario.sim.now
        schedule_access_failure(scenario.sim, scenario.topology.sites[1], 0,
                                now + 1.0, now + 2.5)

    config = ScenarioConfig(control_plane="pce", num_sites=3, seed=9401,
                            irc_policy="primary", enable_probing=True,
                            probe_period=0.3)
    workload = cell_workload(pacing, transport, num_flows=30, arrival_rate=8.0,
                             dest_site=1, grace_period=6.0)
    (new, records), (reference, _) = run_both(config, workload, outage)
    assert_equal_states(new, reference)
    kinds = {kind for _time, _source, kind, _detail in new["trace"]}
    assert {"probe.rloc-down", "probe.rloc-up"} <= kinds
    assert any(not record.failed for record in records)


@pytest.mark.parametrize("plane", ["alt", "cons"])
def test_drivers_agree_when_map_requests_go_unanswered(plane):
    """Map-Requests into a cut-off site expire, are re-sent, and give up."""
    def outage(scenario):
        now = scenario.sim.now
        site = scenario.topology.sites[1]
        for locator in range(len(site.access_links)):
            schedule_access_failure(scenario.sim, site, locator, now + 1.5, now + 9.0)

    # Half-second map-cache entries: ITRs keep asking through the outage.
    config = ScenarioConfig(control_plane=plane, num_sites=3, seed=9501,
                            mapping_ttl=0.5, tracing=False)
    workload = cell_workload("constant", "tcp", num_flows=40, arrival_rate=10.0,
                             dest_site=1, grace_period=10.0)
    (new, _records), (reference, _) = run_both(config, workload, outage)
    assert_equal_states(new, reference)
    counters = [state[0] for state in new["xtrs"].values()]
    resolutions = sum(started for *_, started, _failed in counters)
    failures = sum(failed for *_, failed in counters)
    assert 0 < failures < resolutions
    by_type = new["control"][0]["by_type"]
    assert by_type["map-request"] > resolutions    # some were re-sent


def trace_of(scenario):
    """The run's trace without packet uids, which a process-wide counter
    hands out (the twin's packets are numbered after the first world's)."""
    return [(record.time, record.source, record.kind,
             {key: value for key, value in record.detail.items() if key != "uid"})
            for record in scenario.sim.trace.records]


def keep_worlds(monkeypatch, module):
    """The worlds *module*'s runner builds, traced (whatever the runner
    asks) and kept past the runner's teardown so the test can read them
    after it returns."""
    built = []

    def build(config):
        built.append(build_scenario(replace(config, tracing=True)))
        return built[-1]

    monkeypatch.setattr(module, "build_scenario", build)
    monkeypatch.setattr(Scenario, "teardown", lambda _scenario: None)
    return built


def test_fig1_flow_agrees_with_its_generator(monkeypatch):
    built = keep_worlds(monkeypatch, fig1)
    result = run_fig1_walkthrough()
    (scenario,) = built
    twin = build_scenario(scenario.config)
    install_reference_pull_path(twin)
    timeline = {}
    start_fig1_flow(twin, timeline)
    twin.sim.run(until=5.0)
    assert result["records"]["dns_done"] == timeline["dns_done"]
    assert trace_of(scenario) == trace_of(twin)
    kinds = {kind for _time, _source, kind, _detail in trace_of(twin)}
    assert {"pce.step7b-push", "itr.encap", "etr.decap"} <= kinds


@pytest.mark.parametrize("label,overrides", [
    ("pce+probing", {"enable_probing": True, "probe_period": 0.4}),
    ("pce-static", {"enable_probing": False})])
def test_e9_sender_agrees_with_its_generator(monkeypatch, label, overrides):
    built = keep_worlds(monkeypatch, e9_failover)
    row = e9_failover._run_variant(label, overrides, seed=29)
    (scenario,) = built
    twin = build_scenario(scenario.config)
    install_reference_pull_path(twin)
    state = {"sent": 0}
    start_e9_sender(twin, state)
    schedule_access_failure(twin.sim, twin.topology.sites[1], 0, FAIL_AT, REPAIR_AT)
    twin.sim.run(until=FLOW_END + 2.0)
    assert state["sent"] == row["packets_sent"]
    assert scenario.sink_for(1, 0).arrival_times == twin.sink_for(1, 0).arrival_times
    assert pull_path_state(scenario) == pull_path_state(twin)
    assert trace_of(scenario) == trace_of(twin)
    assert bool(pull_path_state(twin)["probers"]) == (label == "pce+probing")
