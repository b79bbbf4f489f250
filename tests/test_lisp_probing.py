"""Tests for RLOC probing, failover and recovery."""

import functools

import pytest
from process_kernel import Process

from repro.experiments.grid import expand_grid
from repro.experiments.scenario import FLOW_UDP_PORT, ScenarioConfig, build_scenario
from repro.experiments.sweep import PRESETS
from repro.experiments.workload import WorkloadConfig, run_workload
from repro.experiments.worldbuild import build_world, restore_world
from repro.experiments.worldrun import apply_failures
from repro.lisp.mappings import MappingRecord, RlocEntry
from repro.net.addresses import IPv4Address
from repro.net.packet import udp_packet
from repro.sim.state import Journal


def make_world(enable_probing=True, probe_period=0.2, seed=19,
               probe_timeout=0.15):
    config = ScenarioConfig(control_plane="pce", topology="fig1", seed=seed,
                            irc_policy="primary", enable_probing=enable_probing,
                            probe_period=probe_period,
                            probe_timeout=probe_timeout)
    return build_scenario(config)


@pytest.mark.parametrize("period, timeout", ((0.2, 0.12), (0.4, 0.3),
                                             (0.5, 0.3)))
def test_an_unset_probe_timeout_is_derived_from_the_period(period, timeout):
    """0.3 s whenever the period exceeds it, else 0.6 of the period: at
    E9's 0.4 s period that is 0.3 s, not ``min(0.3, 0.6 * 0.4)``."""
    scenario = make_world(probe_period=period, probe_timeout=None)
    probers = scenario.control_plane.probers.values()
    assert probers
    assert [prober.timeout for prober in probers] \
        == pytest.approx([timeout] * len(probers))


def start_flow(scenario):
    sim = scenario.sim
    site_s, site_d = scenario.topology.sites
    source = site_s.hosts[0]
    stub = scenario.stub_for(source, site_s)

    def flow():
        address, _ = yield stub.lookup(scenario.host_name(site_d, 0))
        source.send(udp_packet(source.address, address, 5000, FLOW_UDP_PORT))

    Process(sim, flow())
    sim.run(until=2.0)
    return site_s, site_d, source


def test_with_preferred_rloc_promotes_and_keeps_backups():
    record = MappingRecord("100.0.1.0/24",
                           (RlocEntry("10.1.1.1", 1, 50), RlocEntry("11.1.1.1", 2, 50)))
    promoted = record.with_preferred_rloc("11.1.1.1")
    assert len(promoted.rlocs) == 2
    assert promoted.best_rloc().address == IPv4Address("11.1.1.1")
    with pytest.raises(ValueError):
        record.with_preferred_rloc("12.0.0.1")


def test_best_rloc_respects_liveness_predicate():
    record = MappingRecord("100.0.1.0/24",
                           (RlocEntry("10.1.1.1", 0, 50), RlocEntry("11.1.1.1", 1, 50)))
    down = {IPv4Address("10.1.1.1")}
    best = record.best_rloc(liveness=lambda address: address not in down)
    assert best.address == IPv4Address("11.1.1.1")
    down.add(IPv4Address("11.1.1.1"))
    assert record.best_rloc(liveness=lambda address: address not in down) is None


def test_probes_flow_and_all_rlocs_stay_up():
    scenario = make_world()
    start_flow(scenario)
    scenario.sim.run(until=4.0)
    site_s = scenario.topology.sites[0]
    prober = scenario.control_plane.probers[site_s.xtrs[0].name]
    assert prober._nonce > 0                    # probes went out ...
    assert prober._consecutive_misses \
        and set(prober._consecutive_misses.values()) == {0}   # ... answered
    assert prober.down == set()


def test_pushed_mapping_includes_backups_when_probing():
    scenario = make_world(enable_probing=True)
    site_s, site_d, _source = start_flow(scenario)
    itr = scenario.control_plane.xtrs_by_site[site_s.index][0]
    mapping = itr.map_cache.peek(site_d.hosts[0].address)
    assert len(mapping.rlocs) == len(site_d.xtrs)


def test_pushed_mapping_single_rloc_without_probing():
    scenario = make_world(enable_probing=False)
    site_s, site_d, _source = start_flow(scenario)
    itr = scenario.control_plane.xtrs_by_site[site_s.index][0]
    mapping = itr.map_cache.peek(site_d.hosts[0].address)
    assert len(mapping.rlocs) == 1


def test_failure_detected_and_failover_to_backup():
    scenario = make_world(probe_period=0.2)
    sim = scenario.sim
    site_s, site_d, source = start_flow(scenario)
    # The flow went to the preferred locator (xtr0).  Kill its access link.
    links = site_d.access_links[0]
    links["uplink"].up = False
    links["downlink"].up = False
    sim.run(until=sim.now + 3.0)
    prober = scenario.control_plane.probers[site_s.xtrs[0].name]
    assert site_d.rloc_of(0) in prober.down
    # New packet now rides the backup locator and still arrives.
    sink = scenario.sink_for(site_d.index, 0)
    received_before = sink.received
    decap_before = site_d.xtrs[1].services["xtr-service"].decapsulated
    source.send(udp_packet(source.address, site_d.hosts[0].address, 5000,
                           FLOW_UDP_PORT))
    sim.run(until=sim.now + 2.0)
    assert sink.received == received_before + 1
    assert site_d.xtrs[1].services["xtr-service"].decapsulated == decap_before + 1


def test_recovery_detected_after_repair():
    scenario = make_world(probe_period=0.2)
    sim = scenario.sim
    site_s, site_d, _source = start_flow(scenario)
    links = site_d.access_links[0]
    links["uplink"].up = False
    links["downlink"].up = False
    sim.run(until=sim.now + 3.0)
    prober = scenario.control_plane.probers[site_s.xtrs[0].name]
    assert site_d.rloc_of(0) in prober.down
    links["uplink"].up = True
    links["downlink"].up = True
    sim.run(until=sim.now + 3.0)
    assert site_d.rloc_of(0) not in prober.down
    kinds = [record.kind for record in sim.trace.of_kind("probe.rloc-down",
                                                           "probe.rloc-up")
             if record.source == site_s.xtrs[0].name]
    assert kinds == ["probe.rloc-down", "probe.rloc-up"]


def test_an_untraced_world_records_nothing_through_a_locator_failure(
        monkeypatch):
    """With tracing off nothing calls the tracer: not the prober marking a
    locator down and up, not a link dropping into a failed access link."""
    config = ScenarioConfig(control_plane="pce", topology="fig1", seed=19,
                            irc_policy="primary", enable_probing=True,
                            probe_period=0.2, probe_timeout=0.15,
                            tracing=False)
    scenario = build_scenario(config)

    def record(*args, **detail):
        raise AssertionError(f"record{args} on a disabled tracer")

    monkeypatch.setattr(scenario.sim.trace, "record", record)
    sim = scenario.sim
    site_s, site_d, _source = start_flow(scenario)
    links = site_d.access_links[0]
    links["uplink"].up = False
    links["downlink"].up = False
    sim.run(until=sim.now + 3.0)
    prober = scenario.control_plane.probers[site_s.xtrs[0].name]
    assert site_d.rloc_of(0) in prober.down
    assert links["uplink"].stats.bytes_dropped > 0
    links["uplink"].up = True
    links["downlink"].up = True
    sim.run(until=sim.now + 3.0)
    assert site_d.rloc_of(0) not in prober.down


def test_prober_keeps_probing_down_rlocs():
    scenario = make_world(probe_period=0.2)
    sim = scenario.sim
    site_s, site_d, _source = start_flow(scenario)
    links = site_d.access_links[0]
    links["uplink"].up = False
    links["downlink"].up = False
    sim.run(until=sim.now + 2.0)
    prober = scenario.control_plane.probers[site_s.xtrs[0].name]
    assert site_d.rloc_of(0) in prober.targets()


def test_first_tick_fires_one_period_after_start():
    """Regression: the first round must fire on the grid, at t + period,
    not at the install.

    At deploy time the map-cache is empty, so nothing is queued.  A mapping
    pushed *before the first period elapses* arms the round at the first
    grid instant, which probes it — targets are re-read from the cache at
    every round.
    """
    scenario = make_world(probe_period=0.5)
    sim = scenario.sim
    plane = scenario.control_plane
    site_s, site_d = scenario.topology.sites
    prober = plane.probers[site_s.xtrs[0].name]
    assert prober.targets() == []          # empty cache at startup
    assert not plane._round_armed and not sim._queue

    # Push a mapping mid-period (t=0.2), well before the first round.
    def fill():
        yield sim.timeout(0.2)
        plane.pces[site_s.index].push_mapping_to_itrs(
            MappingRecord(str(site_d.eid_prefix),
                          tuple(RlocEntry(site_d.rloc_of(b))
                                for b in range(len(site_d.xtrs)))))

    Process(sim, fill())
    sim.run(until=0.45)
    assert plane._round_armed and plane._round_at == 0.5
    assert prober._nonce == 0              # nothing fired before t + period
    sim.run(until=0.55)
    assert prober._nonce == len(site_d.xtrs)  # the first round saw the push


def test_prober_snapshot_round_trips_liveness_state():
    """down set, consecutive misses and nonce state survive a round trip."""
    scenario = make_world(probe_period=0.5)   # > probe timeout: rounds don't overlap
    sim = scenario.sim
    site_s, site_d, _source = start_flow(scenario)
    links = site_d.access_links[0]
    links["uplink"].up = False
    links["downlink"].up = False
    sim.run(until=sim.now + 3.0)
    # Settle in-flight probes: their deadlines all fall before the next
    # round, which a down locator keeps queueing.
    sim.run_before(scenario.control_plane._round_at)
    prober = scenario.control_plane.probers[site_s.xtrs[0].name]
    assert prober.down and prober._nonce > 0

    state = prober.snapshot_state()
    before = (set(prober.down), dict(prober._consecutive_misses),
              prober._nonce)
    prober.down.clear()
    prober._consecutive_misses.clear()
    prober._nonce = 0
    prober.restore_state(state)
    after = (set(prober.down), dict(prober._consecutive_misses),
             prober._nonce)
    assert after == before
    assert prober._pending == {}


def test_prober_snapshot_refuses_in_flight_probes():
    scenario = make_world(probe_period=0.2)
    sim = scenario.sim
    site_s, _site_d, _source = start_flow(scenario)
    prober = scenario.control_plane.probers[site_s.xtrs[0].name]
    # Run to an instant right after a round: probes are in flight.
    sim.run(until=sim.now + 0.2)
    if not prober._pending:             # settle landed between rounds
        sim.run(until=scenario.control_plane._round_at)
    assert prober._pending
    # Each probe's deadline is a queued event, so the world checkpoint
    # that holds the prober refuses at its first entry, the engine.
    with pytest.raises(RuntimeError, match="queued events"):
        Journal(scenario.singleton_components(), ())


def test_a_built_probing_world_queues_nothing_before_or_after_a_run():
    """Nothing probes until a mapping is installed: a probing world settles
    at build with an empty queue, and a restore gives that back."""
    config = ScenarioConfig(control_plane="pce", num_sites=6, seed=21,
                            enable_probing=True, probe_period=0.3,
                            probe_timeout=0.15, tracing=False)
    world = build_world(config)
    try:
        sim = world.sim
        assert (sim.now, sim._queue) == (0.0, [])
        run_workload(world, WorkloadConfig(num_flows=10, arrival_rate=10.0,
                                           packets_per_flow=4))
        assert world.control_plane._round_armed and sim._queue
        restore_world(world)
        assert (sim.now, sim._queue) == (0.0, [])
        assert not world.control_plane._round_armed
    finally:
        world.teardown()


def test_failover_probe_rounds_keep_to_the_grid_in_registration_order():
    """Every probe instant of a ``failover``-preset cell is on the grid the
    deploy instant and the period accumulate to, and at each one every
    prober probes once, in registration order."""
    cell = next(cell for cell in expand_grid(PRESETS["failover"])
                if cell.scenario.control_plane == "pce"
                and cell.failure.fraction > 0)
    world = build_world(cell.scenario)
    try:
        sim = world.sim
        plane = world.control_plane
        rounds = []
        for name, prober in plane.probers.items():
            prober.probe_round = functools.partial(
                _logged_round, prober.probe_round, rounds, sim, name)
        apply_failures(world, cell.failure, sim.now, sim)
        run_workload(world, cell.workload)
        grid = [0.0]
        while grid[-1] <= sim.now:
            grid.append(grid[-1] + plane.probe_period)
        instants = sorted({when for when, _name in rounds})
        assert len(instants) > 10 and set(instants) <= set(grid)
        for when in instants:
            assert [name for at, name in rounds if at == when] \
                == list(plane.probers)
    finally:
        world.teardown()


def _logged_round(probe_round, rounds, sim, name):
    rounds.append((sim.now, name))
    probe_round()
