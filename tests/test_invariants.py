"""Cross-cutting invariants over randomised scenarios.

These properties must hold for *any* seed and any control plane:
conservation of packets *and bytes*, cache-counter consistency, trace
determinism, and the PCE's zero-loss guarantee.
"""

from dataclasses import replace

import pytest

from repro.experiments import ScenarioConfig, WorkloadConfig, build_scenario, run_workload
from repro.experiments.sweep import PRESETS, _apply_failures, expand_grid
from repro.experiments.worldbuild import build_world
from repro.net.host import Host
from repro.net.link import QUEUE_CAPACITY, LinkStats, connect
from repro.net.packet import udp_packet
from repro.sim import Simulator


def run_world(control_plane, seed, num_sites=4, num_flows=12, miss_policy="queue"):
    config = ScenarioConfig(control_plane=control_plane, num_sites=num_sites,
                            seed=seed, miss_policy=miss_policy)
    scenario = build_scenario(config)
    records = run_workload(scenario, WorkloadConfig(num_flows=num_flows,
                                                    arrival_rate=8.0))
    return scenario, records


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("control_plane", ["pce", "alt", "nerd", "plain"])
def test_packet_conservation(control_plane, seed):
    """Delivered never exceeds sent; every delivery maps to a real flow."""
    scenario, records = run_world(control_plane, seed)
    for record in records:
        assert 0 <= record.packets_delivered <= record.packets_sent
    total_delivered = sum(sink.received for sink in scenario.udp_sinks.values())
    by_flow_total = sum(count for sink in scenario.udp_sinks.values()
                        for count in sink.by_flow.values())
    assert by_flow_total == total_delivered


@pytest.mark.parametrize("seed", [5, 6, 7, 8])
def test_pce_never_loses_packets(seed):
    """The headline guarantee, across seeds."""
    scenario, records = run_world("pce", seed, num_sites=6, num_flows=20)
    assert all(r.packets_lost == 0 for r in records if not r.failed)
    policy = scenario.miss_policy
    assert policy.stats.dropped == 0
    assert policy.stats.queue_delays == []      # nothing waited in a queue


@pytest.mark.parametrize("control_plane", ["pce", "alt", "cons", "nerd"])
def test_cache_counters_consistent(control_plane):
    scenario, _records = run_world(control_plane, seed=9)
    xtrs = list(scenario.iter_xtrs())
    for xtr in xtrs:
        assert xtr.map_cache.hits >= 0 and xtr.map_cache.misses >= 0
    # Every hit encapsulates or finds no live locator, and so does every
    # packet the queue policy flushes (one queue delay each).
    flushed = len(scenario.miss_policy.stats.queue_delays)
    assert sum(xtr.map_cache.hits for xtr in xtrs) + flushed \
        == sum(xtr.encapsulated + xtr.no_rloc_drops for xtr in xtrs)


@pytest.mark.parametrize("control_plane", ["pce", "alt"])
def test_trace_level_determinism(control_plane):
    """Identical seeds produce byte-identical event traces."""

    def signature():
        scenario, _records = run_world(control_plane, seed=11)
        # Packet uids / flow ids are process-global counters, so they differ
        # between two runs in one process; everything else must match.
        volatile = {"uid"}
        return [(round(r.time, 9), r.source, r.kind,
                 tuple(sorted((k, v) for k, v in r.detail.items()
                              if k not in volatile)))
                for r in scenario.sim.trace.records]

    assert signature() == signature()


def test_different_seeds_differ():
    _s1, records_a = run_world("alt", seed=21)
    _s2, records_b = run_world("alt", seed=22)
    a = [(str(r.source), str(r.destination)) for r in records_a]
    b = [(str(r.source), str(r.destination)) for r in records_b]
    assert a != b


def test_ttl_never_negative_anywhere():
    scenario, _records = run_world("alt", seed=13)
    for record in scenario.sim.trace.records:
        assert record.time >= 0


def test_large_scale_smoke():
    """16 sites, 3 providers each, 80 flows: completes and stays consistent."""
    config = ScenarioConfig(control_plane="pce", num_sites=16, num_providers=6,
                            providers_per_site=3, seed=31)
    scenario = build_scenario(config)
    records = run_workload(scenario, WorkloadConfig(num_flows=80, arrival_rate=40.0))
    ok = [r for r in records if not r.failed]
    assert len(ok) == 80
    assert all(r.packets_lost == 0 for r in ok)
    # Every site that sourced flows got its mappings pushed to all its ITRs.
    cp = scenario.control_plane
    assert cp.total_push_messages() >= len(
        {r.source for r in ok})  # at least one push per active source host


# --------------------------------------------------------------------- #
# Byte conservation: offered == delivered + dropped, per link, per flow
# --------------------------------------------------------------------- #

#: Tier-1-sized stand-ins for every preset: same axes and knobs, shrunk
#: site counts / seeds / flow counts so the invariant pass stays fast.
_PRESET_SHRINK = {
    "smoke": dict(seeds=(1,)),
    "baselines": dict(site_counts=(4,), seeds=(11,), zipf_values=(1.2,),
                      num_flows=16),
    "scale": dict(site_counts=(4,), seeds=(11,), num_flows=16,
                  num_providers=4, pacings=("constant", "fluid"),
                  workload_overrides={"tcp_data_burst": True,
                                      "fluid_threshold": 3.0}),
    "failover": dict(seeds=(21,), num_flows=16,
                     pacings=("constant", "fluid"),
                     workload_overrides={"fluid_threshold": 3.0}),
    "shaped": dict(site_counts=(4,), seeds=(31,), num_flows=16),
    "megaflow": dict(num_flows=600, arrival_rate=300.0),
    "tiered": dict(site_counts=(4,), seeds=(51,), num_flows=16,
                   topologies=("flat", "tiered")),
}


def test_every_preset_has_an_invariant_stand_in():
    assert sorted(_PRESET_SHRINK) == sorted(PRESETS)


def _preset_cells(name):
    grid = replace(PRESETS[name], **_PRESET_SHRINK[name])
    return expand_grid(grid)


def _assert_bytes_conserved(scenario, drained):
    accounting = scenario.byte_accounting(drained=drained)
    assert accounting["violations"] == []
    assert accounting["bytes_offered"] == accounting["bytes_delivered"] \
        + accounting["bytes_dropped"] + accounting["bytes_in_flight"]
    if drained:
        assert accounting["bytes_in_flight"] == 0


@pytest.mark.parametrize("preset", sorted(_PRESET_SHRINK))
def test_byte_conservation_across_presets(preset):
    """For every link and every flow, offered == delivered + dropped.

    Checked right at the workload deadline (bytes still in flight are
    legal, a negative residue anywhere is not) and again after a full
    foreground drain (nothing may remain in flight) — across the scale,
    failover and shaped preset families, so constant spacing, TCP data
    bursts, mid-run link failures, heavy tails and shaped pacing all pass
    through the same conservation gate.
    """
    for cell in _preset_cells(preset):
        scenario = build_world(cell.scenario)
        _apply_failures(scenario, cell.failure)
        records = run_workload(scenario, cell.workload)
        _assert_bytes_conserved(scenario, drained=False)
        scenario.sim.run()  # drain in-flight deliveries and DNS retries
        _assert_bytes_conserved(scenario, drained=True)
        # Flow-level budgets: a completed flow sent exactly its budget,
        # a cut-off flow never more.
        for record in records:
            assert record.bytes_sent <= record.bytes_budget
            if not record.failed and record.flow_kind is not None:
                assert record.bytes_sent == record.bytes_budget


def _every_link(scenario):
    """Every link, idle ones included, straight from the topology — the
    reference walk, independent of the world's own link table."""
    links = {}
    for node in scenario.topology.all_nodes():
        for iface in node.interfaces.values():
            if iface.link is not None:
                links[id(iface.link)] = iface.link
    return list(links.values())


def _brute_force_accounting(scenario, drained):
    """``byte_accounting`` as it was: every ledger of every link summed."""
    stats = [(link.name, link.stats) for link in _every_link(scenario)]
    violations = [(name, *violation) for name, ledger in stats
                  for violation in ledger.conservation_violations(drained=drained)]
    return {
        "bytes_offered": sum(ledger.bytes_offered for _, ledger in stats),
        "bytes_delivered": sum(ledger.bytes_delivered for _, ledger in stats),
        "bytes_dropped": sum(ledger.bytes_dropped for _, ledger in stats),
        "bytes_in_flight": sum(ledger.bytes_in_flight for _, ledger in stats),
        "fluid_bytes": sum(ledger.fluid_bytes for _, ledger in stats),
        "conserved": not violations,
        "violations": violations,
    }


def _finished_cell(kind):
    """A world after a shaped, a fluid or a failover cell ran on it."""
    if kind == "failover":
        cell = next(cell for cell in _preset_cells("failover")
                    if cell.failure.fraction > 0)
    else:
        cell = next(cell for cell in _preset_cells("shaped")
                    if cell.workload.pacing == kind)
    scenario = build_world(cell.scenario)
    _apply_failures(scenario, cell.failure)
    run_workload(scenario, cell.workload)
    return scenario


@pytest.mark.parametrize("kind", ("shaped", "fluid", "failover"))
def test_byte_accounting_equals_a_brute_force_sum_over_every_link(kind):
    """Skipping links whose ``bytes_offered`` is zero loses nothing."""
    scenario = _finished_cell(kind)
    links = _every_link(scenario)
    assert list(scenario.links) == links
    idle = [link for link in links if link.stats.bytes_offered == 0]
    assert 0 < len(idle) < len(links)       # the skip has something to skip
    for drained in (False, True):
        assert (scenario.byte_accounting(drained=drained)
                == _brute_force_accounting(scenario, drained))
    fluid_bytes = sum(link.stats.fluid_bytes for link in links)
    assert scenario.byte_accounting()["fluid_bytes"] == fluid_bytes
    assert (fluid_bytes > 0) == (kind == "fluid")
    # A breach planted on a busy link's per-flow account is still reported,
    # under that link's name.
    busy = next(link for link in links if link.stats.flows)
    flow_id, account = next(iter(busy.stats.flows.items()))
    account.delivered = account.offered + 1
    accounting = scenario.byte_accounting()
    assert not accounting["conserved"]
    assert (busy.name, flow_id, *account.as_tuple()) in accounting["violations"]
    assert accounting == _brute_force_accounting(scenario, drained=False)


def _idle_link(rate_bps=None):
    sim = Simulator()
    a = Host(sim, "a", address="10.0.0.1")
    b = Host(sim, "b", address="10.0.0.2")
    forward, _backward = connect(sim, a.add_interface("eth0"),
                                 b.add_interface("eth0"), rate_bps=rate_bps)
    return forward


def _flow_packet():
    return udp_packet("10.0.0.1", "10.0.0.2", 4000, 4001, payload_bytes=100,
                      meta={"flow_id": 7})


def _send_accepted():
    link = _idle_link()
    assert link.send(_flow_packet())
    return [link]


def _send_while_down():
    link = _idle_link()
    link.up = False
    assert not link.send(_flow_packet())
    return [link]


def _send_queue_full():
    link = _idle_link(rate_bps=8_000)
    for _ in range(1 + QUEUE_CAPACITY):     # one serialising, the rest queued
        assert link.send(_flow_packet())
    dropped = link.stats.bytes_dropped
    assert not link.send(_flow_packet())
    assert link.stats.bytes_dropped > dropped
    return [link]


def _post_fluid():
    up, down = _idle_link(), _idle_link(rate_bps=8_000)
    down.up = False
    assert up.post_fluid(5000, 7, 0.1) == 5000
    assert down.post_fluid(5000, 7, 0.1) == 0
    return [up, down]


def _pumped_flows():
    """The pump's per-flow account writes, on every link of a fluid cell."""
    links = _every_link(_finished_cell("fluid"))
    assert any(link.stats.fluid_bytes and link.stats.flows for link in links)
    return links


@pytest.mark.parametrize("ledger_writer", (
    _send_accepted, _send_while_down, _send_queue_full, _post_fluid,
    _pumped_flows), ids=lambda writer: writer.__name__.strip("_"))
def test_a_link_any_ledger_moved_on_has_bytes_offered(ledger_writer):
    """``bytes_offered`` stamps every other ledger (restore_world skips on
    it, and so does byte_accounting): whichever entry point wrote, a link
    whose ``LinkStats`` differs from a fresh one has a nonzero stamp."""
    moved = [link.stats for link in ledger_writer()
             if link.stats.snapshot_state()
             != LinkStats().snapshot_state()]
    assert moved
    assert all(stats.bytes_offered != 0 for stats in moved)


def test_byte_accounting_attributes_all_data_bytes_to_flows():
    """Per-flow accounts on first-hop links cover every data byte sent."""
    scenario, records = run_world("pce", seed=19)
    per_flow = {}
    for link in scenario.links:
        for flow_id, account in link.stats.flows.items():
            per_flow[flow_id] = per_flow.get(flow_id, 0) + account.offered
    for record in records:
        if record.packets_sent:
            assert per_flow.get(record.flow_id, 0) > 0


def test_reverse_mappings_consistent_across_etrs():
    scenario, records = run_world("pce", seed=17, num_sites=3, num_flows=10)
    cp = scenario.control_plane
    # For every reverse announcement, all xTRs of the announcing site agree.
    for site in scenario.topology.sites:
        routers = cp.xtrs_by_site[site.index]
        for record in records:
            if record.failed or record.destination is None:
                continue
            if not site.eid_prefix.contains(record.destination):
                continue
            entries = [router.map_cache.peek(record.source) for router in routers]
            live = [entry for entry in entries if entry is not None]
            if live:
                rlocs = {entry.rlocs[0].address for entry in live}
                assert len(rlocs) == 1, "ETRs disagree on the reverse locator"
