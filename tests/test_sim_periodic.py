"""Tests for periodic work on the engine.

The one thing that repeats on a fixed grid is the control plane's RLOC
probe round: an ordinary ``call_at`` that re-arms itself one period on.
These tests hold its timing and tie-breaking against the engine.
"""

import pytest

from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.lisp.mappings import MappingRecord, RlocEntry


def make_world(probe_period):
    config = ScenarioConfig(control_plane="pce", topology="fig1", seed=19,
                            irc_policy="primary", enable_probing=True,
                            probe_period=probe_period)
    return build_scenario(config)


def push_mapping(scenario):
    """Push the destination site's mapping to the source site's ITRs: the
    install gives the probers a target and arms the first round."""
    site_s, site_d = scenario.topology.sites
    scenario.control_plane.pces[site_s.index].push_mapping_to_itrs(
        MappingRecord(str(site_d.eid_prefix),
                      tuple(RlocEntry(site_d.rloc_of(b))
                            for b in range(len(site_d.xtrs)))))


def log_rounds(scenario, order, label="tick"):
    """Append ``(now, label)`` to *order* whenever the first prober runs
    its part of a round."""
    sim = scenario.sim
    prober = next(iter(scenario.control_plane.probers.values()))
    probe_round = prober.probe_round

    def logged():
        order.append((sim.now, label))
        probe_round()

    prober.probe_round = logged


def round_entries(scenario):
    plane = scenario.control_plane
    return [entry for entry in scenario.sim._queue
            if entry[2] == plane._probe_round]


def test_first_tick_fires_one_period_after_start():
    scenario = make_world(probe_period=0.5)
    sim, plane = scenario.sim, scenario.control_plane
    ticks = []
    log_rounds(scenario, ticks)
    push_mapping(scenario)
    sim.run(until=0.45)
    assert plane._round_armed and plane._round_at == 0.5
    assert ticks == []
    sim.run(until=2.0)
    assert [when for when, _label in ticks] == [0.5, 1.0, 1.5, 2.0]
    with pytest.raises(ValueError):
        make_world(probe_period=0.0)


def test_start_is_idempotent():
    scenario = make_world(probe_period=1.0)
    sim, plane = scenario.sim, scenario.control_plane
    ticks = []
    log_rounds(scenario, ticks)
    push_mapping(scenario)
    sim.run(until=0.5)                  # the push's installs each armed
    plane._arm_probe_round()
    assert len(round_entries(scenario)) == 1   # one round queued, not more
    sim.run(until=2.5)
    plane._arm_probe_round()
    assert [when for when, _label in ticks] == [1.0, 2.0]
    assert plane._round_at == 3.0
    assert len(round_entries(scenario)) == 1


def test_tick_interleaves_deterministically_with_same_time_event():
    """A round and a call at the same instant break the tie by sequence:
    whichever entered the queue first runs first."""
    scenario = make_world(probe_period=1.0)
    sim, plane = scenario.sim, scenario.control_plane
    order = []
    log_rounds(scenario, order)
    sim.call_at(1.0, order.append, (1.0, "before"))   # queued before arming
    push_mapping(scenario)
    sim.run(until=0.5)
    assert plane._round_at == 1.0
    sim.call_at(1.0, order.append, (1.0, "after"))    # queued after arming
    sim.run(until=1.0)
    assert order == [(1.0, "before"), (1.0, "tick"), (1.0, "after")]
