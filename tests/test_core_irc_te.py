"""Unit tests for the IRC engine and the TE re-homing planner."""

import pytest

from repro.core.irc import IrcEngine
from repro.core import te
from repro.core.te import FlowMove, plan_rebalance
from repro.net.addresses import IPv4Prefix
from repro.net.topogen import TopologySpec, build
from repro.sim import Simulator


@pytest.fixture
def world():
    sim = Simulator(seed=15)
    topology = build(sim, TopologySpec(num_sites=2, num_providers=4, providers_per_site=3))
    return sim, topology


def make_irc(sim, topology, policy="balance"):
    return IrcEngine(sim, topology.sites[0], topology, policy=policy)


def test_estimates_initialised_per_provider(world):
    sim, topology = world
    irc = make_irc(sim, topology)
    assert len(irc.estimates) == 3
    for estimate in irc.estimates:
        assert estimate.delay_ewma > 0


def test_latency_policy_prefers_lowest_delay(world):
    sim, topology = world
    irc = make_irc(sim, topology, policy="latency")
    irc.measure_once()
    best = min(range(3), key=lambda b: irc.estimates[b].delay_ewma)
    assert irc.select_ingress() == best


def test_primary_policy_always_zero(world):
    sim, topology = world
    irc = make_irc(sim, topology, policy="primary")
    assert [irc.select_ingress() for _ in range(5)] == [0] * 5


def test_balance_policy_round_robins_pledges(world):
    sim, topology = world
    irc = make_irc(sim, topology, policy="balance")
    picks = [irc.select_ingress() for _ in range(6)]
    # With no real traffic, pledges alone spread selections across all three.
    assert set(picks) == {0, 1, 2}
    counts = [picks.count(b) for b in range(3)]
    assert max(counts) - min(counts) <= 1


def test_balance_pledges_decay_after_measurement(world):
    sim, topology = world
    irc = make_irc(sim, topology, policy="balance")
    irc.select_ingress()
    assert irc.estimates[0].pledged_in > 0 or irc.estimates[1].pledged_in > 0
    irc.measure_once()
    irc.measure_once()
    assert all(estimate.pledged_in == 0 for estimate in irc.estimates)


def test_unknown_policy_raises(world):
    sim, topology = world
    irc = make_irc(sim, topology, policy="bogus")
    with pytest.raises(ValueError):
        irc.select_ingress()


def test_egress_and_ingress_tracked_separately(world):
    sim, topology = world
    irc = make_irc(sim, topology, policy="balance")
    irc.select_ingress()
    assert any(e.pledged_in > 0 for e in irc.estimates)
    assert all(e.pledged_out == 0 for e in irc.estimates)
    irc.select_egress()
    assert any(e.pledged_out > 0 for e in irc.estimates)


def test_estimates_shape(world):
    sim, topology = world
    irc = make_irc(sim, topology)
    irc.measure_once()
    assert len(irc.estimates) == 3
    for estimate in irc.estimates:
        assert estimate.delay_ewma > 0
        assert estimate.bytes_in == 0 and estimate.bytes_out == 0


# --------------------------------------------------------------------------- #
# plan_rebalance
# --------------------------------------------------------------------------- #

def prefixes(*labels):
    return [IPv4Prefix(f"100.0.{i}.0/24") for i in range(len(labels))]


def test_plan_rebalance_improves_balance_without_thrashing():
    p = prefixes("a", "b", "c")
    moves = plan_rebalance(
        loads=[300, 0],
        flows_by_itr={0: [(p[0], 100), (p[1], 100), (p[2], 100)]},
    )
    assert moves
    assert all(isinstance(move, FlowMove) for move in moves)
    # Every move strictly reduces the max: with 100-unit flows the best
    # reachable split of 300 is 200/100, reached in exactly one move.
    assert len(moves) == 1
    loads = [300, 0]
    for move in moves:
        loads[move.from_itr] -= move.bytes_estimate
        loads[move.to_itr] += move.bytes_estimate
    assert max(loads) < 300


def test_plan_rebalance_reaches_tolerance_with_fine_flows():
    p = [IPv4Prefix(f"100.{i >> 8}.{i & 255}.0/24") for i in range(30)]
    moves = plan_rebalance(
        loads=[300, 0],
        flows_by_itr={0: [(prefix, 10) for prefix in p]},
    )
    loads = [300, 0]
    for move in moves:
        loads[move.from_itr] -= move.bytes_estimate
        loads[move.to_itr] += move.bytes_estimate
    assert max(loads) / (sum(loads) / 2) <= te.TOLERANCE
    # ... and stopped there: one move fewer would still be above it.
    last = moves[-1]
    loads[last.from_itr] += last.bytes_estimate
    loads[last.to_itr] -= last.bytes_estimate
    assert max(loads) / (sum(loads) / 2) > te.TOLERANCE


def test_plan_rebalance_noop_when_balanced():
    p = prefixes("a", "b")
    moves = plan_rebalance(loads=[100, 100],
                           flows_by_itr={0: [(p[0], 100)], 1: [(p[1], 100)]})
    assert moves == []


def test_plan_rebalance_single_itr_noop():
    assert plan_rebalance([500], {0: [(prefixes("a")[0], 500)]}) == []


def test_plan_rebalance_zero_load_noop():
    assert plan_rebalance([0, 0], {}) == []


def test_plan_rebalance_respects_missing_flows():
    # Heaviest ITR has load but no movable flows (e.g. pinned traffic).
    moves = plan_rebalance(loads=[1000, 0], flows_by_itr={})
    assert moves == []


def test_plan_rebalance_terminates_on_unmovable_flow():
    p = prefixes("a")
    # One giant flow: moving it would just swap the imbalance; planner may
    # move it once at most and must terminate.
    moves = plan_rebalance(loads=[1000, 0], flows_by_itr={0: [(p[0], 1000)]})
    assert len(moves) <= 1
