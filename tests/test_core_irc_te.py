"""Unit tests for the IRC engine and the TE re-homing planner."""

import pytest

from repro.core.irc import IrcEngine
from repro.core import te
from repro.core.te import FlowMove, plan_rebalance
from repro.net.addresses import IPv4Prefix


def make_irc(policy="balance"):
    """The engine of a site with three locators."""
    return IrcEngine(3, policy=policy)


def test_counters_start_at_zero():
    irc = make_irc()
    assert (irc.ingress, irc.egress) == (0, 0)


def test_primary_policy_always_zero():
    irc = make_irc(policy="primary")
    assert [irc.select_ingress() for _ in range(5)] == [0] * 5
    # The control still counts what it picks.
    assert irc.ingress == 5


def _least_pledged(locators, selections):
    """The picks of the engine that pledged the same bytes to each pick and
    chose the least pledged locator, ties to the lowest index."""
    pledged = [0] * locators
    picks = []
    for _ in range(selections):
        index = min(range(locators), key=pledged.__getitem__)
        pledged[index] += 50_000
        picks.append(index)
    return picks


@pytest.mark.parametrize("locators", (1, 2, 3, 5))
def test_balance_policy_round_robins(locators):
    irc = IrcEngine(locators, policy="balance")
    picks = [irc.select_ingress() for _ in range(4 * locators + 1)]
    assert picks == [n % locators for n in range(4 * locators + 1)]
    assert picks == _least_pledged(locators, len(picks))


def test_unknown_policy_raises():
    with pytest.raises(ValueError, match="unknown IRC policy 'bogus'"):
        make_irc(policy="bogus")


def test_egress_and_ingress_tracked_separately():
    irc = make_irc(policy="balance")
    irc.select_ingress()
    assert (irc.ingress, irc.egress) == (1, 0)
    assert irc.select_egress() == 0
    assert (irc.ingress, irc.egress) == (1, 1)


def test_counters_round_trip_through_restore():
    irc = make_irc(policy="balance")
    irc.select_ingress()
    state = irc.snapshot_state()
    assert state == (1, 0)
    irc.select_ingress()
    irc.select_egress()
    irc.restore_state(state)
    assert irc.snapshot_state() == state
    assert irc.select_ingress() == 1


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
