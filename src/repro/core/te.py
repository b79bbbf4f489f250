"""Traffic-engineering helpers: egress re-homing.

The paper's Step 7b rationale: "The advantage of pushing the mapping to all
ITRs is that PCE_S can carry out local TE actions, and move part of its
internal traffic, without caring whether a mapping will be in place in the
relevant ITRs after the TE optimization."

:func:`plan_rebalance` produces that optimisation: given per-ITR loads and
the per-destination flows currently homed on each ITR, it greedily moves
flows from the most- to the least-loaded ITR until the imbalance falls
under :data:`TOLERANCE`.
:meth:`PceControlPlane.rebalance_site_egress` then rewrites hub routes —
safe because every ITR already holds the mapping (push-to-all; the
re-homing test in ``tests/test_core_pce.py`` pins it).
"""

import math
from dataclasses import dataclass

#: Re-homing stops once ``max(load) / mean(load)`` is at most this.
TOLERANCE = 1.2
#: What TE re-homing assumes each homed flow weighs, in bytes.
FLOW_BYTES_ESTIMATE = 50_000


@dataclass(frozen=True)
class FlowMove:
    """Move the flows toward *destination_prefix* from one ITR to another."""

    destination_prefix: object
    from_itr: int
    to_itr: int
    bytes_estimate: int


def plan_rebalance(loads, flows_by_itr):
    """Greedy egress re-homing plan.

    Parameters
    ----------
    loads:
        Current byte counts per ITR index.
    flows_by_itr:
        ``{itr_index: [(destination_prefix, bytes_estimate), ...]}`` —
        the flows currently homed on each ITR, heaviest first or not.

    Returns a list of :class:`FlowMove`.
    """
    loads = list(loads)
    flows = {index: sorted(entries, key=lambda item: -item[1])
             for index, entries in flows_by_itr.items()}
    moves = []
    if len(loads) < 2:
        return moves
    for _round in range(256):
        total = math.fsum(loads)
        if total == 0:
            break
        mean = total / len(loads)
        heaviest = max(range(len(loads)), key=lambda i: loads[i])
        lightest = min(range(len(loads)), key=lambda i: loads[i])
        if loads[heaviest] / mean <= TOLERANCE or heaviest == lightest:
            break
        candidates = flows.get(heaviest)
        if not candidates:
            break
        # Move the largest flow that strictly lowers the maximum load —
        # anything else would oscillate between the two ITRs.
        chosen = None
        for position, (_prefix, size) in enumerate(candidates):
            new_max = max(loads[heaviest] - size, loads[lightest] + size)
            if new_max < loads[heaviest]:
                chosen = position
                break
        if chosen is None:
            break
        prefix, size = candidates.pop(chosen)
        loads[heaviest] -= size
        loads[lightest] += size
        flows.setdefault(lightest, []).append((prefix, size))
        moves.append(FlowMove(destination_prefix=prefix, from_itr=heaviest,
                              to_itr=lightest, bytes_estimate=size))
    return moves
