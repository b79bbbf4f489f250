"""Intelligent Route Control: counter-driven locator selection.

The paper leans on IRC twice: PCE_S "computes the local RLOC to be used for
the reverse mapping based on TE constraints ... the algorithms used are
inherently the same used today by IRC techniques" (Step 1), and PCE_D's
"mapping selection is made by an online IRC engine running in background,
so the mapping is always known aforehand" (Step 6).

The engine counts a site's selections per direction.  Policies:

- ``balance``  — round robin (selection ``n`` takes ``n % locators``),
  i.e. classic IRC load spreading;
- ``primary``  — always locator 0 (the static behaviour of a non-PCE
  site; a control in experiments).

Step 1 (:meth:`Pce.on_local_query`), Step 6 (:meth:`Pce._narrowed`) and
the Step-7 fallback (:meth:`Pce._match_step1_decision`) all choose the
locator inbound traffic uses, so they draw, in call order, from the one
inbound counter.  A choice is O(1) and adds no latency at interception
time: the paper's line-rate claim, which E6 checks.
"""

from repro.sim.state import Checkpointed

#: The selection policies an :class:`IrcEngine` takes.
POLICIES = ("balance", "primary")


class IrcEngine(Checkpointed):
    """One site's IRC engine (shared by its PCE and TE logic): its
    selections among *locators*, counted by direction."""

    def __init__(self, locators, policy):
        if policy not in POLICIES:
            raise ValueError(f"unknown IRC policy {policy!r}, "
                             f"expected one of {POLICIES}")
        #: The locators the round robin cycles through: ``primary`` keeps
        #: to locator 0.
        self.span = locators if policy == "balance" else 1
        self.ingress = 0
        self.egress = 0

    def select_ingress(self):
        """Locator index for *inbound* traffic (Steps 1 and 6)."""
        index = self.ingress % self.span
        self.ingress += 1
        return index

    def select_egress(self):
        """Locator index for *outbound* traffic (local TE, Step 7b)."""
        index = self.egress % self.span
        self.egress += 1
        return index

    #: Construction-time config.
    _SNAPSHOT_EXEMPT = ("span",)
