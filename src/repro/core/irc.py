"""Intelligent Route Control: pledge-driven locator selection.

The paper leans on IRC twice: PCE_S "computes the local RLOC to be used for
the reverse mapping based on TE constraints ... the algorithms used are
inherently the same used today by IRC techniques" (Step 1), and PCE_D's
"mapping selection is made by an online IRC engine running in background,
so the mapping is always known aforehand" (Step 6).

The engine keeps, per site, the bytes it has pledged to each locator,
inbound and outbound: every selection pledges :data:`FLOW_BYTES_ESTIMATE`
to the locator it picks.  Selection policies:

- ``balance``  — the locator with the least pledged in that direction
  (ties to the lowest index), i.e. classic IRC load spreading;
- ``primary``  — always locator 0 (degenerates to the static behaviour of
  a non-PCE site; used as a control in experiments).

Because the engine is always current, reading the chosen locator is O(1)
and adds no latency at interception time — that is precisely the paper's
line-rate claim, which experiment E6 checks against an on-demand variant.
"""

#: Bytes pledged to a locator per assigned flow, and what TE re-homing
#: assumes each homed flow weighs.
FLOW_BYTES_ESTIMATE = 50_000
#: The selection policies :meth:`IrcEngine._pledge` knows.
POLICIES = ("balance", "primary")


class IrcEngine:
    """One site's IRC engine (shared by its PCE and TE logic): the bytes
    pledged to each of its *locators*, by direction."""

    def __init__(self, locators, policy):
        self.policy = policy
        self.pledged_in = [0] * locators
        self.pledged_out = [0] * locators

    def select_ingress(self):
        """Locator index for *inbound* traffic (the reverse mapping of Step 1)."""
        return self._pledge(self.pledged_in)

    def select_egress(self):
        """Locator index for *outbound* traffic (local TE, Step 7b)."""
        return self._pledge(self.pledged_out)

    def _pledge(self, pledged):
        """Choose a locator under the policy, then pledge a flow to it."""
        if self.policy == "primary":
            index = 0
        elif self.policy == "balance":
            index = min(range(len(pledged)), key=pledged.__getitem__)
        else:
            raise ValueError(f"unknown IRC policy {self.policy!r}, "
                             f"expected one of {POLICIES}")
        pledged[index] += FLOW_BYTES_ESTIMATE
        return index

    #: Construction-time config.
    _SNAPSHOT_EXEMPT = ("policy",)

    def snapshot_state(self):
        """Both pledge lists, for world reuse."""
        return (list(self.pledged_in), list(self.pledged_out))

    def restore_state(self, state):
        pledged_in, pledged_out = state
        self.pledged_in = list(pledged_in)
        self.pledged_out = list(pledged_out)
