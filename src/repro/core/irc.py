"""Intelligent Route Control: measurement-driven locator selection.

The paper leans on IRC twice: PCE_S "computes the local RLOC to be used for
the reverse mapping based on TE constraints ... the algorithms used are
inherently the same used today by IRC techniques" (Step 1), and PCE_D's
"mapping selection is made by an online IRC engine running in background,
so the mapping is always known aforehand" (Step 6).

The engine keeps, per site, an EWMA estimate of every provider's path
delay (access delay + measured WAN component + jitter) and a snapshot of
the access links' byte counters; each measurement round refreshes both,
and the control plane takes one at deployment.  Selection policies:

- ``latency``  — lowest estimated delay;
- ``balance``  — least-loaded access link (bytes observed + bytes pledged
  to recent assignments), i.e. classic IRC load spreading;
- ``primary``  — always locator 0 (degenerates to the static behaviour of
  a non-PCE site; used as a control in experiments).

Because the engine is always current, reading the chosen locator is O(1)
and adds no latency at interception time — that is precisely the paper's
line-rate claim, which experiment E6 checks against an on-demand variant.
"""

#: Weight of the newest delay sample in a provider's EWMA.
EWMA_ALPHA = 0.3
#: Upper bound (seconds) of the uniform noise on each delay sample.
JITTER = 0.002
#: Bytes pledged to a locator per assigned flow (and decayed per round),
#: and what TE re-homing assumes each homed flow weighs.
FLOW_BYTES_ESTIMATE = 50_000


class ProviderEstimate:
    """Per-provider rolling state."""

    __slots__ = ("delay_ewma", "bytes_in", "bytes_out", "pledged_in", "pledged_out")

    def __init__(self, delay_ewma):
        self.delay_ewma = delay_ewma
        self.bytes_in = 0
        self.bytes_out = 0
        self.pledged_in = 0
        self.pledged_out = 0


class IrcEngine:
    """One site's IRC engine (shared by its PCE and TE logic)."""

    def __init__(self, sim, site, topology, policy="balance"):
        self.sim = sim
        self.site = site
        self.topology = topology
        self.policy = policy
        self.measurement_rounds = 0
        self._rng_name = f"irc-{site.name}"
        self.estimates = [ProviderEstimate(self._path_delay_estimate(b))
                          for b in range(len(site.xtrs))]

    # ------------------------------------------------------------------ #
    # Measurement
    # ------------------------------------------------------------------ #

    def measure_once(self):
        """One measurement round: refresh delay EWMAs and load snapshots."""
        self.measurement_rounds += 1
        # Fetched where it is drawn: the hand-out is what journals the stream.
        rng = self.sim.rng.stream(self._rng_name)
        for b, estimate in enumerate(self.estimates):
            sample = self._path_delay_estimate(b) + rng.uniform(0, JITTER)
            estimate.delay_ewma = ((1 - EWMA_ALPHA) * estimate.delay_ewma
                                   + EWMA_ALPHA * sample)
            links = self.site.access_links[b]
            estimate.bytes_in = links["downlink"].stats.tx_bytes
            estimate.bytes_out = links["uplink"].stats.tx_bytes
            # Pledges decay once real counters catch up.
            estimate.pledged_in = max(0, estimate.pledged_in - FLOW_BYTES_ESTIMATE)
            estimate.pledged_out = max(0, estimate.pledged_out - FLOW_BYTES_ESTIMATE)

    def _path_delay_estimate(self, b):
        """Access delay plus this provider's mean WAN distance."""
        access = self.site.access_delays[b]
        provider = self.topology.providers[self.site.provider_ids[b]]
        mesh_delays = []
        for other in self.topology.providers:
            if other is provider:
                continue
            delay = self.topology.provider_mesh_delay(provider, other)
            if delay is not None:
                mesh_delays.append(delay)
        wan = sum(mesh_delays) / len(mesh_delays) if mesh_delays else 0.0
        return access + wan

    # ------------------------------------------------------------------ #
    # Selection
    # ------------------------------------------------------------------ #

    def select_ingress(self):
        """Locator index for *inbound* traffic (the reverse mapping of Step 1)."""
        index = self._select(direction="in")
        self.estimates[index].pledged_in += FLOW_BYTES_ESTIMATE
        return index

    def select_egress(self):
        """Locator index for *outbound* traffic (local TE, Step 7b)."""
        index = self._select(direction="out")
        self.estimates[index].pledged_out += FLOW_BYTES_ESTIMATE
        return index

    def _load(self, estimate, direction):
        if direction == "in":
            return estimate.bytes_in + estimate.pledged_in
        return estimate.bytes_out + estimate.pledged_out

    def _select(self, direction):
        candidates = range(len(self.estimates))
        if self.policy == "primary":
            return 0
        if self.policy == "latency":
            return min(candidates, key=lambda b: (self.estimates[b].delay_ewma, b))
        if self.policy == "balance":
            return min(candidates, key=lambda b: (self._load(self.estimates[b], direction), b))
        raise ValueError(f"unknown IRC policy {self.policy!r}")

    def snapshot(self):
        """Per-locator view for reporting: (delay_ewma, bytes_in, bytes_out)."""
        return [(est.delay_ewma, est.bytes_in, est.bytes_out) for est in self.estimates]

    #: Construction-time config (the RNG stream is fetched by name where it
    #: is drawn and restored by the simulator's RandomStreams).
    _SNAPSHOT_EXEMPT = ("sim", "site", "topology", "policy", "_rng_name")

    def snapshot_state(self):
        """Round counter and per-provider estimates for world reuse."""
        return (self.measurement_rounds,
                [(est.delay_ewma, est.bytes_in, est.bytes_out,
                  est.pledged_in, est.pledged_out) for est in self.estimates])

    def restore_state(self, state):
        self.measurement_rounds, estimates = state
        for est, values in zip(self.estimates, estimates, strict=True):
            (est.delay_ewma, est.bytes_in, est.bytes_out,
             est.pledged_in, est.pledged_out) = values
