"""E4 — traffic-engineering flexibility (claim C3, weakness W3).

All flows target one multihomed site.  In plain LISP the inbound locator is
whatever static priority the site published (everything lands on one
provider) and the reverse direction is pinned to the forward ITR.  The PCE
control plane chooses the inbound locator per flow with its IRC engine, so
inbound bytes spread across providers — and, independently, the *source*
site spreads its outbound bytes, demonstrating the two one-way tunnels.

Metrics come from the links' per-flow byte accounting rather than raw
transmit counters: per-provider shares of *data-plane delivered bytes* on
the destination site's access links (inbound) and a max/mean imbalance
figure, plus the same for one source site's uplinks (outbound) — so
control-plane chatter (mapping pushes, probes, DNS transit) no longer
leaks into the balance numbers.  The access links carry a finite rate and
the workload runs with shaped pacing (mice burst, elephants pace), so each
row also reports real per-link utilization — the peak busy-window fraction
across the site's providers.  An ablation re-runs PCE with the ``primary``
IRC policy, which degenerates to the static baseline.
"""

from dataclasses import dataclass

from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.experiments.workload import WorkloadConfig, run_workload

#: The systems E4 compares, as (label, scenario overrides).
VARIANTS = (
    ("pce+balance", dict(control_plane="pce", irc_policy="balance")),
    ("pce+primary", dict(control_plane="pce", irc_policy="primary")),
    ("alt-static", dict(control_plane="alt", miss_policy="queue")),
    ("nerd-static", dict(control_plane="nerd")),
)

#: Access-link rate used so utilization is observable (10 Mbit/s: a 1200-byte
#: packet serialises in ~1 ms, comparable to the access propagation delays).
DEFAULT_ACCESS_RATE_BPS = 10_000_000.0
#: The multihomed site every flow targets.
DEST_SITE = 0
#: Shaped pacing: mice burst, elephants pace, so utilization is real.
PACING = "shaped"


@dataclass
class E4Row:
    system: str
    flows: int
    inbound_shares: tuple
    inbound_imbalance: float
    inbound_peak_util: float
    outbound_shares: tuple
    outbound_imbalance: float
    outbound_peak_util: float

    def as_tuple(self):
        inbound = "/".join(f"{share:.2f}" for share in self.inbound_shares)
        outbound = "/".join(f"{share:.2f}" for share in self.outbound_shares)
        return (self.system, self.flows, inbound, round(self.inbound_imbalance, 3),
                round(self.inbound_peak_util, 3), outbound,
                round(self.outbound_imbalance, 3),
                round(self.outbound_peak_util, 3))


HEADERS = ("system", "flows", "in_shares", "in_imbalance", "in_util",
           "out_shares", "out_imbalance", "out_util")


def _imbalance(shares):
    positive = [s for s in shares]
    if not positive or sum(positive) == 0:
        return 1.0
    mean = sum(positive) / len(positive)
    return max(positive) / mean


def run_e4(num_sites=5, num_flows=40, seed=53, source_site=1,
           access_rate_bps=DEFAULT_ACCESS_RATE_BPS):
    rows = []
    for label, overrides in VARIANTS:
        config = ScenarioConfig(num_sites=num_sites, seed=seed,
                                access_rate_bps=access_rate_bps,
                                **overrides)
        scenario = build_scenario(config)
        workload = WorkloadConfig(num_flows=num_flows, arrival_rate=10.0,
                                  dest_site=DEST_SITE, packets_per_flow=8,
                                  payload_bytes=1200, pacing=PACING,
                                  elephant_threshold=5)
        records = run_workload(scenario, workload)
        destination = scenario.topology.sites[DEST_SITE]
        source = scenario.topology.sites[source_site]
        inbound = scenario.access_flow_byte_shares(destination, direction="in")
        outbound = scenario.access_flow_byte_shares(source, direction="out")
        in_util = scenario.access_link_utilization(destination, direction="in")
        out_util = scenario.access_link_utilization(source, direction="out")
        rows.append(E4Row(system=label, flows=len(records),
                          inbound_shares=tuple(inbound),
                          inbound_imbalance=_imbalance(inbound),
                          inbound_peak_util=max(in_util, default=0.0),
                          outbound_shares=tuple(outbound),
                          outbound_imbalance=_imbalance(outbound),
                          outbound_peak_util=max(out_util, default=0.0)))
    return rows


def check_shape(rows):
    failures = []
    by_system = {row.system: row for row in rows}
    balanced = by_system.get("pce+balance")
    primary = by_system.get("pce+primary")
    static = by_system.get("alt-static") or by_system.get("nerd-static")
    if balanced and balanced.inbound_imbalance > 1.5:
        failures.append(
            f"pce+balance inbound imbalance {balanced.inbound_imbalance:.2f} too high")
    if balanced and primary and \
            not primary.inbound_imbalance > balanced.inbound_imbalance:
        failures.append("primary policy not more imbalanced than balance policy")
    if balanced and static and \
            not static.inbound_imbalance > balanced.inbound_imbalance:
        failures.append("static baseline not more imbalanced than pce+balance")
    if balanced and balanced.inbound_peak_util <= 0.0:
        failures.append("rated access links saw no measurable utilization")
    return failures
