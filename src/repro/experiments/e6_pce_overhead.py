"""E6 — the cost of the PCEs on the DNS path, and the line-rate claim.

Two questions from Step 6's "PCE_D can encapsulate the answer roughly at
line rate":

1. Do the PCEs sitting in the DNS data path slow resolution down?
   Compare plain DNS (no interception logic consuming replies) against the
   PCE deployment with precomputed mappings — the difference should be the
   envelope's transit, i.e. negligible.
2. What if the mapping were computed on demand instead of by the background
   IRC engine?  The ablation adds the computation delay to every lookup.

Also reports the byte overhead of the port-P envelope versus the raw reply.
"""

from dataclasses import dataclass

from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.experiments.workload import WorkloadConfig, run_workload
from repro.metrics.stats import summarize

#: Seconds the on-demand variant spends computing each mapping (what the
#: always-current IRC engine saves the precomputed one).
COMPUTATION_DELAY = 0.02


@dataclass
class E6Row:
    variant: str
    flows: int
    t_dns_mean: float
    t_dns_p95: float
    envelope_overhead_bytes: float

    def as_tuple(self):
        return (self.variant, self.flows, round(self.t_dns_mean, 6),
                round(self.t_dns_p95, 6), round(self.envelope_overhead_bytes, 1))


HEADERS = ("variant", "flows", "t_dns_mean", "t_dns_p95", "envelope_bytes")


#: The variants E6 compares, as (label, scenario overrides).
VARIANTS = (
    ("plain-dns", dict(control_plane="plain")),
    ("pce-precomputed", dict(control_plane="pce", precompute=True)),
    ("pce-on-demand", dict(control_plane="pce", precompute=False,
                           computation_delay=COMPUTATION_DELAY)),
)


def run_e6(num_sites=4, num_flows=25, seed=71):
    rows = []
    for label, overrides in VARIANTS:
        config = ScenarioConfig(num_sites=num_sites, seed=seed,
                                dns_use_cache=False, **overrides)
        scenario = build_scenario(config)
        workload = WorkloadConfig(num_flows=num_flows, arrival_rate=4.0,
                                  packets_per_flow=1)
        records = run_workload(scenario, workload)
        ok = [r.dns_elapsed for r in records if not r.failed]
        stats = summarize(ok)
        rows.append(E6Row(variant=label, flows=len(ok), t_dns_mean=stats["mean"],
                          t_dns_p95=stats["p95"],
                          envelope_overhead_bytes=_envelope_overhead(scenario)))
    return rows


def _envelope_overhead(scenario):
    if scenario.control_plane is None:
        return 0.0
    # Envelope = mapping record + 12B bookkeeping, on top of the raw reply.
    total = 0
    count = 0
    for pce in scenario.control_plane.pces.values():
        if pce.stats.replies_encapsulated:
            mapping = pce.registry.lookup_prefix(pce.site.eid_prefix)
            per_reply = (mapping.size_bytes if mapping else 0) + 12
            total += per_reply * pce.stats.replies_encapsulated
            count += pce.stats.replies_encapsulated
    return total / count if count else 0.0


def check_shape(rows):
    failures = []
    by_variant = {row.variant: row for row in rows}
    plain = by_variant.get("plain-dns")
    precomputed = by_variant.get("pce-precomputed")
    on_demand = by_variant.get("pce-on-demand")
    if plain and precomputed:
        if precomputed.t_dns_mean > plain.t_dns_mean * 1.10 + 0.001:
            failures.append(
                f"precomputed PCE inflates T_DNS: {precomputed.t_dns_mean:.5f} "
                f"vs plain {plain.t_dns_mean:.5f}")
    if precomputed and on_demand:
        gap = on_demand.t_dns_mean - precomputed.t_dns_mean
        if gap < COMPUTATION_DELAY * 0.5:
            failures.append(
                f"on-demand variant does not pay the computation delay (gap={gap:.5f})")
    if precomputed and precomputed.envelope_overhead_bytes <= 0:
        failures.append("no envelope overhead measured")
    return failures
