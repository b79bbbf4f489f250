"""E8 — completing the two-way resolution via the first data packet.

The paper's closing paragraph: when the first data packet reaches the
chosen ETR it (i) delivers it, (ii) extracts the reverse mapping, and
(iii) multicasts it to the other local ETRs and the PCE database.  We
measure, per flow, the time from the ETR's decapsulation until *every*
sibling ETR holds the reverse mapping — a few intra-site hops — and compare
it against what a two-way *pull* resolution would have cost (the latency of
resolving the source's mapping through ALT from the destination side),
which is the alternative the paper explicitly avoids.
"""

from dataclasses import dataclass

from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.experiments.workload import WorkloadConfig, run_workload
from repro.metrics.stats import summarize


@dataclass
class E8Row:
    variant: str
    samples: int
    completion_mean: float
    completion_p95: float

    def as_tuple(self):
        return (self.variant, self.samples, round(self.completion_mean, 6),
                round(self.completion_p95, 6))


HEADERS = ("variant", "samples", "completion_mean", "completion_p95")

#: Locators per site: each reverse multicast reaches two sibling ETRs.
PROVIDERS_PER_SITE = 3


def run_e8(num_sites=4, num_flows=20, seed=97):
    return [_pce_reverse_completion(num_sites, num_flows, seed),
            _two_way_pull_baseline(num_sites, num_flows, seed)]


def _pce_reverse_completion(num_sites, num_flows, seed):
    config = ScenarioConfig(control_plane="pce", num_sites=num_sites,
                            providers_per_site=PROVIDERS_PER_SITE, seed=seed)
    scenario = build_scenario(config)
    workload = WorkloadConfig(num_flows=num_flows, arrival_rate=3.0,
                              packets_per_flow=1)
    run_workload(scenario, workload)
    sim = scenario.sim
    multicasts = sim.trace.of_kind("etr.reverse-multicast")
    installs = [r for r in sim.trace.of_kind("itr.mapping-installed")
                if r.detail.get("origin") == "reverse-multicast"]
    completions = []
    expected_siblings = PROVIDERS_PER_SITE - 1
    for event in multicasts:
        prefix = event.detail["prefix"]
        arrivals = sorted(r.time for r in installs
                          if r.detail.get("prefix") == prefix and r.time >= event.time)
        if len(arrivals) >= expected_siblings:
            completions.append(arrivals[expected_siblings - 1] - event.time)
    scenario.teardown()
    stats = summarize(completions)
    return E8Row(variant="pce-reverse-multicast", samples=len(completions),
                 completion_mean=stats["mean"], completion_p95=stats["p95"])


def _two_way_pull_baseline(num_sites, num_flows, seed):
    """What the avoided alternative costs: a full ALT pull from the D side."""
    config = ScenarioConfig(control_plane="alt", num_sites=num_sites,
                            providers_per_site=PROVIDERS_PER_SITE, seed=seed,
                            miss_policy="queue", gleaning=False)
    scenario = build_scenario(config)
    workload = WorkloadConfig(num_flows=num_flows, arrival_rate=3.0,
                              packets_per_flow=1)
    run_workload(scenario, workload)
    latencies = scenario.mapping_system.stats.resolution_latencies
    scenario.teardown()
    stats = summarize(latencies)
    return E8Row(variant="two-way-pull(alt)", samples=len(latencies),
                 completion_mean=stats["mean"], completion_p95=stats["p95"])


def check_shape(rows):
    failures = []
    by_variant = {row.variant: row for row in rows}
    pce = by_variant.get("pce-reverse-multicast")
    pull = by_variant.get("two-way-pull(alt)")
    if pce is None or pce.samples == 0:
        failures.append("no reverse-multicast completions observed")
        return failures
    if pce.completion_mean > 0.005:
        failures.append(
            f"reverse multicast took {pce.completion_mean:.4f}s (expected intra-site)")
    if pull and pull.samples and not pull.completion_mean > pce.completion_mean * 3:
        failures.append("two-way pull not substantially slower than ETR multicast")
    return failures
