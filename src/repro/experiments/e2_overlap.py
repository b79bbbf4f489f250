"""E2 — hiding the mapping resolution inside the DNS resolution (claim C2).

The paper's target: ``(T_DNS + T_map) ≈ T_DNS``.  For every flow we measure

- ``t_dns``   — what the host saw (stub query to answer);
- ``t_extra`` — how long *after* the DNS answer the forward mapping became
  usable at the source site's ITRs (0 when the mapping won the race).

For the PCE control plane the mapping rides the DNS reply, so ``t_extra``
must be ~0 at every DNS-hierarchy depth; for the pull baselines the whole
resolution happens after the first packet misses, so ``t_extra`` equals the
mapping system's resolution latency and grows with overlay size.
"""

from dataclasses import dataclass

from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.experiments.workload import WorkloadConfig, run_workload
from repro.metrics.stats import summarize


@dataclass
class E2Row:
    system: str
    dns_depth: int
    flows: int
    t_dns_mean: float
    t_extra_mean: float
    t_extra_p95: float
    overlap_achieved: float  # fraction of flows whose mapping beat the answer

    def as_tuple(self):
        return (self.system, self.dns_depth, self.flows,
                round(self.t_dns_mean, 5), round(self.t_extra_mean, 5),
                round(self.t_extra_p95, 5), round(self.overlap_achieved, 3))


HEADERS = ("system", "dns_depth", "flows", "t_dns_mean", "t_extra_mean",
           "t_extra_p95", "overlap")

#: The control planes E2 compares.
SYSTEMS = ("pce", "alt", "cons")
#: Extra DNS-hierarchy levels below the TLD each system is measured at.
DEPTHS = (0, 2)


def run_e2(num_sites=6, num_flows=25, seed=23):
    rows = []
    for system in SYSTEMS:
        for depth in DEPTHS:
            config = ScenarioConfig(control_plane=system, num_sites=num_sites,
                                    seed=seed, dns_extra_levels=depth,
                                    dns_use_cache=False, miss_policy="queue")
            scenario = build_scenario(config)
            workload = WorkloadConfig(num_flows=num_flows, arrival_rate=4.0,
                                      packets_per_flow=2)
            records = run_workload(scenario, workload)
            rows.append(_measure(system, depth, scenario, records))
            scenario.teardown()
    return rows


def _mapping_ready_time(scenario, record):
    """When the forward mapping became usable at the source after this flow."""
    if record.destination is None:
        return None
    if scenario.config.control_plane == "pce":
        site = scenario.topology.site_of_eid(record.source)
        pce = scenario.control_plane.pces[site.index]
        candidates = [when for when, _src, prefix in pce.stats.push_timeline
                      if prefix.contains(record.destination)
                      and record.started_at <= when]
        return min(candidates) if candidates else None
    # Reactive systems: the itr.mapping-resolved trace after the first miss.
    for trace in scenario.sim.trace.of_kind("itr.mapping-resolved"):
        if trace.time >= record.dns_done_at and \
                trace.detail.get("eid") == str(record.destination):
            return trace.time
    return None


def _measure(system, depth, scenario, records):
    t_dns = []
    t_extra = []
    overlapped = 0
    measured = 0
    for record in records:
        if record.failed or record.dns_elapsed is None:
            continue
        ready = _mapping_ready_time(scenario, record)
        if ready is None:
            continue  # cache hit from an earlier flow: no resolution to time
        measured += 1
        t_dns.append(record.dns_elapsed)
        extra = max(0.0, ready - record.dns_done_at)
        t_extra.append(extra)
        if extra <= 1e-6:
            overlapped += 1
    dns_summary = summarize(t_dns)
    extra_summary = summarize(t_extra)
    return E2Row(system=system, dns_depth=depth, flows=measured,
                 t_dns_mean=dns_summary["mean"],
                 t_extra_mean=extra_summary["mean"],
                 t_extra_p95=extra_summary["p95"],
                 overlap_achieved=overlapped / measured if measured else 0.0)


def check_shape(rows):
    failures = []
    for row in rows:
        if row.system == "pce":
            if row.overlap_achieved < 0.99:
                failures.append(
                    f"pce overlap {row.overlap_achieved} < 1 at depth {row.dns_depth}")
            if row.t_extra_mean > 0.001:
                failures.append(f"pce t_extra {row.t_extra_mean} not ~0")
        else:
            if row.flows and row.t_extra_mean <= 0.001:
                failures.append(f"{row.system} hid its resolution unexpectedly")
    pce_rows = sorted((r for r in rows if r.system == "pce"), key=lambda r: r.dns_depth)
    if len(pce_rows) >= 2 and pce_rows[0].t_dns_mean >= pce_rows[-1].t_dns_mean:
        failures.append("deeper DNS hierarchy did not increase T_DNS")
    return failures
