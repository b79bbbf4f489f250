"""E3 — TCP connection-setup latency (the paper's §1 formulas).

Plain IP:   T_DNS + 2·OWD(S,D) + OWD(D,S)          (SYN + SYN/ACK + first use)
LISP pull:  T_DNS + T_map + 2·OWD(S,D) + OWD(D,S)  (SYN lost/queued on miss)
PCE CP:     ≈ plain IP (mapping ready before the SYN leaves the site)

With the drop miss policy, T_map manifests as a ~1 s SYN retransmission
timeout — far larger than the resolution itself, which is the practical
sting of weakness W1.  With the queue policy it equals the resolution
latency.  NERD matches plain IP (nothing to resolve) at the cost E5 shows.
"""

from dataclasses import dataclass

from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.experiments.workload import WorkloadConfig, run_workload
from repro.metrics.stats import summarize

DEFAULT_VARIANTS = (
    ("plain", dict(control_plane="plain")),
    ("pce", dict(control_plane="pce")),
    ("nerd", dict(control_plane="nerd")),
    ("alt+drop", dict(control_plane="alt", miss_policy="drop")),
    ("alt+queue", dict(control_plane="alt", miss_policy="queue")),
    ("cons+queue", dict(control_plane="cons", miss_policy="queue")),
)


@dataclass
class E3Row:
    system: str
    flows: int
    dns_mean: float
    setup_mean: float
    setup_p95: float
    syn_retx_rate: float
    total_mean: float   # dns + setup: what the user waits

    def as_tuple(self):
        return (self.system, self.flows, round(self.dns_mean, 5),
                round(self.setup_mean, 5), round(self.setup_p95, 5),
                round(self.syn_retx_rate, 3), round(self.total_mean, 5))


HEADERS = ("system", "flows", "t_dns", "t_setup", "t_setup_p95", "syn_retx",
           "t_total")


def run_e3(num_sites=6, num_flows=30, seed=37, variants=DEFAULT_VARIANTS):
    rows = []
    for label, overrides in variants:
        # Cold caches: every flow pays the full DNS walk and, on the
        # reactive systems, a fresh mapping resolution.
        config = ScenarioConfig(num_sites=num_sites, seed=seed,
                                dns_use_cache=False, cache_ttl_override=0.5,
                                **overrides)
        if overrides.get("control_plane") in ("plain", "pce", "nerd"):
            config = config.variant(cache_ttl_override=None)
        scenario = build_scenario(config)
        workload = WorkloadConfig(num_flows=num_flows, arrival_rate=2.0, mode="tcp",
                                  grace_period=15.0)
        records = run_workload(scenario, workload)
        ok = [r for r in records if not r.failed and r.setup_elapsed is not None]
        setup = summarize([r.setup_elapsed for r in ok])
        dns = summarize([r.dns_elapsed for r in ok])
        retx = sum(r.syn_retransmissions for r in ok)
        rows.append(E3Row(system=label, flows=len(ok), dns_mean=dns["mean"],
                          setup_mean=setup["mean"], setup_p95=setup["p95"],
                          syn_retx_rate=retx / len(ok) if ok else 0.0,
                          total_mean=dns["mean"] + setup["mean"]))
    return rows


def check_shape(rows):
    failures = []
    by_system = {row.system: row for row in rows}
    plain = by_system.get("plain")
    pce = by_system.get("pce")
    alt_drop = by_system.get("alt+drop")
    alt_queue = by_system.get("alt+queue")
    if plain and pce:
        # PCE within 20% of plain-IP setup (same handshake, same paths).
        if pce.setup_mean > plain.setup_mean * 1.2 + 0.002:
            failures.append(
                f"pce setup {pce.setup_mean:.4f} not ~ plain {plain.setup_mean:.4f}")
        # The headline: what the user waits (DNS + setup) is plain IP's.
        if abs(pce.total_mean - plain.total_mean) >= 0.02:
            failures.append(
                f"pce total {pce.total_mean:.4f} not ~ plain {plain.total_mean:.4f}")
    if pce and alt_drop and not alt_drop.setup_mean > pce.setup_mean * 2:
        failures.append("alt+drop setup not substantially worse than pce")
    if alt_drop and alt_drop.syn_retx_rate <= 0:
        failures.append("alt+drop shows no SYN retransmissions")
    if alt_queue and pce and not alt_queue.setup_mean > pce.setup_mean:
        failures.append("alt+queue setup not worse than pce")
    nerd = by_system.get("nerd")
    if nerd and plain and nerd.setup_mean > plain.setup_mean * 1.2 + 0.002:
        failures.append("nerd setup unexpectedly worse than plain")
    return failures
