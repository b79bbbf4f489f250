"""E1 — initial-packet fate during mapping resolution (claim C1).

For each control-plane/miss-policy combination, runs the same Poisson+Zipf
workload and classifies every flow's *first* data packet: sent immediately,
dropped at the ITR, queued then flushed, or carried over the control plane.
The PCE row must show zero drops and zero queueing at any cache hit ratio;
the reactive baselines degrade as their caches miss.
"""

from collections import Counter
from dataclasses import dataclass

from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.experiments.workload import WorkloadConfig, classify_first_packet, run_workload

#: The systems E1 compares, as (label, scenario overrides).
VARIANTS = (
    ("pce", dict(control_plane="pce")),
    ("alt+drop", dict(control_plane="alt", miss_policy="drop")),
    ("alt+queue", dict(control_plane="alt", miss_policy="queue")),
    ("alt+cp-data", dict(control_plane="alt", miss_policy="cp-data")),
    ("cons+drop", dict(control_plane="cons", miss_policy="drop")),
    ("nerd", dict(control_plane="nerd", miss_policy="drop")),
)


@dataclass
class E1Row:
    system: str
    cache_ttl: float
    flows: int
    hit_ratio: float
    sent_immediately: int
    dropped: int
    queued_then_sent: int
    carried_over_cp: int
    packets_lost: int
    mean_queue_delay: float

    def as_tuple(self):
        return (self.system, self.cache_ttl, self.flows, round(self.hit_ratio, 3),
                self.sent_immediately, self.dropped, self.queued_then_sent,
                self.carried_over_cp, self.packets_lost,
                round(self.mean_queue_delay, 5))


HEADERS = ("system", "cache_ttl", "flows", "hit_ratio", "sent_now", "dropped",
           "queued", "cp_data", "pkts_lost", "queue_delay")


def run_e1(num_sites=8, num_flows=40, cache_ttls=(2.0, 60.0), seed=11,
           arrival_rate=10.0, zipf_s=1.0):
    """Run the sweep; returns a list of :class:`E1Row`."""
    rows = []
    for label, overrides in VARIANTS:
        for cache_ttl in cache_ttls:
            config = ScenarioConfig(num_sites=num_sites, seed=seed,
                                    cache_ttl_override=cache_ttl,
                                    mapping_ttl=cache_ttl, **overrides)
            scenario = build_scenario(config)
            workload = WorkloadConfig(num_flows=num_flows, arrival_rate=arrival_rate,
                                      zipf_s=zipf_s)
            records = run_workload(scenario, workload)
            outcomes = Counter(classify_first_packet(r) for r in records)
            rows.append(_make_row(label, cache_ttl, scenario, records, outcomes))
    return rows


def _make_row(label, cache_ttl, scenario, records, outcomes):
    hits, total = scenario.map_cache_lookups()
    policy_stats = scenario.miss_policy.stats if scenario.miss_policy else None
    queue_delays = policy_stats.queue_delays if policy_stats else []
    return E1Row(
        system=label,
        cache_ttl=cache_ttl,
        flows=len(records),
        hit_ratio=hits / total if total else 1.0,
        sent_immediately=outcomes.get("sent-immediately", 0),
        dropped=outcomes.get("dropped", 0) + outcomes.get("stuck-in-queue", 0),
        queued_then_sent=outcomes.get("queued-then-sent", 0),
        carried_over_cp=outcomes.get("carried-over-cp", 0),
        packets_lost=sum(r.packets_lost for r in records if not r.failed),
        mean_queue_delay=(sum(queue_delays) / len(queue_delays)) if queue_delays else 0.0,
    )


def check_shape(rows):
    """The claims E1 must reproduce; returns a list of failed assertions."""
    failures = []
    by_system = {}
    for row in rows:
        by_system.setdefault(row.system, []).append(row)
    for row in by_system.get("pce", []):
        if row.sent_immediately != row.flows:
            failures.append(f"pce sent only {row.sent_immediately}/{row.flows} first "
                            f"packets immediately (ttl={row.cache_ttl})")
        if row.dropped != 0:
            failures.append(f"pce dropped {row.dropped} first packets (ttl={row.cache_ttl})")
        if row.queued_then_sent != 0:
            failures.append(f"pce queued packets (ttl={row.cache_ttl})")
        if row.packets_lost != 0:
            failures.append(f"pce lost {row.packets_lost} packets (ttl={row.cache_ttl})")
    for row in by_system.get("alt+drop", []):
        if row.dropped == 0:
            failures.append(f"alt+drop unexpectedly lossless (ttl={row.cache_ttl})")
    for row in by_system.get("alt+queue", []):
        if row.queued_then_sent == 0:
            failures.append("alt+queue never queued")
        if row.mean_queue_delay <= 0:
            failures.append("alt+queue has zero queue delay")
    for row in by_system.get("nerd", []):
        if row.dropped != 0 or row.packets_lost != 0:
            failures.append("nerd dropped packets despite pushed database")
    return failures
