"""E10 — mapping systems across topology shapes (flat vs tiered vs CAIDA).

The paper's comparisons all run on the Fig. 1 flat mesh; this experiment
re-asks the mapping-system questions on internet-shaped graphs (see
:mod:`repro.net.topogen`): a tier-0 default-free clique, tier-1/tier-2
transit, IXPs, and multihomed stubs, plus the CAIDA-skewed preset where a
few megaproviders attract most customers.

Expected shape: the tiered families derive a far larger transit population
than the flat mesh's four providers, route hierarchically (core-only
tables + aggregation — the plan type is part of the row), and still
deliver the workload: resolution succeeds, setup completes, and byte
accounting stays conserved on every family.  Path stretch shows up as
higher provider-to-provider delay estimates on tiered fabrics (transit
chains and IX hops) than inside a flat clique.
"""

from dataclasses import dataclass

from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.experiments.workload import WorkloadConfig, run_workload
from repro.net.routing import HierarchicalRoutingPlan


@dataclass
class E10Row:
    system: str
    topology: str
    num_sites: int
    providers: int
    ixps: int
    hierarchical: bool
    flows: int
    flows_failed: int
    mesh_delay_mean: float
    cache_hit_ratio: float
    control_messages: int
    bytes_conserved: bool

    def as_tuple(self):
        return (self.system, self.topology, self.num_sites, self.providers,
                self.ixps, "yes" if self.hierarchical else "no", self.flows,
                self.flows_failed, f"{self.mesh_delay_mean * 1000:.2f} ms",
                round(self.cache_hit_ratio, 3), self.control_messages,
                "ok" if self.bytes_conserved else "VIOLATED")


HEADERS = ("system", "topology", "sites", "providers", "ixps", "hier",
           "flows", "failed", "mesh_delay", "hit_ratio", "ctl_msgs", "bytes")

#: The families compared: every generated one (fig1 is the flat mesh at
#: two sites).
FAMILIES = ("flat", "tiered", "caida")
DEFAULT_SYSTEMS = ("pce", "alt")


def _mesh_delay_mean(topology):
    """Mean pairwise provider delay through the installed routing plan."""
    plan = topology.routing_plan()
    providers = topology.providers
    total = 0.0
    count = 0
    for i, a in enumerate(providers):
        for b in providers[i + 1:]:
            delay = plan.delay(a, b)
            if delay is not None:
                total += delay
                count += 1
    return total / count if count else 0.0


def run_e10(num_sites=12, num_flows=30, seed=71, systems=DEFAULT_SYSTEMS):
    rows = []
    for system in systems:
        for family in FAMILIES:
            config = ScenarioConfig(control_plane=system, topology=family,
                                    num_sites=num_sites, seed=seed,
                                    miss_policy="queue", tracing=False)
            scenario = build_scenario(config)
            workload = WorkloadConfig(num_flows=num_flows, arrival_rate=15.0,
                                      packets_per_flow=3, zipf_s=1.0)
            records = run_workload(scenario, workload)

            hits, lookups = scenario.map_cache_lookups()
            messages, _bytes = scenario.control_overhead()
            topology = scenario.topology
            rows.append(E10Row(
                system=system, topology=family, num_sites=num_sites,
                providers=len(topology.providers),
                ixps=len(topology.ix_routers),
                hierarchical=isinstance(topology.routing_plan(),
                                        HierarchicalRoutingPlan),
                flows=len(records),
                flows_failed=sum(1 for r in records if r.failed),
                mesh_delay_mean=_mesh_delay_mean(topology),
                cache_hit_ratio=hits / lookups if lookups else 0.0,
                control_messages=messages,
                bytes_conserved=scenario.byte_accounting()["conserved"]))
    return rows


def check_shape(rows):
    failures = []
    by_key = {(row.system, row.topology): row for row in rows}
    for row in rows:
        if row.flows == 0:
            failures.append(f"{row.system}/{row.topology}: no flows ran")
        if not row.bytes_conserved:
            failures.append(f"{row.system}/{row.topology}: bytes not conserved")
        if row.control_messages <= 0:
            failures.append(f"{row.system}/{row.topology}: no control traffic")
        if row.flows and row.flows_failed > row.flows // 2:
            failures.append(
                f"{row.system}/{row.topology}: most flows failed "
                f"({row.flows_failed}/{row.flows})")
        tiered_family = row.topology in ("tiered", "caida")
        if tiered_family != row.hierarchical:
            failures.append(
                f"{row.system}/{row.topology}: wrong routing plan kind")
        if tiered_family and row.ixps < 1:
            failures.append(f"{row.system}/{row.topology}: no IXPs generated")
    for system in sorted({row.system for row in rows}):
        flat = by_key.get((system, "flat"))
        for family in ("tiered", "caida"):
            shaped = by_key.get((system, family))
            if flat is None or shaped is None:
                continue
            # Internet-shaped fabrics derive a transit population well
            # beyond the flat mesh's default four providers.
            if not shaped.providers > flat.providers:
                failures.append(
                    f"{system}/{family}: transit population not larger "
                    "than the flat mesh")
    return failures
