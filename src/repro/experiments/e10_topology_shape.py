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

One sweep grid, :data:`SYSTEMS` x :data:`FAMILIES`; a row is one of its
aggregates.  The fabric columns are world constants
(:attr:`~repro.experiments.scenario.Scenario.fabric`).
"""

from repro.experiments.sweep import SweepGrid, grid_aggregates
from repro.metrics import rounded

HEADERS = ("system", "topology", "sites", "providers", "ixps", "hier",
           "flows", "failed", "mesh_delay", "hit_ratio", "ctl_msgs", "bytes")

#: The families compared: every generated one (fig1 is the flat mesh at
#: two sites).
FAMILIES = ("flat", "tiered", "caida")
#: The control planes E10 compares on each family.
SYSTEMS = ("pce", "alt")


def run_e10(num_sites=12, num_flows=30, seed=71):
    grid = SweepGrid(control_planes=SYSTEMS, topologies=FAMILIES,
                     site_counts=(num_sites,), seeds=(seed,),
                     num_flows=num_flows, arrival_rate=15.0,
                     scenario_overrides={"miss_policy": "queue"})
    rows = grid_aggregates(grid)
    rows.sort(key=lambda row: (SYSTEMS.index(row["control_plane"]),
                               FAMILIES.index(row["topology"])))
    return rows


def as_tuple(row):
    return (row["control_plane"], row["topology"], row["num_sites"],
            row["providers"], row["ixps"],
            "yes" if row["hierarchical_routing"] else "no", row["flows"],
            row["flows_failed"], f"{row['mesh_delay_mean'] * 1000:.2f} ms",
            rounded(row["cache_hit_ratio_mean"], 3), row["control_messages"],
            "ok" if row["bytes_conserved"] else "VIOLATED")


def check_shape(rows):
    failures = []
    by_key = {(row["control_plane"], row["topology"]): row for row in rows}
    for row in rows:
        name = f"{row['control_plane']}/{row['topology']}"
        flows, failed = row["flows"], row["flows_failed"]
        if flows == 0:
            failures.append(f"{name}: no flows ran")
        if not row["bytes_conserved"]:
            failures.append(f"{name}: bytes not conserved")
        if row["control_messages"] <= 0:
            failures.append(f"{name}: no control traffic")
        if flows and failed > flows // 2:
            failures.append(f"{name}: most flows failed ({failed}/{flows})")
        tiered_family = row["topology"] in ("tiered", "caida")
        if tiered_family != row["hierarchical_routing"]:
            failures.append(f"{name}: wrong routing plan kind")
        if tiered_family and row["ixps"] < 1:
            failures.append(f"{name}: no IXPs generated")
    for system in sorted({row["control_plane"] for row in rows}):
        flat = by_key.get((system, "flat"))
        for family in ("tiered", "caida"):
            shaped = by_key.get((system, family))
            if flat is None or shaped is None:
                continue
            # Internet-shaped fabrics derive a transit population well
            # beyond the flat mesh's default four providers.
            if not shaped["providers"] > flat["providers"]:
                failures.append(
                    f"{system}/{family}: transit population not larger "
                    "than the flat mesh")
    return failures
