"""E2 — hiding the mapping resolution inside the DNS resolution (claim C2).

The paper's target: ``(T_DNS + T_map) ≈ T_DNS``.  For every flow we measure

- ``t_dns``   — what the host saw (stub query to answer);
- ``t_extra`` — how long *after* the DNS answer the forward mapping became
  usable at the source site's ITRs (0 when the mapping won the race).

For the PCE control plane the mapping rides the DNS reply, so ``t_extra``
must be ~0 at every DNS-hierarchy depth; for the pull baselines the whole
resolution happens after the first packet misses, so ``t_extra`` equals the
mapping system's resolution latency and grows with overlay size.

One grid runs :data:`SYSTEMS` x one bundle per DNS depth; a row is one of
its aggregates, its flows those whose mapping was resolved after they
started (the sweep's ``mapping_wait`` metric).
"""

from repro.experiments.grid import SweepGrid
from repro.experiments.sweep import grid_aggregates
from repro.metrics import rounded

HEADERS = ("system", "dns_depth", "flows", "t_dns_mean", "t_extra_mean",
           "t_extra_p95", "overlap")

#: The control planes E2 compares.
SYSTEMS = ("pce", "alt", "cons")
#: Extra DNS-hierarchy levels below the TLD each system is measured at.
DEPTHS = (0, 2)

def run_e2(num_sites=6, num_flows=25, seed=23):
    depths = {f"depth{depth}": depth for depth in DEPTHS}
    grid = SweepGrid(
        control_planes=SYSTEMS, site_counts=(num_sites,), seeds=(seed,),
        num_flows=num_flows, arrival_rate=4.0, packets_per_flow=2,
        variants=tuple((name, {"dns_extra_levels": depth})
                       for name, depth in depths.items()),
        scenario_overrides={"dns_use_cache": False, "miss_policy": "queue"})
    # A cell where no flow waited on a resolution reads as no flows.
    rows = [{**row, "dns_depth": depths[row["variant"]],
             "wait": row["mapping_wait"][0] or {
                 "count": 0, "dns_mean": None, "mean": None, "p95": None,
                 "overlap": 0.0}}
            for row in grid_aggregates(grid)]
    rows.sort(key=lambda row: (SYSTEMS.index(row["control_plane"]),
                               row["dns_depth"]))
    return rows


def as_tuple(row):
    wait = row["wait"]
    return (row["control_plane"], row["dns_depth"], wait["count"],
            rounded(wait["dns_mean"], 5), rounded(wait["mean"], 5),
            rounded(wait["p95"], 5), round(wait["overlap"], 3))


def check_shape(rows):
    failures = []
    for row in rows:
        system, depth, wait = row["control_plane"], row["dns_depth"], row["wait"]
        if system == "pce":
            if wait["overlap"] < 0.99:
                failures.append(
                    f"pce overlap {wait['overlap']} < 1 at depth {depth}")
            if (wait["mean"] or 0.0) > 0.001:
                failures.append(f"pce t_extra {wait['mean']} not ~0")
        elif wait["count"] and wait["mean"] <= 0.001:
            failures.append(f"{system} hid its resolution unexpectedly")
    # PCE's T_DNS by depth, shallowest first (run_e2's row order).
    t_dns = [row["wait"]["dns_mean"] for row in rows
             if row["control_plane"] == "pce"]
    if len(t_dns) >= 2 and None not in t_dns and t_dns[0] >= t_dns[-1]:
        failures.append("deeper DNS hierarchy did not increase T_DNS")
    return failures
