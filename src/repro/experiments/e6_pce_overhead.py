"""E6 — the cost of the PCEs on the DNS path, and the line-rate claim.

Two questions from Step 6's "PCE_D can encapsulate the answer roughly at
line rate":

1. Do the PCEs sitting in the DNS data path slow resolution down?
   Compare plain DNS (no interception logic consuming replies) against the
   PCE deployment with precomputed mappings — the difference should be the
   envelope's transit, i.e. negligible.
2. What if the mapping were computed on demand, not known aforehand from
   the IRC engine?  The ablation adds the computation delay to every lookup.

Also reports the byte overhead of the port-P envelope versus the raw reply,
as the PCEs count it.  One grid runs every variant, one bundle each; a
row is a bundle's aggregate, labelled with its ``variant``.
"""

from repro.experiments.sweep import SweepGrid, grid_aggregates
from repro.metrics import rounded

#: Seconds the on-demand variant spends computing each mapping (what the
#: always-current IRC engine saves the precomputed one).
COMPUTATION_DELAY = 0.02

HEADERS = ("variant", "flows", "t_dns_mean", "t_dns_p95", "envelope_bytes")


#: The variants E6 compares, as (label, scenario overrides).
VARIANTS = (
    ("plain-dns", {"control_plane": "plain"}),
    ("pce-precomputed", {"control_plane": "pce", "computation_delay": 0.0}),
    ("pce-on-demand", {"control_plane": "pce",
                       "computation_delay": COMPUTATION_DELAY}),
)


def run_e6(num_sites=4, num_flows=25, seed=71):
    grid = SweepGrid(
        control_planes=("pce",), site_counts=(num_sites,), seeds=(seed,),
        num_flows=num_flows, arrival_rate=4.0, packets_per_flow=1,
        variants=VARIANTS, scenario_overrides={"dns_use_cache": False})
    by_variant = {row["variant"]: row for row in grid_aggregates(grid)}
    return [by_variant[label] for label, _overrides in VARIANTS]


def _envelope_bytes(row):
    """Mean envelope overhead per encapsulated reply (0 without any)."""
    return row["envelope_bytes"] / row["envelopes"] if row["envelopes"] else 0.0


def as_tuple(row):
    return (row["variant"], row["flows_set_up"], rounded(row["dns_mean"], 6),
            rounded(row["dns_p95_max"], 6), round(_envelope_bytes(row), 1))


def check_shape(rows):
    failures = []
    by_variant = {}
    for row in rows:
        if row["flows_set_up"]:
            by_variant[row["variant"]] = row
        else:
            failures.append(f"{row['variant']}: no flow resolved")
    plain = by_variant.get("plain-dns")
    precomputed = by_variant.get("pce-precomputed")
    on_demand = by_variant.get("pce-on-demand")
    if plain and precomputed:
        if precomputed["dns_mean"] > plain["dns_mean"] * 1.10 + 0.001:
            failures.append(
                f"precomputed PCE inflates T_DNS: {precomputed['dns_mean']:.5f} "
                f"vs plain {plain['dns_mean']:.5f}")
    if precomputed and on_demand:
        gap = on_demand["dns_mean"] - precomputed["dns_mean"]
        if gap < COMPUTATION_DELAY * 0.5:
            failures.append(
                f"on-demand variant does not pay the computation delay (gap={gap:.5f})")
    if precomputed and _envelope_bytes(precomputed) <= 0:
        failures.append("no envelope overhead measured")
    return failures
