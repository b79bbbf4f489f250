"""E8 — completing the two-way resolution via the first data packet.

The paper's closing paragraph: when the first data packet reaches the
chosen ETR it (i) delivers it, (ii) extracts the reverse mapping, and
(iii) multicasts it to the other local ETRs and the PCE database.  We
measure, per flow, the time from the ETR's decapsulation until *every*
sibling ETR holds the reverse mapping — a few intra-site hops — and compare
it against what a two-way *pull* resolution would have cost (the latency of
resolving the source's mapping through ALT from the destination side),
which is the alternative the paper explicitly avoids.

One grid runs both variants, one bundle each; each row reads its own
sweep metric (:data:`VARIANTS`).
"""

from repro.experiments.sweep import SweepGrid, grid_aggregates
from repro.metrics import rounded

HEADERS = ("variant", "samples", "completion_mean", "completion_p95")

#: Locators per site: each reverse multicast reaches two sibling ETRs.
PROVIDERS_PER_SITE = 3

#: The variants E8 compares, as (label, the metric its row reads, scenario
#: overrides): the PCE's ETR multicast against what the avoided
#: alternative costs, a full ALT pull from the destination side.
VARIANTS = (
    ("pce-reverse-multicast", "reverse_completion", {"control_plane": "pce"}),
    ("two-way-pull(alt)", "resolution_latency",
     {"control_plane": "alt", "miss_policy": "queue", "gleaning": False}),
)


def run_e8(num_sites=4, num_flows=20, seed=97):
    grid = SweepGrid(
        control_planes=("pce",), site_counts=(num_sites,), seeds=(seed,),
        num_flows=num_flows, arrival_rate=3.0, packets_per_flow=1,
        variants=tuple((label, overrides)
                       for label, _metric, overrides in VARIANTS),
        scenario_overrides={"providers_per_site": PROVIDERS_PER_SITE})
    by_variant = {row["variant"]: row for row in grid_aggregates(grid)}
    # A metric nothing measured reads as no samples.
    return [{**by_variant[label], "completion": by_variant[label][metric][0]
             or {"count": 0, "mean": None, "p95": None}}
            for label, metric, _overrides in VARIANTS]


def as_tuple(row):
    completion = row["completion"]
    return (row["variant"], completion["count"],
            rounded(completion["mean"], 6), rounded(completion["p95"], 6))


def check_shape(rows):
    failures = []
    by_variant = {row["variant"]: row["completion"] for row in rows}
    pce = by_variant.get("pce-reverse-multicast")
    pull = by_variant.get("two-way-pull(alt)")
    if pce is None or pce["count"] == 0:
        failures.append("no reverse-multicast completions observed")
        return failures
    if pce["mean"] > 0.005:
        failures.append(
            f"reverse multicast took {pce['mean']:.4f}s (expected intra-site)")
    if pull and pull["count"] and not pull["mean"] > pce["mean"] * 3:
        failures.append("two-way pull not substantially slower than ETR multicast")
    return failures
