"""E4 — traffic-engineering flexibility (claim C3, weakness W3).

All flows target one multihomed site.  In plain LISP the inbound locator is
whatever static priority the site published (everything lands on one
provider) and the reverse direction is pinned to the forward ITR.  The PCE
control plane chooses the inbound locator per flow with its IRC engine, so
inbound bytes spread across providers — and, independently, the *source*
site spreads its outbound bytes, demonstrating the two one-way tunnels.

Metrics come from the links' per-flow byte accounting rather than raw
transmit counters: per-provider shares of *data-plane delivered bytes* on
the destination site's access links (inbound) and a max/mean imbalance
figure, plus the same for one source site's uplinks (outbound) — so
control-plane chatter (mapping pushes, probes, DNS transit) no longer
leaks into the balance numbers.  The access links carry a finite rate and
the workload runs with shaped pacing (mice burst, elephants pace), so each
row also reports real per-link utilization — the peak busy-window fraction
across the site's providers.  An ablation re-runs PCE with the ``primary``
IRC policy, which degenerates to the static baseline.

One grid runs every variant, one bundle each; a row is a bundle's
aggregate, its view the sweep's ``access_te`` metric.
"""

import math

from repro.experiments.sweep import SweepGrid, grid_aggregates

#: The systems E4 compares, as (label, scenario overrides).
VARIANTS = (
    ("pce+balance", dict(control_plane="pce", irc_policy="balance")),
    ("pce+primary", dict(control_plane="pce", irc_policy="primary")),
    ("alt-static", dict(control_plane="alt", miss_policy="queue")),
    ("nerd-static", dict(control_plane="nerd")),
)

#: Access-link rate used so utilization is observable (10 Mbit/s: a 1200-byte
#: packet serialises in ~1 ms, comparable to the access propagation delays).
DEFAULT_ACCESS_RATE_BPS = 10_000_000.0
#: The multihomed site every flow targets.
DEST_SITE = 0
#: Shaped pacing: mice burst, elephants pace, so utilization is real.
PACING = "shaped"

HEADERS = ("system", "flows", "in_shares", "in_imbalance", "in_util",
           "out_shares", "out_imbalance", "out_util")


def _imbalance(shares):
    """Max over mean of *shares* (1.0 when nothing was delivered)."""
    total = math.fsum(shares)
    return max(shares) / (total / len(shares)) if total else 1.0


def run_e4(num_sites=5, num_flows=40, seed=53, source_site=1,
           access_rate_bps=DEFAULT_ACCESS_RATE_BPS):
    """One row per variant: the TE view (the sweep's ``access_te`` metric)
    inbound at :data:`DEST_SITE` and outbound at *source_site*."""
    grid = SweepGrid(
        control_planes=("pce",), site_counts=(num_sites,), seeds=(seed,),
        num_flows=num_flows, arrival_rate=10.0, packets_per_flow=8,
        variants=VARIANTS,
        scenario_overrides={"access_rate_bps": access_rate_bps},
        workload_overrides={"dest_site": DEST_SITE, "payload_bytes": 1200,
                            "pacing": PACING, "elephant_threshold": 5})
    by_variant = {row["variant"]: row for row in grid_aggregates(grid)}
    rows = [by_variant[label] for label, _overrides in VARIANTS]
    return [{**row, "inbound": te["inbound"],
             "outbound": te["outbound"][source_site]}
            for row in rows for te in row["access_te"]]


def _view(view):
    """A direction's shares, imbalance and peak utilization, formatted."""
    return ("/".join(f"{share:.2f}" for share in view["shares"]),
            round(_imbalance(view["shares"]), 3), round(view["util_peak"], 3))


def as_tuple(row):
    return (row["variant"], row["flows"], *_view(row["inbound"]),
            *_view(row["outbound"]))


def check_shape(rows):
    failures = []
    inbound = {row["variant"]: row["inbound"] for row in rows}
    imbalance = {label: _imbalance(view["shares"])
                 for label, view in inbound.items()}
    balanced = imbalance.get("pce+balance")
    primary = imbalance.get("pce+primary")
    static = imbalance.get("alt-static", imbalance.get("nerd-static"))
    if balanced is not None and balanced > 1.5:
        failures.append(
            f"pce+balance inbound imbalance {balanced:.2f} too high")
    if None not in (balanced, primary) and not primary > balanced:
        failures.append("primary policy not more imbalanced than balance policy")
    if None not in (balanced, static) and not static > balanced:
        failures.append("static baseline not more imbalanced than pce+balance")
    if balanced is not None and inbound["pce+balance"]["util_peak"] <= 0.0:
        failures.append("rated access links saw no measurable utilization")
    return failures
