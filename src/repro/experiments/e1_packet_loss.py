"""E1 — initial-packet fate during mapping resolution (claim C1).

For each control-plane/miss-policy combination, runs the same Poisson+Zipf
workload and classifies every flow's *first* data packet: sent immediately,
dropped at the ITR, queued then flushed, or carried over the control plane.
The PCE row must show zero drops and zero queueing at any cache hit ratio;
the reactive baselines degrade as their caches miss.

One grid runs every variant at every cache TTL, one bundle each; a row
is a bundle's aggregate, labelled with its variant (``system``) and
``cache_ttl``.
"""

from repro.experiments.grid import SweepGrid
from repro.experiments.sweep import grid_aggregates
from repro.metrics import rounded

#: The systems E1 compares, as (label, scenario overrides).
VARIANTS = (
    ("pce", {"control_plane": "pce"}),
    ("alt+drop", {"control_plane": "alt", "miss_policy": "drop"}),
    ("alt+queue", {"control_plane": "alt", "miss_policy": "queue"}),
    ("alt+cp-data", {"control_plane": "alt", "miss_policy": "cp-data"}),
    ("cons+drop", {"control_plane": "cons", "miss_policy": "drop"}),
    ("nerd", {"control_plane": "nerd", "miss_policy": "drop"}),
)

#: Flow arrivals per second (Poisson), and the destination Zipf skew.
ARRIVAL_RATE = 10.0
ZIPF_S = 1.0

HEADERS = ("system", "cache_ttl", "flows", "hit_ratio", "sent_now", "dropped",
           "queued", "cp_data", "pkts_lost", "queue_delay")


def run_e1(num_sites=8, num_flows=40, cache_ttls=(2.0, 60.0), seed=11):
    """One row per variant and cache TTL (the mapping TTL too)."""
    # Bundle name -> (system, cache TTL), in row order.
    labels = {f"{label}@{ttl!r}": (label, ttl)
              for label, _overrides in VARIANTS for ttl in cache_ttls}
    overrides = dict(VARIANTS)
    grid = SweepGrid(
        control_planes=("pce",), site_counts=(num_sites,), seeds=(seed,),
        num_flows=num_flows, arrival_rate=ARRIVAL_RATE, packets_per_flow=5,
        variants=tuple((name, {**overrides[label], "mapping_ttl": ttl})
                       for name, (label, ttl) in labels.items()),
        workload_overrides={"zipf_s": ZIPF_S})
    by_variant = {row["variant"]: row for row in grid_aggregates(grid)}
    return [{**by_variant[name], "system": label, "cache_ttl": ttl}
            for name, (label, ttl) in labels.items()]


def _fates(row):
    """(sent immediately, dropped, queued then sent, carried over the CP)."""
    fates = row["first_packet_fates"]
    return (fates.get("sent-immediately", 0),
            fates.get("dropped", 0) + fates.get("stuck-in-queue", 0),
            fates.get("queued-then-sent", 0), fates.get("carried-over-cp", 0))


def as_tuple(row):
    return (row["system"], row["cache_ttl"], row["flows"],
            rounded(row["cache_hit_ratio_mean"], 3), *_fates(row),
            row["packets_lost"], round(row["queue_delay_mean"] or 0.0, 5))


def check_shape(rows):
    """The claims E1 must reproduce; returns a list of failed assertions."""
    failures = []
    for row in rows:
        system, ttl, lost = row["system"], row["cache_ttl"], row["packets_lost"]
        sent, dropped, queued, _carried = _fates(row)
        if system == "pce":
            if sent != row["flows"]:
                failures.append(f"pce sent only {sent}/{row['flows']} first "
                                f"packets immediately (ttl={ttl})")
            if dropped != 0:
                failures.append(f"pce dropped {dropped} first packets "
                                f"(ttl={ttl})")
            if queued != 0:
                failures.append(f"pce queued packets (ttl={ttl})")
            if lost != 0:
                failures.append(f"pce lost {lost} packets (ttl={ttl})")
        elif system == "alt+drop" and dropped == 0:
            failures.append(f"alt+drop unexpectedly lossless (ttl={ttl})")
        elif system == "alt+queue":
            if queued == 0:
                failures.append("alt+queue never queued")
            if not row["queue_delay_mean"]:
                failures.append("alt+queue has zero queue delay")
        elif system == "nerd" and (dropped or lost):
            failures.append("nerd dropped packets despite pushed database")
    return failures
