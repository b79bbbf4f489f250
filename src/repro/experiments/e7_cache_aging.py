"""E7 — map-cache aging: "the mapping has aged out" (§1).

Sweeps the ITR cache TTL and the destination-popularity skew.  Reactive
control planes live and die by their caches: short TTLs or long-tailed
destinations mean recurring misses, and with the default drop policy every
miss costs fresh initial packets.  The PCE control plane pushes a mapping
per flow start (or refreshes from the PCE database on cached DNS answers),
so its loss stays zero across the whole sweep.

One grid runs :data:`SYSTEMS` x :data:`ZIPF_VALUES` x one bundle per
TTL; a row is one of its aggregates, labelled with its bundle's
``cache_ttl``.
"""

from repro.experiments.grid import SweepGrid
from repro.experiments.sweep import grid_aggregates
from repro.metrics import rounded

HEADERS = ("system", "cache_ttl", "zipf_s", "flows", "hit_ratio",
           "first_pkt_drops", "pkts_lost")

#: The control planes E7 compares: a reactive cache against the PCE push.
SYSTEMS = ("alt", "pce")
#: The map-cache (and mapping) TTLs, and the destination Zipf skews.
TTLS = (1.0, 10.0, 120.0)
ZIPF_VALUES = (0.0, 1.2)


def run_e7(num_sites=8, num_flows=50, seed=83):
    ttls = {f"ttl{ttl!r}": ttl for ttl in TTLS}
    grid = SweepGrid(control_planes=SYSTEMS, site_counts=(num_sites,),
                     seeds=(seed,), zipf_values=ZIPF_VALUES,
                     num_flows=num_flows, arrival_rate=5.0,
                     variants=tuple((name, {"mapping_ttl": ttl})
                                    for name, ttl in ttls.items()),
                     scenario_overrides={"miss_policy": "drop"})
    rows = [{**row, "cache_ttl": ttls[row["variant"]]}
            for row in grid_aggregates(grid)]
    rows.sort(key=lambda row: (SYSTEMS.index(row["control_plane"]),
                               row["cache_ttl"], row["zipf_s"]))
    return rows


def as_tuple(row):
    return (row["control_plane"], row["cache_ttl"], row["zipf_s"],
            row["flows"], rounded(row["cache_hit_ratio_mean"], 3),
            row["first_packet_drops"], row["packets_lost"])


def check_shape(rows):
    failures = []
    for row in rows:
        if row["control_plane"] != "pce":
            continue
        # Every flow start pushes (or refreshes) the covering mapping, so
        # no TTL may cost the PCE a packet: an expired more-specific entry
        # learned by reverse mapping falls back to the pushed prefix.
        lost, ttl = row["packets_lost"], row["cache_ttl"]
        if lost != 0:
            failures.append(f"pce lost {lost} packets at ttl={ttl}")
    alt = [row for row in rows if row["control_plane"] == "alt"]
    by_key = {(row["zipf_s"], row["cache_ttl"]): row for row in alt}
    zipfs = sorted({row["zipf_s"] for row in alt})
    ttls = sorted({row["cache_ttl"] for row in alt})
    if len(ttls) >= 2:
        for z in zipfs:
            short, long_ = by_key[(z, ttls[0])], by_key[(z, ttls[-1])]
            if not (short["cache_hit_ratio_mean"] or 0.0) \
                    <= (long_["cache_hit_ratio_mean"] or 0.0):
                failures.append(
                    f"alt hit ratio did not improve with TTL at zipf={z}")
            if not short["packets_lost"] >= long_["packets_lost"]:
                failures.append(
                    f"alt loss did not worsen with short TTL at zipf={z}")
    return failures
