"""E3 — TCP connection-setup latency (the paper's §1 formulas).

Plain IP:   T_DNS + 2·OWD(S,D) + OWD(D,S)          (SYN + SYN/ACK + first use)
LISP pull:  T_DNS + T_map + 2·OWD(S,D) + OWD(D,S)  (SYN lost/queued on miss)
PCE CP:     ≈ plain IP (mapping ready before the SYN leaves the site)

With the drop miss policy, T_map manifests as a ~1 s SYN retransmission
timeout — far larger than the resolution itself, which is the practical
sting of weakness W1.  With the queue policy it equals the resolution
latency.  NERD matches plain IP (nothing to resolve) at the cost E5 shows.

One grid runs every variant, one bundle each; a row is a bundle's
aggregate over the flows whose handshake finished, labelled with its
``variant`` (the system), plus ``total_mean``: DNS plus setup, what the
user waits.
"""

from repro.experiments.grid import SweepGrid
from repro.experiments.sweep import grid_aggregates
from repro.metrics import rounded

#: The reactive systems' mapping TTL: short, so caches stay cold.
COLD_CACHE_TTL = 0.5

#: The systems E3 compares, as (label, scenario overrides).
VARIANTS = (
    ("plain", {"control_plane": "plain"}),
    ("pce", {"control_plane": "pce"}),
    ("nerd", {"control_plane": "nerd"}),
    ("alt+drop", {"control_plane": "alt", "miss_policy": "drop",
                  "mapping_ttl": COLD_CACHE_TTL}),
    ("alt+queue", {"control_plane": "alt", "miss_policy": "queue",
                   "mapping_ttl": COLD_CACHE_TTL}),
    ("cons+queue", {"control_plane": "cons", "miss_policy": "queue",
                    "mapping_ttl": COLD_CACHE_TTL}),
)

HEADERS = ("system", "flows", "t_dns", "t_setup", "t_setup_p95", "syn_retx",
           "t_total")


def run_e3(num_sites=6, num_flows=30, seed=37):
    # Cold caches: every flow pays the full DNS walk and, on the reactive
    # systems, a fresh mapping resolution.
    grid = SweepGrid(
        control_planes=("pce",), site_counts=(num_sites,), seeds=(seed,),
        num_flows=num_flows, arrival_rate=2.0, mode="tcp", variants=VARIANTS,
        scenario_overrides={"dns_use_cache": False},
        workload_overrides={"grace_period": 15.0})
    by_variant = {row["variant"]: row for row in grid_aggregates(grid)}
    rows = [by_variant[label] for label, _overrides in VARIANTS]
    for row in rows:
        setup = row["setup_mean"]
        row["total_mean"] = None if setup is None else row["dns_mean"] + setup
    return rows


def as_tuple(row):
    flows = row["flows_set_up"]
    return (row["variant"], flows, rounded(row["dns_mean"], 5),
            rounded(row["setup_mean"], 5), rounded(row["setup_p95_mean"], 5),
            round(row["syn_retransmissions"] / flows if flows else 0.0, 3),
            rounded(row["total_mean"], 5))


def check_shape(rows):
    failures = []
    by_system = {}
    for row in rows:
        if row["flows_set_up"]:
            by_system[row["variant"]] = row
        else:
            failures.append(f"{row['variant']}: no connection was set up")
    plain = by_system.get("plain")
    pce = by_system.get("pce")
    alt_drop = by_system.get("alt+drop")
    alt_queue = by_system.get("alt+queue")
    if plain and pce:
        # PCE within 20% of plain-IP setup (same handshake, same paths).
        if pce["setup_mean"] > plain["setup_mean"] * 1.2 + 0.002:
            failures.append(f"pce setup {pce['setup_mean']:.4f} not ~ plain "
                            f"{plain['setup_mean']:.4f}")
        # The headline: what the user waits (DNS + setup) is plain IP's.
        if abs(pce["total_mean"] - plain["total_mean"]) >= 0.02:
            failures.append(f"pce total {pce['total_mean']:.4f} not ~ plain "
                            f"{plain['total_mean']:.4f}")
    if pce and alt_drop and not alt_drop["setup_mean"] > pce["setup_mean"] * 2:
        failures.append("alt+drop setup not substantially worse than pce")
    if alt_drop and alt_drop["syn_retransmissions"] <= 0:
        failures.append("alt+drop shows no SYN retransmissions")
    if alt_queue and pce and not alt_queue["setup_mean"] > pce["setup_mean"]:
        failures.append("alt+queue setup not worse than pce")
    nerd = by_system.get("nerd")
    if nerd and plain and \
            nerd["setup_mean"] > plain["setup_mean"] * 1.2 + 0.002:
        failures.append("nerd setup unexpectedly worse than plain")
    return failures
