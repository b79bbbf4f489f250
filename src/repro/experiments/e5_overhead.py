"""E5 — control-plane cost: messages, bytes and per-router state vs scale.

Expected shape (what :func:`check_shape` holds it to): NERD's state grows with the total number of
EID prefixes on *every* router and its push bytes dominate; ALT/CONS hold
modest overlay state but pay per-resolution message chains; the PCE control
plane's messages scale with flow arrivals (one port-P message plus one push
per ITR) and its state with *active* mappings only.

One grid runs :data:`SYSTEMS` x one bundle per site count, its workload
growing with the world; a row is one system's aggregate at one size.
State is the durable control-plane state per router (the
``control_state_*`` rows of :data:`~repro.experiments.measure.METRICS`).
"""

from repro.experiments.grid import SweepGrid
from repro.experiments.sweep import grid_aggregates

HEADERS = ("system", "sites", "flows", "ctl_msgs", "ctl_bytes", "bytes/flow",
           "max_state", "total_state")

#: The control planes E5 compares, and the world sizes.
SYSTEMS = ("pce", "alt", "cons", "nerd")
SITE_COUNTS = (4, 8, 16)

#: Flows per site: the workload grows with the world, so per-flow cost is
#: comparable across sizes.
FLOWS_PER_SITE = 4


def run_e5(seed=61):
    grid = SweepGrid(
        control_planes=SYSTEMS, seeds=(seed,), arrival_rate=20.0,
        variants=tuple((f"{size}-sites", {"num_sites": size,
                                          "num_flows": FLOWS_PER_SITE * size})
                       for size in SITE_COUNTS),
        scenario_overrides={"miss_policy": "queue"})
    rows = grid_aggregates(grid)
    # System by system; the sort is stable, so sizes stay ascending.
    rows.sort(key=lambda row: SYSTEMS.index(row["control_plane"]))
    return rows


def _control_bytes(row):
    """Control bytes plus what the PCEs' Step-6 envelopes added to the
    DNS replies they carried (0 for the other systems)."""
    return row["control_bytes"] + row["envelope_bytes"]


def _bytes_per_flow(row):
    return _control_bytes(row) / row["flows"] if row["flows"] else 0.0


def as_tuple(row):
    return (row["control_plane"], row["num_sites"], row["flows"],
            row["control_messages"], _control_bytes(row),
            round(_bytes_per_flow(row), 1), row["control_state_max"],
            row["control_state_total"])


def check_shape(rows):
    failures = []
    by_system = {}
    for row in rows:
        by_system.setdefault(row["control_plane"], {})[row["num_sites"]] = row
    nerd = by_system.get("nerd", {})
    sizes = sorted(nerd)
    if len(sizes) >= 2:
        small, large = nerd[sizes[0]], nerd[sizes[-1]]
        if not large["control_state_max"] > small["control_state_max"]:
            failures.append("nerd state does not grow with sites")
        if not _control_bytes(large) > _control_bytes(small) * 2:
            failures.append("nerd push bytes do not grow superlinearly-ish")
    largest = sizes[-1] if sizes else None
    if largest is not None:
        nerd_row = nerd[largest]
        # NERD replicates the database on every xTR: its aggregate state
        # dominates every other system at scale.
        for other in ("alt", "cons", "pce"):
            other_row = by_system.get(other, {}).get(largest)
            if other_row and not nerd_row["control_state_total"] \
                    > other_row["control_state_total"]:
                failures.append(
                    f"nerd total state not above {other} at {largest} sites")
        cons_row = by_system.get("cons", {}).get(largest)
        if cons_row and not cons_row["control_state_max"] \
                < nerd_row["control_state_max"]:
            failures.append("cons per-router state not below nerd")
        pce_row = by_system.get("pce", {}).get(largest)
        if pce_row and nerd_row["flows"] and \
                not _bytes_per_flow(pce_row) < _control_bytes(nerd_row):
            failures.append("pce per-flow bytes not below nerd's total push")
    pce = by_system.get("pce", {})
    pce_sizes = sorted(pce)
    if len(pce_sizes) >= 2:
        small, large = pce[pce_sizes[0]], pce[pce_sizes[-1]]
        # PCE overhead scales with flows, not sites: per-flow bytes ~flat.
        if _bytes_per_flow(large) > _bytes_per_flow(small) * 1.5:
            failures.append("pce bytes/flow grew with site count")
    return failures
