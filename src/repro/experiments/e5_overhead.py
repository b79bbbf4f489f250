"""E5 — control-plane cost: messages, bytes and per-router state vs scale.

Expected shape (what :func:`check_shape` holds it to): NERD's state grows with the total number of
EID prefixes on *every* router and its push bytes dominate; ALT/CONS hold
modest overlay state but pay per-resolution message chains; the PCE control
plane's messages scale with flow arrivals (one port-P message plus one push
per ITR) and its state with *active* mappings only.
"""

from dataclasses import dataclass

from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.experiments.workload import WorkloadConfig, run_workload


@dataclass
class E5Row:
    system: str
    num_sites: int
    flows: int
    control_messages: int
    control_bytes: int
    bytes_per_flow: float
    max_state: int
    total_state: int

    def as_tuple(self):
        return (self.system, self.num_sites, self.flows, self.control_messages,
                self.control_bytes, round(self.bytes_per_flow, 1),
                self.max_state, self.total_state)


HEADERS = ("system", "sites", "flows", "ctl_msgs", "ctl_bytes", "bytes/flow",
           "max_state", "total_state")

#: The control planes E5 compares.
SYSTEMS = ("pce", "alt", "cons", "nerd")

#: Flows per site: the workload grows with the world, so per-flow cost is
#: comparable across sizes.
FLOWS_PER_SITE = 4


def run_e5(site_counts=(4, 8, 16), seed=61):
    rows = []
    for system in SYSTEMS:
        for num_sites in site_counts:
            config = ScenarioConfig(control_plane=system, num_sites=num_sites,
                                    seed=seed, miss_policy="queue")
            scenario = build_scenario(config)
            num_flows = FLOWS_PER_SITE * num_sites
            workload = WorkloadConfig(num_flows=num_flows, arrival_rate=20.0,
                                      packets_per_flow=3)
            records = run_workload(scenario, workload)
            rows.append(_measure(system, num_sites, scenario, records))
    return rows


def _state_snapshot(scenario):
    """Durable control-plane state entries per node.

    Counts what a router must *hold to operate the control plane* — overlay
    RIBs (ALT), tree pointers (CONS), the pushed database (NERD), the PCE's
    mapping database — deliberately excluding transient demand-driven
    map-cache entries, which every system accrues at the same per-flow rate.
    """
    entries = {}
    if scenario.mapping_system is not None:
        for name, count in scenario.mapping_system.state_entries_per_router().items():
            entries[name] = entries.get(name, 0) + count
    if scenario.control_plane is not None:
        for pce in scenario.control_plane.pces.values():
            entries[pce.node.name] = len(pce.mapping_db)
    return entries


def _measure(system, num_sites, scenario, records):
    messages, control_bytes = scenario.control_overhead()
    if scenario.control_plane is not None:
        for pce in scenario.control_plane.pces.values():
            control_bytes += pce.stats.replies_encapsulated * 64  # envelope overhead
    state = _state_snapshot(scenario)
    counts = list(state.values()) or [0]
    flows = len(records)
    return E5Row(system=system, num_sites=num_sites, flows=flows,
                 control_messages=messages, control_bytes=control_bytes,
                 bytes_per_flow=control_bytes / flows if flows else 0.0,
                 max_state=max(counts), total_state=sum(counts))


def check_shape(rows):
    failures = []
    by_system = {}
    for row in rows:
        by_system.setdefault(row.system, {})[row.num_sites] = row
    nerd = by_system.get("nerd", {})
    sizes = sorted(nerd)
    if len(sizes) >= 2:
        small, large = nerd[sizes[0]], nerd[sizes[-1]]
        if not large.max_state > small.max_state:
            failures.append("nerd state does not grow with sites")
        if not large.control_bytes > small.control_bytes * 2:
            failures.append("nerd push bytes do not grow superlinearly-ish")
    largest = sizes[-1] if sizes else None
    if largest is not None:
        nerd_row = nerd[largest]
        # NERD replicates the database on every xTR: its aggregate state
        # dominates every other system at scale.
        for other in ("alt", "cons", "pce"):
            other_row = by_system.get(other, {}).get(largest)
            if other_row and not nerd_row.total_state > other_row.total_state:
                failures.append(f"nerd total state not above {other} at {largest} sites")
        cons_row = by_system.get("cons", {}).get(largest)
        if cons_row and not cons_row.max_state < nerd_row.max_state:
            failures.append("cons per-router state not below nerd")
        pce_row = by_system.get("pce", {}).get(largest)
        if pce_row and nerd_row.flows and \
                not pce_row.bytes_per_flow < nerd_row.control_bytes:
            failures.append("pce per-flow bytes not below nerd's total push")
    pce = by_system.get("pce", {})
    pce_sizes = sorted(pce)
    if len(pce_sizes) >= 2:
        small, large = pce[pce_sizes[0]], pce[pce_sizes[-1]]
        # PCE overhead scales with flows, not sites: per-flow bytes ~flat.
        if large.bytes_per_flow > small.bytes_per_flow * 1.5:
            failures.append("pce bytes/flow grew with site count")
    return failures
