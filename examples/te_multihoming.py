#!/usr/bin/env python
"""Traffic engineering with the PCE control plane (the paper's claim C3).

A multihomed destination site receives flows from four other sites.  With
plain LISP, every inbound packet lands on the statically-preferred locator;
with the PCE control plane, PCE_D's IRC engine picks the inbound locator
per Step-6 reply (flows reusing the pushed mapping follow it), and each
source site spreads its *outbound* packets over its providers.

The second half demonstrates the push-to-all-ITRs rationale of Step 7b:
live flows are re-homed from one egress ITR to another, and nothing drops
because every ITR already holds the mapping.

Run:  python examples/te_multihoming.py
"""

from repro.experiments import e4_te_flexibility as e4
from repro.experiments.scenario import FLOW_UDP_PORT, ScenarioConfig, build_scenario
from repro.experiments.workload import WorkloadConfig, run_workload
from repro.metrics import format_table
from repro.net.packet import udp_packet


def load_balance_demo():
    rows = e4.run_e4(num_sites=5, num_flows=40)
    print(format_table(e4.HEADERS, [e4.as_tuple(row) for row in rows],
                       title="E4: per-provider byte shares at the destination "
                             "site (inbound) and a source site (outbound)"))
    failures = e4.check_shape(rows)
    print(f"shape check: {'ok' if not failures else failures}")


def rehoming_demo():
    print("\n--- TE re-homing under push-to-all (Step 7b rationale) ---")
    config = ScenarioConfig(control_plane="pce", num_sites=4, seed=17)
    scenario = build_scenario(config)
    cp = scenario.control_plane
    sim = scenario.sim
    run_workload(scenario, WorkloadConfig(num_flows=15, arrival_rate=10.0,
                                          source_site=0))
    site = scenario.topology.sites[0]
    assignment = dict(cp.egress_assignments[site.index])
    print(f"egress assignment after workload: "
          f"{ {str(p): i for p, i in assignment.items()} }")

    # Pretend ITR0 is congested and re-home everything it carries.
    loads = [1_000_000 if b == 0 else 0 for b in range(len(site.xtrs))]
    moves = cp.rebalance_site_egress(site, loads=loads)
    print(f"TE optimizer planned {len(moves)} move(s):")
    for move in moves:
        print(f"  {move.destination_prefix}: ITR{move.from_itr} -> ITR{move.to_itr}")

    dropped_before = cp.miss_policy.stats.dropped
    host = site.hosts[0]
    for prefix in assignment:
        host.send(udp_packet(host.address, prefix.address_at(10), 5000,
                             FLOW_UDP_PORT))
    sim.run(until=sim.now + 2.0)
    dropped = cp.miss_policy.stats.dropped - dropped_before
    print(f"packets dropped after re-homing: {dropped} "
          f"(mappings were already on every ITR)")
    if dropped:
        raise SystemExit(1)


def main():
    load_balance_demo()
    rehoming_demo()


if __name__ == "__main__":
    main()
