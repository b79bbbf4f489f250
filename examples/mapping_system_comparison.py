#!/usr/bin/env python
"""Compare the PCE control plane against ALT, CONS, NERD and plain IP.

Reproduces, at example scale, the paper's two quantitative arguments:

1. what happens to the *first packets* of a flow while the EID-to-RLOC
   mapping is being resolved (E1), and
2. what the user-visible TCP connection-setup latency looks like under
   each control plane (E3, the §1 formulas).

Run:  python examples/mapping_system_comparison.py
"""

from repro.experiments import e1_packet_loss as e1
from repro.experiments import e3_setup_latency as e3
from repro.metrics import format_table


def main():
    print("running E1 (first-packet fate)...")
    rows = e1.run_e1(num_sites=6, num_flows=30, cache_ttls=(60.0,))
    print(format_table(e1.HEADERS, [e1.as_tuple(row) for row in rows],
                       title="E1: fate of each flow's first data packet"))
    failures = e1.check_shape(rows)
    print(f"shape check: {'ok' if not failures else failures}")
    print()

    print("running E3 (connection-setup latency)...")
    rows = e3.run_e3(num_sites=6, num_flows=25)
    print(format_table(e3.HEADERS, [e3.as_tuple(row) for row in rows],
                       title="E3: TCP setup latency (seconds)"))
    failures = e3.check_shape(rows)
    print(f"shape check: {'ok' if not failures else failures}")
    print()
    total = {row["variant"]: row["total_mean"] for row in rows}
    plain, pce, alt = total["plain"], total["pce"], total["alt+drop"]
    print(f"plain IP total wait : {plain * 1000:8.1f} ms")
    print(f"PCE-based CP        : {pce * 1000:8.1f} ms "
          f"({pce / plain:.2f}x plain)")
    print(f"LISP+ALT, drop miss : {alt * 1000:8.1f} ms "
          f"({alt / plain:.1f}x plain — SYNs lost to "
          f"cache misses cost full retransmission timeouts)")


if __name__ == "__main__":
    main()
