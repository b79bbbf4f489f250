#!/usr/bin/env python
"""Cache aging: why reactive LISP keeps dropping packets (paper §1).

Sweeps the ITR map-cache TTL and the destination-popularity skew for a
reactive LISP deployment (ALT, drop-on-miss) and for the PCE control
plane.  Reactive caches miss whenever a mapping "has aged out, or simply
was never requested before"; the PCE pushes a fresh mapping at every
flow start, so its loss column stays at zero.

Run:  python examples/cache_aging.py
"""

from repro.experiments import e7_cache_aging as e7
from repro.metrics import format_table


def main():
    rows = e7.run_e7(num_sites=8, num_flows=40)
    print(format_table(e7.HEADERS, [e7.as_tuple(row) for row in rows],
                       title="E7: map-cache hit ratio and packet loss vs TTL "
                             "and Zipf skew"))
    failures = e7.check_shape(rows)
    print(f"shape check: {'ok' if not failures else failures}")
    print()
    alt = [row for row in rows if row["control_plane"] == "alt"]
    worst = max(alt, key=lambda row: row["packets_lost"])
    best = min(alt, key=lambda row: row["packets_lost"])
    print(f"reactive LISP: between {best['packets_lost']} and "
          f"{worst['packets_lost']} packets lost depending on TTL/skew; hit "
          f"ratio {best['cache_hit_ratio_mean']:.0%} at best")
    pce_lost = sum(row["packets_lost"] for row in rows
                   if row["control_plane"] == "pce")
    print(f"PCE control plane: {pce_lost} packets lost across the whole sweep")


if __name__ == "__main__":
    main()
