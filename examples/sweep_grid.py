#!/usr/bin/env python
"""Parameter sweeps: fan a declarative scenario grid out over processes.

Declares a small grid — two control planes x two site counts x two seeds,
Zipf-skewed destinations — runs every cell and prints the seed-averaged
aggregates.  Each distinct world is built once and reset in place for
every further cell that runs on it.  The same machinery scales to the
built-in "scale" preset: 24 cells, four control planes, up to 120 sites.

Run:  python examples/sweep_grid.py
"""

from repro.experiments.grid import SweepGrid
from repro.experiments.sweep import payload_digest, run_sweep
from repro.metrics import format_table


def main():
    grid = SweepGrid(
        name="example",
        control_planes=("pce", "alt"),
        site_counts=(4, 12),
        seeds=(1, 2),
        zipf_values=(1.2,),
        num_flows=20,
        arrival_rate=20.0,
    )

    payload = run_sweep(grid, workers=2)
    rows = [(a["control_plane"], a["num_sites"], a["cells"], a["flows"],
             a["first_packet_drops"], a["packets_lost"],
             "-" if a["cache_hit_ratio_mean"] is None
             else f"{a['cache_hit_ratio_mean']:.3f}")
            for a in payload["aggregates"]]
    print(format_table(("system", "sites", "cells", "flows", "drops",
                        "pkts_lost", "hit_ratio"), rows,
                       title=f"sweep '{grid.name}': {payload['num_cells']} cells"))

    # Determinism is the whole point: re-running the same grid single-process
    # reproduces the multi-process aggregate byte for byte.
    replay = run_sweep(grid, workers=1)
    same = payload_digest(replay) == payload_digest(payload)
    print()
    print(f"  [{'ok' if same else 'MISMATCH'}] workers=2 and workers=1 "
          "produce identical aggregates")
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
