"""Command-line interface: run any experiment and print its table.

Usage::

    python -m repro list
    python -m repro run fig1
    python -m repro run e1 --num-sites 8 --flows 40
    python -m repro run e3 --seed 5
    python -m repro run all            # every experiment, small sizes

Each experiment prints the regenerated table plus its shape-check verdict
(the same checks the benchmark harness enforces).

Parameter sweeps (``repro sweep``)
----------------------------------

``sweep`` expands a declarative grid (control plane x topology family x
site count x seed x
Zipf skew x flow-size distribution x pacing mode x RLOC-failure fraction)
into scenario/workload cells and runs them against one world cache, the
run's snapshot store: each distinct world is built exactly once and reset
in place for every further cell (``--workers N`` pre-builds the worlds,
then fans the cells out across a persistent worker pool that inherits or
deserializes them; ``--snapshot-dir`` persists the serialized worlds, so a
rerun builds nothing).  Per-cell results stream to a JSONL artifact, and
aggregated JSON/CSV artifacts are written at the end — every output path
is checked before the first world is built::

    python -m repro sweep                       # "smoke" preset, 1 worker
    python -m repro sweep --preset scale --workers 4 \\
        --json sweep.json --csv sweep.csv       # 48 cells incl. 120 sites
    python -m repro sweep --preset failover     # RLOC failures mid-workload
    python -m repro sweep --preset shaped       # size-aware traffic shaping
    python -m repro sweep --preset baselines --sites 4 16 --seeds 1 2 3 \\
        --size-dists constant pareto --pacings constant shaped
    python -m repro sweep --preset scale --workers 4 \\
        --snapshot-dir ~/.cache/repro-worlds    # rerun: zero world builds

Static analysis (``repro analyze``)
-----------------------------------

``analyze`` runs the AST-based determinism & snapshot contract checkers
(:mod:`repro.analysis`) over a source tree and exits nonzero on any
finding — the CI gate behind docs/contracts.md::

    python -m repro analyze                     # src/repro, all rules
    python -m repro analyze src/repro --rules SNAP01,DET01
    python -m repro analyze --list-rules

Presets live in :data:`repro.experiments.sweep.PRESETS`; the axis flags
(``--control-planes/--topologies/--sites/--seeds/--zipf/--size-dists/
--pacings/--fail-fractions/--flows/--mode``) override the chosen preset's
axes.  Aggregates are
deterministic: the same grid and seeds produce byte-identical JSON for any
``--workers`` value (the ``world cache:`` and ``snapshot store`` lines
report hits/restores/builds separately).  For
giant grids, ``--no-json`` keeps the run memory-flat: aggregation and CSV
writing fold over the JSONL stream and the per-cell list is never held in
memory.
"""

import argparse
import os
import sys

from repro.metrics import format_table


def _run_fig1(args):
    from repro.experiments.fig1 import run_fig1_walkthrough

    outcome = run_fig1_walkthrough(seed=args.seed)
    rows = [(label, "-" if when is None else f"{when * 1000:.3f} ms", description)
            for label, when, description in outcome["steps"]]
    print(format_table(("step", "time", "what happens"), rows,
                       title="Fig. 1 walkthrough"))
    print()
    for name, ok in outcome["checks"].items():
        print(f"  [{'ok' if ok else 'FAILED'}] {name}")
    return all(outcome["checks"].values())


def _table_runner(module_name, run_kwargs_builder):
    def runner(args):
        import importlib

        module = importlib.import_module(f"repro.experiments.{module_name}")
        rows = module.__dict__[_RUN_NAMES[module_name]](**run_kwargs_builder(args))
        print(format_table(module.HEADERS, [row.as_tuple() for row in rows]))
        failures = module.check_shape(rows)
        print()
        if failures:
            print("shape-check FAILURES:")
            for failure in failures:
                print(f"  - {failure}")
            return False
        print("shape check: ok")
        return True

    return runner


_RUN_NAMES = {
    "e1_packet_loss": "run_e1",
    "e2_overlap": "run_e2",
    "e3_setup_latency": "run_e3",
    "e4_te_flexibility": "run_e4",
    "e5_overhead": "run_e5",
    "e6_pce_overhead": "run_e6",
    "e7_cache_aging": "run_e7",
    "e8_reverse_mapping": "run_e8",
    "e9_failover": "run_e9",
    "e10_topology_shape": "run_e10",
}

EXPERIMENTS = {
    "fig1": ("Fig. 1 step walkthrough", _run_fig1),
    "e1": ("first-packet fate during resolution",
           _table_runner("e1_packet_loss",
                         lambda a: dict(num_sites=a.num_sites, num_flows=a.flows,
                                        seed=a.seed))),
    "e2": ("mapping/DNS resolution overlap",
           _table_runner("e2_overlap",
                         lambda a: dict(num_sites=min(a.num_sites, 6),
                                        num_flows=a.flows, seed=a.seed))),
    "e3": ("TCP connection-setup latency",
           _table_runner("e3_setup_latency",
                         lambda a: dict(num_sites=min(a.num_sites, 6),
                                        num_flows=a.flows, seed=a.seed))),
    "e4": ("inbound/outbound TE flexibility",
           _table_runner("e4_te_flexibility",
                         lambda a: dict(num_sites=min(a.num_sites, 6),
                                        num_flows=a.flows, seed=a.seed))),
    "e5": ("control-plane overhead vs scale",
           _table_runner("e5_overhead", lambda a: dict(seed=a.seed))),
    "e6": ("PCE interception overhead",
           _table_runner("e6_pce_overhead",
                         lambda a: dict(num_flows=a.flows, seed=a.seed))),
    "e7": ("map-cache aging",
           _table_runner("e7_cache_aging",
                         lambda a: dict(num_sites=a.num_sites, num_flows=a.flows,
                                        seed=a.seed))),
    "e8": ("reverse-mapping completion",
           _table_runner("e8_reverse_mapping", lambda a: dict(seed=a.seed))),
    "e9": ("locator failure / probing failover",
           _table_runner("e9_failover", lambda a: dict(seed=a.seed))),
    "e10": ("mapping systems vs topology shape",
            _table_runner("e10_topology_shape",
                          lambda a: dict(num_sites=a.num_sites,
                                         num_flows=a.flows, seed=a.seed))),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Advantages of a PCE-based Control Plane "
                    "for LISP' (CoNEXT 2008)")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")
    run = sub.add_parser("run", help="run an experiment")
    run.add_argument("experiment", choices=[*sorted(EXPERIMENTS), "all"])
    run.add_argument("--seed", type=int, default=11)
    run.add_argument("--num-sites", type=int, default=8)
    run.add_argument("--flows", type=int, default=30)
    report = sub.add_parser("report", help="regenerate the full report")
    report.add_argument("-o", "--output", default=None,
                        help="write markdown to this file (default: stdout)")
    report.add_argument("--seed", type=int, default=11)
    analyze = sub.add_parser(
        "analyze", help="run the determinism & snapshot contract checkers")
    from repro.analysis.cli import add_arguments as add_analyze_arguments

    add_analyze_arguments(analyze)
    sweep = sub.add_parser("sweep", help="run a scenario parameter sweep")
    sweep.add_argument("--preset", default="smoke",
                       help="grid preset (see repro.experiments.sweep.PRESETS)")
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes for cell fan-out")
    sweep.add_argument("--json", default=None, help="write full payload here")
    sweep.add_argument("--no-json", action="store_true",
                       help="never materialise the per-cell result list "
                            "(memory-flat mode for giant grids: aggregates "
                            "and CSV fold over the JSONL stream)")
    sweep.add_argument("--csv", default=None, help="write per-cell CSV here")
    sweep.add_argument("--jsonl", default=None,
                       help="stream per-cell results here (default: derived "
                            "from --json, else sweep-<preset>.cells.jsonl)")
    sweep.add_argument("--snapshot-dir", default=None,
                       help="persistent world-snapshot store: built worlds "
                            "are serialized here (content-addressed by world "
                            "key + schema version) and repeated sweeps "
                            "restore instead of rebuilding")
    sweep.add_argument("--control-planes", nargs="+", default=None)
    sweep.add_argument("--topologies", nargs="+", default=None,
                       help="topology families (fig1/flat/tiered/caida; "
                            "see repro.net.topogen)")
    sweep.add_argument("--sites", nargs="+", type=int, default=None)
    sweep.add_argument("--seeds", nargs="+", type=int, default=None)
    sweep.add_argument("--zipf", nargs="+", type=float, default=None)
    sweep.add_argument("--size-dists", nargs="+", default=None,
                       help="flow-size distributions (constant/pareto/lognormal)")
    sweep.add_argument("--pacings", nargs="+", default=None,
                       help="pacing modes (constant/shaped/fluid: shaped "
                            "bursts mice and paces elephants at the "
                            "workload's target rate, fluid also moves bulk "
                            "flows as rate chunks)")
    sweep.add_argument("--fail-fractions", nargs="+", type=float, default=None,
                       help="fractions of sites whose primary RLOC fails")
    sweep.add_argument("--flows", type=int, default=None)
    sweep.add_argument("--mode", choices=("udp", "tcp"), default=None)
    return parser


def _run_sweep_command(args):
    from dataclasses import replace

    from repro.experiments.sweep import PRESETS, run_sweep

    if args.preset not in PRESETS:
        print(f"unknown preset {args.preset!r}; available: "
              f"{', '.join(sorted(PRESETS))}")
        return 1
    grid = PRESETS[args.preset]
    if args.no_json and args.json is not None:
        print("sweep error: --no-json cannot be combined with --json")
        return 1
    overrides = {}
    if args.control_planes is not None:
        overrides["control_planes"] = tuple(args.control_planes)
    if args.topologies is not None:
        overrides["topologies"] = tuple(args.topologies)
    if args.sites is not None:
        overrides["site_counts"] = tuple(args.sites)
    if args.seeds is not None:
        overrides["seeds"] = tuple(args.seeds)
    if args.zipf is not None:
        overrides["zipf_values"] = tuple(args.zipf)
    if args.size_dists is not None:
        overrides["size_dists"] = tuple(args.size_dists)
    if args.pacings is not None:
        overrides["pacings"] = tuple(args.pacings)
    if args.fail_fractions is not None:
        overrides["fail_fractions"] = tuple(args.fail_fractions)
    if args.flows is not None:
        overrides["num_flows"] = args.flows
    if args.mode is not None:
        overrides["mode"] = args.mode
    if overrides:
        grid = replace(grid, **overrides)

    jsonl_path = args.jsonl
    if jsonl_path is None:
        if args.json is not None:
            base = args.json[:-5] if args.json.endswith(".json") else args.json
            jsonl_path = f"{base}.cells.jsonl"
        else:
            jsonl_path = f"sweep-{grid.name}.cells.jsonl"

    try:
        payload = run_sweep(
            grid, workers=max(1, args.workers), json_path=args.json,
            csv_path=args.csv, jsonl_path=jsonl_path,
            include_cells=not args.no_json,
            snapshot_dir=(None if args.snapshot_dir is None
                          else os.path.expanduser(args.snapshot_dir)))
    except ValueError as error:
        print(f"sweep error: {error}")
        return 1
    rows = [(a["control_plane"], a["topology"], a["num_sites"], a["zipf_s"],
             a["size_dist"],
             a["pacing"], f"{a['fail_fraction']:g}", a["cells"],
             a["flows"], a["first_packet_drops"], a["packets_lost"],
             "-" if a["cache_hit_ratio_mean"] is None
             else f"{a['cache_hit_ratio_mean']:.3f}",
             "-" if a["setup_p95_mean"] is None
             else f"{a['setup_p95_mean'] * 1000:.2f} ms",
             "ok" if a["bytes_conserved"] else "VIOLATED",
             f"{a['access_util_peak']:.2f}")
            for a in payload["aggregates"]]
    print(format_table(("system", "topo", "sites", "zipf", "sizes", "pacing",
                        "fail",
                        "cells", "flows", "first_pkt_drops", "pkts_lost",
                        "hit_ratio", "setup_p95", "bytes", "util"), rows,
                       title=f"sweep '{grid.name}': {payload['num_cells']} cells"))
    cache = payload["world_cache"]
    print(f"world cache: {cache['hits']} hits / {cache['restores']} restores "
          f"/ {cache['builds']} builds "
          f"({cache['misses']} misses)")
    store = cache["store"]
    kind = "persistent" if store["persistent"] else "transient"
    print(f"snapshot store ({kind}): {store['builds']} built / "
          f"{store['blob_hits']} blob hits / "
          f"{store['invalidated']} invalidated, "
          f"{store['worlds']} worlds held")
    for path, label in ((args.json, "json"), (args.csv, "csv"),
                        (jsonl_path, "jsonl")):
        if path is not None:
            print(f"{label} written to {path}")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list" or args.command is None:
        print(format_table(("experiment", "regenerates"),
                           [(name, description)
                            for name, (description, _runner) in sorted(EXPERIMENTS.items())]))
        return 0
    if args.command == "analyze":
        from repro.analysis.cli import run as run_analyze

        return run_analyze(args)
    if args.command == "sweep":
        return _run_sweep_command(args)
    if args.command == "report":
        from repro.experiments.report import generate_report

        text, ok = generate_report(seed=args.seed, out=args.output)
        if args.output is None:
            print(text)
        else:
            print(f"report written to {args.output} "
                  f"({'all shapes ok' if ok else 'SHAPE FAILURES'})")
        return 0 if ok else 1
    if args.experiment == "all":
        ok = True
        for name, (description, runner) in sorted(EXPERIMENTS.items()):
            print(f"\n=== {name}: {description} ===")
            ok = runner(args) and ok
        return 0 if ok else 1
    description, runner = EXPERIMENTS[args.experiment]
    print(f"=== {args.experiment}: {description} ===")
    return 0 if runner(args) else 1


if __name__ == "__main__":
    sys.exit(main())
