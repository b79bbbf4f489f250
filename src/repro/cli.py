"""Command-line interface: run any experiment and print its table.

Usage::

    python -m repro list
    python -m repro run fig1
    python -m repro run e1 --num-sites 8 --flows 40
    python -m repro run e3 --seed 5
    python -m repro run all            # every experiment

Each experiment prints the regenerated table plus its shape-check verdict
(the same checks ``repro report`` runs, whose default output is pinned).
Without ``--seed``/``--num-sites``/``--flows`` an experiment runs at its
own seed and sizes, so it prints its section of the report.

Parameter sweeps (``repro sweep``)
----------------------------------

``sweep`` expands a preset grid (:data:`repro.experiments.sweep.PRESETS`)
into scenario/workload cells and runs them world by world (see
:mod:`repro.experiments.sweep`).  One flag per ``AXES`` row but
``variant``, whose bundles of overrides no flag spells, plus
``GRID_FLAGS``, overrides the preset's values.  Every output path is
checked before the first world is built::

    python -m repro sweep                       # "smoke" preset, 1 worker
    python -m repro sweep --preset scale --workers 4 \\
        --json sweep.json --csv sweep.csv       # 48 cells incl. 120 sites
    python -m repro sweep --preset failover     # RLOC failures mid-workload
    python -m repro sweep --preset shaped       # size-aware traffic shaping
    python -m repro sweep --preset baselines --sites 4 16 --seeds 1 2 3 \\
        --size-dists constant pareto --pacings constant shaped

Aggregates are deterministic: the same grid and seeds produce
byte-identical JSON and CSV for any ``--workers`` value (the ``world
cache:`` line reports hits and builds, which depend on it).  A cell that
raises is left out of them and named on stderr; the rest run, and the
command exits 1.

A sweep that was cut short resumes from its per-cell JSONL: the same
command plus ``--resume`` keeps the cells that JSONL holds (a cut-off
last line is dropped), runs only the rest and writes the JSON, CSV and
JSONL one uninterrupted run would (the JSONL may be the file resumed
from).  A line that is not the grid's cell at its index, or that a grid
with other flags wrote (each line carries a digest of its grid, so
``--flows`` counts as an axis does), is refused, naming the index,
before any world is built::

    python -m repro sweep --preset scale --json s.json --resume s.cells.jsonl

Static analysis (``repro analyze``)
-----------------------------------

``analyze`` runs the AST-based determinism & snapshot contract checkers
(:mod:`repro.analysis`) over a source tree and exits nonzero on any
finding — the CI gate behind docs/contracts.md::

    python -m repro analyze                     # src/repro, all rules
    python -m repro analyze src/repro --rules SNAP01,DET01
    python -m repro analyze --list-rules
"""

import argparse
import sys
from dataclasses import replace

from repro.experiments.report import (EXPERIMENTS, generate_report,
                                      run_experiment)
from repro.experiments.sweep import (AXES, GRID_FLAGS, GROUP_AXES, PRESETS,
                                     run_sweep)
from repro.metrics import format_table


def _run_experiment(experiment, args):
    """Run one experiment, print its table and verdict; True when it holds."""
    kwargs = experiment.cli_kwargs(args) if experiment.cli_kwargs else {}
    table, checks = run_experiment(experiment, seed=args.seed, **kwargs)
    print(table)
    print()
    if experiment.id == "fig1":
        for name, ok in checks.items():
            print(f"  [{'ok' if ok else 'FAILED'}] {name}")
        return all(checks.values())
    if checks:
        print("shape-check FAILURES:")
        for failure in checks:
            print(f"  - {failure}")
        return False
    print("shape check: ok")
    return True


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Advantages of a PCE-based Control Plane "
                    "for LISP' (CoNEXT 2008)")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")
    run = sub.add_parser("run", help="run an experiment")
    run.add_argument("experiment", choices=[*sorted(EXPERIMENTS), "all"])
    # Left out, each keeps the experiment's own value: the report's.
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--num-sites", type=int, default=None)
    run.add_argument("--flows", type=int, default=None)
    report = sub.add_parser("report", help="regenerate the full report")
    report.add_argument("-o", "--output", default=None,
                        help="write markdown to this file (default: stdout)")
    report.add_argument("--seed", type=int, default=None,
                        help="seed every experiment with this (default: "
                             "each experiment's own seed)")
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
    sweep.add_argument("--csv", default=None, help="write per-cell CSV here")
    sweep.add_argument("--jsonl", default=None,
                       help="stream per-cell results here (default: derived "
                            "from --json, else sweep-<preset>.cells.jsonl)")
    sweep.add_argument("--resume", default=None, metavar="JSONL",
                       help="keep the cells this earlier run's per-cell JSONL "
                            "holds and run only the rest")
    for axis in AXES:
        if axis.flag is not None:
            sweep.add_argument(axis.flag, nargs="+", type=axis.type,
                               default=None, help=axis.help)
    for flag, _field, kwargs in GRID_FLAGS:
        sweep.add_argument(flag, default=None, **kwargs)
    return parser


def _grid_overrides(args):
    """The SweepGrid fields the given sweep flags replace in the preset."""
    def given(flag):  # by argparse's own flag -> attribute rule
        return getattr(args, flag.lstrip("-").replace("-", "_"))

    overrides = {axis.field: tuple(given(axis.flag)) for axis in AXES
                 if axis.flag is not None and given(axis.flag) is not None}
    overrides.update((field, given(flag)) for flag, field, _kwargs in GRID_FLAGS
                     if given(flag) is not None)
    return overrides


def _run_sweep_command(args):
    if args.preset not in PRESETS:
        print(f"unknown preset {args.preset!r}; available: "
              f"{', '.join(sorted(PRESETS))}")
        return 1
    grid = replace(PRESETS[args.preset], **_grid_overrides(args))

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
            resume_path=args.resume)
    except ValueError as error:
        print(f"sweep error: {error}")
        return 1
    rows = [(*(a[axis.key] if axis.show is None
               else axis.show.format(a[axis.key]) for axis in GROUP_AXES),
             a["cells"], a["flows"], a["first_packet_drops"], a["packets_lost"],
             "-" if a["cache_hit_ratio_mean"] is None
             else f"{a['cache_hit_ratio_mean']:.3f}",
             "-" if a["setup_p95_mean"] is None
             else f"{a['setup_p95_mean'] * 1000:.2f} ms",
             "ok" if a["bytes_conserved"] else "VIOLATED",
             f"{a['access_util_peak']:.2f}")
            for a in payload["aggregates"]]
    print(format_table((*(axis.label for axis in GROUP_AXES), "cells", "flows",
                        "first_pkt_drops", "pkts_lost", "hit_ratio",
                        "setup_p95", "bytes", "util"), rows,
                       title=f"sweep '{grid.name}': {payload['num_cells']} cells"))
    cache = payload["world_cache"]
    resumed = (f" ({cache['resumed']} cells resumed)" if "resumed" in cache
               else "")
    print(f"world cache: {cache['hits']} hits / {cache['builds']} builds"
          f"{resumed}")
    for path, label in ((args.json, "json"), (args.csv, "csv"),
                        (jsonl_path, "jsonl")):
        if path is not None:
            print(f"{label} written to {path}")
    errors = payload.get("errors", ())
    for error in errors:
        print(f"cell {error['cell_id']} (index {error['index']}) raised "
              f"{error['exception']}: {error['message']}", file=sys.stderr)
    return 1 if errors else 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list" or args.command is None:
        print(format_table(("experiment", "regenerates"),
                           [(name, experiment.description)
                            for name, experiment in sorted(EXPERIMENTS.items())]))
        return 0
    if args.command == "analyze":
        from repro.analysis.cli import run as run_analyze

        return run_analyze(args)
    if args.command == "sweep":
        return _run_sweep_command(args)
    if args.command == "report":
        text, ok = generate_report(seed=args.seed, out=args.output)
        if args.output is None:
            print(text)
        else:
            print(f"report written to {args.output} "
                  f"({'all shapes ok' if ok else 'SHAPE FAILURES'})")
        return 0 if ok else 1
    if args.experiment == "all":
        ok = True
        for name, experiment in sorted(EXPERIMENTS.items()):
            print(f"\n=== {name}: {experiment.description} ===")
            ok = _run_experiment(experiment, args) and ok
        return 0 if ok else 1
    experiment = EXPERIMENTS[args.experiment]
    print(f"=== {experiment.id}: {experiment.description} ===")
    return 0 if _run_experiment(experiment, args) else 1


if __name__ == "__main__":
    sys.exit(main())
