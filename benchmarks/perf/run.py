#!/usr/bin/env python3
"""Perf ledger of the repro simulator: five workloads, measured from outside.

    python3 benchmarks/perf/run.py                      # the full ledger
    python3 benchmarks/perf/run.py --out A.json         # ... saved for --compare
    python3 benchmarks/perf/run.py --compare A.json B.json
    python3 benchmarks/perf/run.py --quick              # tiny sizes: proves the harness
    python3 benchmarks/perf/run.py --workload packet_bulk --seed 3 \\
        --seconds 20 --trace 0                          # one driver run

See README.md beside this file for the workloads, metrics and protocol.
"""
import time

STARTED = time.perf_counter()  # set-up of a child run is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from perfledger import ledger, report  # noqa: E402

WORKLOADS = ("packet_bulk", "resolve_churn", "fluid_bulk", "reuse_sweep",
             "world_lifecycle")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="measure one workload and print the driver's "
                             "result line (default: the full ledger)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed the inputs are generated from (default 1)")
    parser.add_argument("--seconds", type=float,
                        help="with --workload: how long to keep repeating runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 end-to-end metrics, "
                             "1 per-layer metrics from cProfile-traced runs")
    parser.add_argument("--repeats", type=int, default=5,
                        help="full ledger: untraced rounds (default 5)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, one repeat, no probes")
    parser.add_argument("--out", help="full ledger: write the report as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two saved reports and exit")
    # Child modes: what the parent starts in a fresh process per run.
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--profile", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--child-warmup", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--child-probes", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload and not args.child and args.seconds is None:
        parser.error("--workload needs --seconds")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    return args


def run_compare(paths, benchmark):
    reports = []
    for path in paths:
        with open(path) as handle:
            reports.append(json.load(handle))
    rows = report.compare(*reports, benchmark)
    print(report.format_compare(rows))
    return 1 if any(row[-1] == "worse" for row in rows) else 0


def run_driver(args, benchmark):
    """One workload for ``--seconds``, ending in the driver's result line."""
    session = ledger.Session([args.workload], args.seed, quick=args.quick)
    try:
        session.warm_up()
        if args.trace:
            # Untraced reference runs first (us_per_event, the lifecycle
            # timings and the tracing overhead need them), then traced runs,
            # leaving room for the probes.
            probes_s = ledger.PROBE_SECONDS * 10
            reference_s = args.seconds * ledger.TRACED_REFERENCE_SHARE
            session.run_for(args.workload, reference_s, traced=False, minimum=1)
            session.run_for(args.workload,
                            args.seconds - reference_s - probes_s,
                            traced=True, minimum=1)
            session.run_probes()
        else:
            session.run_for(args.workload, args.seconds, traced=False,
                            minimum=ledger.MIN_TIMED_REPEATS)
    finally:
        session.clean()
    summary = ledger.summarize(session, benchmark)
    print(report.format_report(summary, benchmark))
    section = summary["workloads"][args.workload]
    print(report.driver_result(section, summary["probes"], benchmark, args.trace))
    return 0 if section["failed"] == 0 else 1


def run_ledger(args, benchmark):
    """Every workload: interleaved untraced rounds, one traced pass, probes."""
    session = ledger.Session(WORKLOADS, args.seed, quick=args.quick)
    try:
        if not args.quick:
            session.warm_up()
        session.run_rounds(1 if args.quick else args.repeats)
        session.run_rounds(1, traced=True)
        if not args.quick:
            session.run_probes()
    finally:
        session.clean()
    summary = ledger.summarize(session, benchmark)
    print(report.format_report(summary, benchmark))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=1, sort_keys=True)
            handle.write("\n")
    failed = sum(section["failed"] for section in summary["workloads"].values())
    return 0 if failed == 0 else 1


def main(argv=None):
    args = parse_args(argv)
    if args.child or args.child_warmup or args.child_probes:
        from perfledger import child
        if args.child_warmup:
            from perfledger import workloads  # noqa: F401  (the import is the job)
            print("{}")
            return 0
        if args.child_probes:
            return child.run_probes(ledger.PROBE_SECONDS)
        os.makedirs(ledger.WORKDIR, exist_ok=True)
        return child.run_child(args.workload, args.seed, args.quick,
                               args.profile, ledger.WORKDIR, STARTED)
    try:
        benchmark = ledger.load_benchmark()
        if args.compare:
            return run_compare(args.compare, benchmark)
        if args.workload:
            return run_driver(args, benchmark)
        return run_ledger(args, benchmark)
    except ledger.ChildError as error:
        print(f"perf ledger: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
