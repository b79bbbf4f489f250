"""Perf ledger for the repro simulator: workloads, child runs, layer attribution.

Entry point is ``benchmarks/perf/run.py``; see ``benchmarks/perf/README.md``.
"""
