"""Parameter sweeps: a grid's cells run, measured, folded and written.

:func:`run_sweep` expands a :class:`~repro.experiments.grid.SweepGrid`
into cells, runs them world by world (:mod:`repro.experiments.worldrun`),
inline or on a pool of worker processes, each through :func:`run_cell`,
and keeps every result in a list, appending each to a JSONL artifact as
it completes when asked.  At the end it sorts the list by cell index,
folds it with :func:`~repro.experiments.measure.aggregate` and writes the
CSV and JSON from it (:mod:`repro.experiments.artifacts`), so the
artifacts are byte-identical for ``workers=1`` and ``workers=N``;
:func:`payload_digest` pins their behaviour.

Usage::

    from repro.experiments.sweep import PRESETS, run_sweep
    outcome = run_sweep(PRESETS["scale"], workers=4,
                        json_path="sweep.json", csv_path="sweep.csv",
                        jsonl_path="sweep.cells.jsonl")

or from the command line: ``python -m repro sweep --preset scale --workers 4``.
"""

import json
import operator

from repro.experiments import worldrun
from repro.experiments.artifacts import (check_outputs, grid_tag, read_resumed,
                                         write_csv, write_json, write_line)
from repro.experiments.grid import SweepGrid, cell_config, expand_grid
from repro.experiments.measure import aggregate, collect_metrics
from repro.experiments.workload import finish_workload

#: Schema tag written into every JSON artifact: the shape of the payload
#: — grid description, aggregate group key and folds, per-cell rows and
#: their ``metrics`` keys — and of the CSV columns.  Bump it when a
#: consumer of the artifacts would have to change (see "Sweep artifacts"
#: in ``docs/contracts.md``); world blobs are versioned separately
#: (``SNAPSHOT_SCHEMA``, see "Versions" there).
SCHEMA = "repro.sweep/v10"


def run_cell(world, cell, prefix):
    """Finish *cell* on *world*, which has run its family's *prefix*, and
    measure it: the JSON-ready :func:`~repro.experiments.grid.cell_config`
    and :func:`~repro.experiments.measure.collect_metrics`, with no
    wall-clock value or cache outcome in it.

    :func:`~repro.experiments.worldrun.run_world` calls it as
    ``sweep.run_cell``, here because the perf ledger times metric
    collection as ``experiments/sweep.py:run_cell``.
    """
    worldrun.apply_failures(world, cell.failure, prefix.start, prefix.keys)
    records = finish_workload(world, prefix.records, prefix.end)
    return {
        "index": cell.index,
        "cell_id": cell.cell_id,
        **cell_config(cell),
        "metrics": collect_metrics(world, cell.workload, records),
    }


def run_sweep(grid, workers=1, json_path=None, csv_path=None, jsonl_path=None,
              resume_path=None):
    """Expand *grid*, run every cell, aggregate, and write artifacts.

    The cells run as :func:`~repro.experiments.worldrun.world_chunks`,
    each through :func:`~repro.experiments.worldrun.run_world`: inline
    with ``workers<=1``, else on a pool of worker processes, and the
    parent builds nothing.  Each result is kept and, with *jsonl_path*,
    written to the JSONL as it completes, tagged with its world-cache
    outcome (``miss`` for a cell whose family built its world, a rebuild
    after a raising family included; ``hit`` for the rest).  The
    returned payload carries the grid, the
    :func:`~repro.experiments.measure.aggregate` of the index-sorted
    results, the results themselves and the scheduling-dependent
    ``world_cache`` summary (excluded from :func:`payload_digest`); it is
    what lands in *json_path*, and the CSV is written from the same
    sorted list.  A cell that raised is left out; its error record is in
    ``errors`` (undigested, present only then).

    *resume_path* names the JSONL of an earlier run of this grid, cut short:
    its cells are kept (and written first to *jsonl_path*, which may be
    the same file, tagged ``resumed``), only the rest run, and the
    artifacts are those of one uninterrupted run (``world_cache`` counts
    this run's cells, and the resumed ones under ``resumed``).

    Raises ``ValueError`` — before anything is built — for an artifact
    path that is a directory or lies in a missing one, and for a
    *resume_path* that is missing or holds a line that is not this grid's
    cell at its index or was written by another grid.
    """
    check_outputs({"json": json_path, "csv": csv_path, "jsonl": jsonl_path})
    cells = expand_grid(grid)
    tag = grid_tag(grid)
    done = {} if resume_path is None else read_resumed(cells, tag, resume_path)
    pending = [cell for cell in cells if cell.index not in done]
    results = list(done.values())
    errors = []
    builds = 0
    handle = None if jsonl_path is None else open(jsonl_path, "w")
    try:
        if handle is not None:
            for result in results:
                write_line(handle, result, "resumed", tag)
        for run, built in (worldrun.completed_runs(pending, workers)
                           if pending else ()):
            builds += len(built)
            for position, result in enumerate(run):
                if "exception" in result:
                    errors.append(result)
                    continue
                results.append(result)
                if handle is not None:
                    write_line(handle, result,
                               "miss" if position in built else "hit", tag)
    finally:
        if handle is not None:
            handle.close()
    results.sort(key=operator.itemgetter("index"))
    payload = {
        "schema": SCHEMA,
        "grid": grid.describe(),
        "num_cells": len(results),
        "aggregates": aggregate(results),
        "world_cache": {"builds": builds, "hits": len(pending) - builds},
        "cells": results,
    }
    if resume_path is not None:
        payload["world_cache"]["resumed"] = len(done)
    if errors:
        payload["errors"] = sorted(errors, key=operator.itemgetter("index"))
    if csv_path is not None:
        write_csv(results, csv_path)
    if json_path is not None:
        write_json(payload, json_path)
    return payload


def grid_aggregates(grid):
    """The :func:`~repro.experiments.measure.aggregate` rows of *grid*,
    run serially; raises, naming them, if any cell raised (the paper
    experiments read only these)."""
    payload = run_sweep(grid)
    errors = payload.get("errors")
    if errors:
        raise RuntimeError("sweep cells raised: " + ", ".join(
            f"{error['cell_id']} ({error['exception']})" for error in errors))
    return payload["aggregates"]


#: Payload keys the digest leaves out, wherever they sit: what a run
#: cost rather than what it simulated.  ``world_cache`` depends on
#: scheduling; ``sim_events`` counts engine queue pops, which an engine
#: change moves without moving the simulation; ``errors`` digests tracebacks.
NON_DIGESTED_KEYS = ("world_cache", "sim_events", "errors")


def _digested(value):
    if isinstance(value, dict):
        return {key: _digested(item) for key, item in value.items()
                if key not in NON_DIGESTED_KEYS}
    if isinstance(value, list):
        return [_digested(item) for item in value]
    return value


def payload_digest(payload):
    """Canonical JSON string of *payload*'s behaviour (determinism checks
    and the golden digests diff this).

    Every :data:`NON_DIGESTED_KEYS` key is dropped at any depth: the
    digest covers exactly the simulated content, which is byte-identical
    for any worker count and any engine scheduling.
    """
    return json.dumps(_digested(payload), sort_keys=True,
                      separators=(",", ":"))


PRESETS = {
    # Tiny grid for smoke tests and CLI demos (seconds).
    "smoke": SweepGrid(
        name="smoke",
        control_planes=("pce", "alt"),
        site_counts=(3,),
        seeds=(1, 2),
        zipf_values=(1.0,),
        num_flows=12,
        arrival_rate=10.0,
    ),
    # Every control plane at moderate scale; cache-tail behaviour appears.
    "baselines": SweepGrid(
        name="baselines",
        control_planes=("pce", "alt", "cons", "nerd"),
        site_counts=(4, 8),
        seeds=(11, 12),
        zipf_values=(0.0, 1.2),
        num_flows=40,
        arrival_rate=20.0,
    ),
    # The ROADMAP's production-scale target: >=100 sites, Zipf-skewed
    # destinations, all four control planes, constant vs heavy-tailed flow
    # sizes (the pairs share worlds, exercising worker-side reuse).  TCP
    # mode with post-handshake data bursts, so the artifacts carry both
    # connection-setup latency percentiles and size-shaped data traffic.
    "scale": SweepGrid(
        name="scale",
        control_planes=("pce", "alt", "cons", "nerd"),
        site_counts=(8, 32, 120),
        seeds=(11, 12),
        zipf_values=(1.2,),
        size_dists=("constant", "pareto"),
        num_providers=8,
        num_flows=80,
        arrival_rate=40.0,
        mode="tcp",
        workload_overrides={"tcp_data_burst": True},
    ),
    # Size-aware traffic shaping: heavy-tailed flow sizes on rated access
    # links, constant vs shaped pacing sharing worlds cell-to-cell.  Shaped
    # cells burst mice back-to-back and pace elephants at 2 Mbit/s over
    # 10 Mbit/s access links, so queueing, per-flow byte conservation and
    # real link utilization all become visible in the artifacts.
    "shaped": SweepGrid(
        name="shaped",
        control_planes=("pce", "alt"),
        site_counts=(6,),
        seeds=(31, 32),
        zipf_values=(1.2,),
        size_dists=("pareto",),
        pacings=("constant", "shaped", "fluid"),
        num_flows=40,
        arrival_rate=20.0,
        packets_per_flow=6,
        scenario_overrides={"access_rate_bps": 10_000_000.0},
        workload_overrides={"pace_rate_bps": 2_000_000.0,
                            "payload_bytes": 1200},
    ),
    # The fluid tier's headline: one cell, a hundred thousand concurrent
    # bulk flows, interactive wall-clock.  Every flow goes fluid
    # (``fluid_threshold`` 1 with constant 2000-packet sizes), so the data
    # plane advances as one-second rate chunks: ~10 s of 2 Mbit/s per
    # flow, 12k arrivals/s for 10 s — peak concurrency well past 100k with
    # a dozen events per flow instead of thousands.  Access links stay
    # infinite-rate: this preset measures scale, not congestion (the
    # ``shaped`` preset covers rated-link contention).
    "megaflow": SweepGrid(
        name="megaflow",
        control_planes=("pce",),
        site_counts=(4,),
        seeds=(41,),
        zipf_values=(1.0,),
        size_dists=("constant",),
        pacings=("fluid",),
        num_flows=120_000,
        arrival_rate=12_000.0,
        packets_per_flow=2000,
        workload_overrides={"payload_bytes": 1200,
                            "pace_rate_bps": 2_000_000.0,
                            "fluid_threshold": 1.0,
                            "fluid_chunk_interval": 1.0,
                            "grace_period": 15.0},
    ),
    # Topology shape as an axis: the same mapping systems and workload on
    # the flat mesh vs tiered and CAIDA-skewed internets (hierarchical
    # routing, IXPs, multihomed stubs).  Sites and flows stay modest —
    # the point is cross-family comparison, not scale (the topology bench
    # gate covers 1k-4k-site builds).
    "tiered": SweepGrid(
        name="tiered",
        control_planes=("pce", "alt"),
        topologies=("flat", "tiered", "caida"),
        site_counts=(12,),
        seeds=(51, 52),
        zipf_values=(1.0,),
        num_flows=30,
        arrival_rate=15.0,
    ),
    # RLOC failure as a sweep axis: half the sites lose their primary
    # access link mid-workload; PCE runs with probing + backup locators so
    # failover happens, the reactive baseline blackholes (E9 at grid scale).
    "failover": SweepGrid(
        name="failover",
        control_planes=("pce", "alt"),
        site_counts=(6,),
        seeds=(21, 22),
        zipf_values=(1.0,),
        fail_fractions=(0.0, 0.5),
        fail_at=1.0,
        repair_at=3.0,
        num_flows=40,
        arrival_rate=15.0,
        packets_per_flow=6,
        scenario_overrides={"enable_probing": True, "probe_period": 0.3,
                            "probe_timeout": 0.15},
    ),
}
