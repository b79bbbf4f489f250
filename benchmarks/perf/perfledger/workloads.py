"""The five workloads: input generation from a seed, and one timed unit each.

Everything here goes through the repository's public entry points only
(the *import surface* of the README); the program sees nothing but the
generated ``SweepGrid`` / ``ScenarioConfig`` / ``WorkloadConfig`` objects.
Importing this module imports ``repro`` from the checkout's ``src``.
"""

import hashlib
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))))
SRC = os.path.join(ROOT, "src")
PACKAGE_ROOT = os.path.join(SRC, "repro")
if not os.path.isdir(PACKAGE_ROOT):
    raise SystemExit(f"perf ledger: no simulator source at {PACKAGE_ROOT}")
sys.path.insert(0, SRC)

from repro.experiments.scenario import ScenarioConfig  # noqa: E402
from repro.experiments.sweep import SweepGrid, payload_digest, run_sweep  # noqa: E402
from repro.experiments.workload import WorkloadConfig, run_workload  # noqa: E402
from repro.experiments.worldbuild import (build_world, deserialize_world,  # noqa: E402
                                          restore_world, serialize_world)

#: Boundary counts every unit reports (0 where a workload has no such work).
COUNT_NAMES = (
    "sim.engine.events", "lisp.xtr.encapsulated", "lisp.map_cache.hit_ratio",
    "lisp.control.messages", "lisp.control.resolutions_started",
    "lisp.control.resolutions_failed", "dns.lookups", "traffic.flows.flows",
    "traffic.flows.flows_failed", "traffic.flows.packets_sent",
    "traffic.flows.fluid_bytes", "experiments.worldbuild.builds",
    "experiments.worldbuild.hits", "experiments.sweep.artifact_bytes")

_AXES = ("control_planes", "topologies", "site_counts", "seeds", "zipf_values",
         "size_dists", "pacings", "fail_fractions")


def sweep_grid(name, seed, quick=False):
    """The ``SweepGrid`` of sweep workload *name* for *seed*.

    Full sizes are a quarter of the issue's prototype (flows, or cells and
    sites for ``reuse_sweep``) so that one driver run of ``run_seconds``
    holds at least five fresh-process repeats; the shapes — which layers do
    the work — are the prototype's.  ``quick`` sizes only prove the harness.
    """
    q = quick
    if name == "packet_bulk":
        # Paced bulk UDP on rated access links: the per-packet data plane.
        return SweepGrid(
            name=name, control_planes=("pce", "alt"),
            site_counts=(6 if q else 60,), seeds=(seed, seed + 1),
            zipf_values=(1.2,), pacings=("shaped",), num_providers=8,
            num_flows=4 if q else 30, arrival_rate=60.0,
            packets_per_flow=12 if q else 60,
            scenario_overrides={"access_rate_bps": 10e6},
            workload_overrides={"payload_bytes": 1200, "pace_rate_bps": 2e6,
                                "elephant_threshold": 10.0,
                                "grace_period": 10.0})
    if name == "resolve_churn":
        # One-packet flows, uniform destinations, 1 s TTLs: every flow pays
        # DNS recursion and a mapping resolution; the only CoNS/NERD cells.
        return SweepGrid(
            name=name, control_planes=("pce", "alt", "cons", "nerd"),
            site_counts=(6 if q else 60,), seeds=(seed,), zipf_values=(0.0,),
            num_providers=8, num_flows=8 if q else 175, arrival_rate=100.0,
            packets_per_flow=1, mode="udp", mapping_ttl=1.0,
            scenario_overrides={"dns_host_ttl": 1.0, "dns_extra_levels": 2,
                                "miss_policy": "queue"})
    if name == "fluid_bulk":
        # Thousands of concurrent fluid flows on a tiny world: the fluid tier.
        return SweepGrid(
            name=name, control_planes=("pce",), site_counts=(4,),
            seeds=(seed,), zipf_values=(1.0,), pacings=("fluid",),
            num_flows=20 if q else 1000, arrival_rate=350.0,
            packets_per_flow=200 if q else 2000,
            workload_overrides={"payload_bytes": 1200, "pace_rate_bps": 2e6,
                                "fluid_threshold": 1.0,
                                "fluid_chunk_interval": 0.125,
                                "grace_period": 15.0})
    if name == "reuse_sweep":
        # Big worlds, short cells (the ``scale``-preset shape): restore,
        # O(world) metric collection and failure injection dominate.
        return SweepGrid(
            name=name, control_planes=("pce", "alt"),
            site_counts=(10 if q else 150,), seeds=(seed,),
            zipf_values=(0.0,) if q else (0.0, 1.2),
            pacings=("constant", "shaped"),
            fail_fractions=(0.0, 0.25),
            num_providers=8, num_flows=5 if q else 30, arrival_rate=30.0,
            packets_per_flow=4)
    raise ValueError(f"unknown sweep workload {name!r}")


def lifecycle_plan(seed, quick=False):
    """``(ScenarioConfig, blobbed)`` per world of ``world_lifecycle``.

    The last, largest tiered world is live-only: ``serialize_world`` hits
    the recursion limit on tiered worlds of >=500 sites (a known limit).
    """
    worlds = ((("flat", 8, "pce", True), ("flat", 8, "cons", True),
               ("tiered", 16, "alt", True), ("tiered", 24, "pce", False))
              if quick else
              (("flat", 120, "pce", True), ("flat", 60, "cons", True),
               ("tiered", 80, "alt", True), ("tiered", 200, "pce", False)))
    return [(ScenarioConfig(control_plane=plane, topology=family,
                            num_sites=sites, num_providers=8, seed=seed,
                            tracing=False), blobbed)
            for family, sites, plane, blobbed in worlds]


def cell_count(grid):
    count = 1
    for axis in _AXES:
        count *= len(getattr(grid, axis))
    return count


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_sweep_unit(grid, workdir):
    """One timed unit of a sweep workload: ``run_sweep`` with all artifacts.

    World build, restore, cell run, fold and artifact write are all inside
    the caller's timed region, as a user of ``repro sweep`` pays them.
    """
    cells = cell_count(grid)
    try:
        payload = run_sweep(grid, workers=1,
                            json_path=os.path.join(workdir, "sweep.json"),
                            csv_path=os.path.join(workdir, "sweep.csv"),
                            jsonl_path=os.path.join(workdir, "sweep.cells.jsonl"))
    except Exception as error:  # an aborted sweep fails all its cells
        return {"attempted": cells, "failed": cells, "digest": None,
                "failures": [f"run_sweep raised {error!r}"],
                "counts": dict.fromkeys(COUNT_NAMES, 0), "timings": {}}
    per_cell = [cell["metrics"] for cell in payload["cells"]]
    unconserved = [cell["cell_id"] for cell in payload["cells"]
                   if not cell["metrics"]["bytes_conserved"]]
    missing = cells - len(per_cell)

    def total(key):
        return sum(metrics[key] for metrics in per_cell)

    hit_ratios = [metrics["cache_hit_ratio"] for metrics in per_cell
                  if metrics["cache_hit_ratio"] is not None]
    counts = {
        "sim.engine.events": total("sim_events"),
        "lisp.xtr.encapsulated": total("encapsulated"),
        "lisp.map_cache.hit_ratio": (sum(hit_ratios) / len(hit_ratios)
                                     if hit_ratios else 0.0),
        "lisp.control.messages": total("control_messages"),
        "lisp.control.resolutions_started": total("resolutions_started"),
        "lisp.control.resolutions_failed": total("resolutions_failed"),
        "dns.lookups": sum(metrics["dns_latency"]["count"] for metrics in per_cell
                           if metrics["dns_latency"] is not None),
        "traffic.flows.flows": total("flows"),
        "traffic.flows.flows_failed": total("flows_failed"),
        "traffic.flows.packets_sent": total("packets_sent"),
        "traffic.flows.fluid_bytes": total("fluid_bytes"),
        "experiments.worldbuild.builds": payload["world_cache"]["builds"],
        "experiments.worldbuild.hits": payload["world_cache"]["hits"],
        "experiments.sweep.artifact_bytes": sum(
            os.path.getsize(os.path.join(workdir, entry))
            for entry in os.listdir(workdir)),
    }
    failures = [f"bytes not conserved in {cell_id}" for cell_id in unconserved]
    if missing:
        failures.append(f"{missing} cells missing from the payload")
    return {"attempted": cells, "failed": len(unconserved) + missing,
            "digest": _sha(payload_digest(payload)), "failures": failures,
            "counts": counts, "timings": {}}


def run_lifecycle_unit(plan):
    """One timed unit of ``world_lifecycle``: every worldbuild call, timed.

    Per world: build -> 10-flow workload -> restore -> (serialize ->
    deserialize) -> workload on the deserialized world -> restore ->
    workload on the restored original -> restore.  Each call is one op; a
    call that raises fails, and so does a workload whose flow records
    differ from the freshly built world's.
    """
    flows = WorkloadConfig(num_flows=10)
    timings = {"build_s": [], "serialize_s": [], "deserialize_s": [],
               "restore_ms": [], "blob_mb": []}
    state = {"attempted": 0, "failed": 0, "failures": [], "events": 0,
             "flows": 0, "flows_failed": 0, "packets_sent": 0, "builds": 0}

    def op(label, func, *args, timing=None, scale=1.0):
        state["attempted"] += 1
        start = time.perf_counter()
        try:
            result = func(*args)
        except Exception as error:
            state["failed"] += 1
            state["failures"].append(f"{label} raised {error!r}")
            return None
        if timing is not None:
            timings[timing].append((time.perf_counter() - start) * scale)
        return result

    def workload(label, world, reference=None):
        before = world.sim.processed_events
        records = op(label, run_workload, world, flows)
        if records is None:
            return None
        state["events"] += world.sim.processed_events - before
        state["flows"] += len(records)
        state["flows_failed"] += sum(1 for record in records if record.failed)
        state["packets_sent"] += sum(record.packets_sent for record in records)
        text = repr(records)
        if reference is not None and text != reference:
            state["failed"] += 1
            state["failures"].append(f"{label}: flow records differ from the "
                                     "freshly built world's")
        return text

    digests = []
    for config, blobbed in plan:
        tag = f"{config.topology}-{config.num_sites}-{config.control_plane}"
        world = op(f"build {tag}", build_world, config, timing="build_s")
        if world is None:
            continue
        state["builds"] += 1
        built = workload(f"run built {tag}", world)
        digests.append(built)
        op(f"restore {tag}", restore_world, world, timing="restore_ms", scale=1e3)
        second = world
        if blobbed:
            blob = op(f"serialize {tag}", serialize_world, world,
                      timing="serialize_s")
            if blob is not None:
                timings["blob_mb"].append(len(blob) / 2**20)
                second = op(f"deserialize {tag}", deserialize_world, blob,
                            config, timing="deserialize_s") or world
        for label, target in (("deserialized" if blobbed else "restored", second),
                              ("restored", world)):
            workload(f"run {label} {tag}", target, reference=built)
            op(f"restore {tag}", restore_world, target, timing="restore_ms",
               scale=1e3)
    counts = dict.fromkeys(COUNT_NAMES, 0)
    counts.update({
        "sim.engine.events": state["events"],
        "traffic.flows.flows": state["flows"],
        "traffic.flows.flows_failed": state["flows_failed"],
        "traffic.flows.packets_sent": state["packets_sent"],
        "experiments.worldbuild.builds": state["builds"],
    })
    return {"attempted": state["attempted"], "failed": state["failed"],
            "digest": None if None in digests else _sha("\n".join(digests)),
            "failures": state["failures"], "counts": counts,
            "timings": timings}


def make_unit(name, seed, quick=False):
    """Generate workload *name*'s inputs; returns ``unit(workdir) -> outcome``."""
    if name == "world_lifecycle":
        plan = lifecycle_plan(seed, quick)
        return lambda _workdir: run_lifecycle_unit(plan)
    grid = sweep_grid(name, seed, quick)
    return lambda workdir: run_sweep_unit(grid, workdir)
