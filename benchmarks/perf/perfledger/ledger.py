"""Run protocol: calibration spin, fresh child per run, rounds, summary.

Closed loop, one client: the parent never imports ``repro``; it spins a
fixed pure-Python calibration loop, starts one child process, waits for
its JSON line, and repeats.  Rounds interleave the workloads so a slow
spell of the host lands on all of them.
"""

import heapq
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_PY = os.path.join(HERE, "run.py")
WORKDIR = os.path.join(HERE, ".work")
BASELINE_JSON = os.path.join(HERE, "baseline.json")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: Sizes of the two halves of the calibration spin (about 0.12 s each on the
#: reference box).
SPIN_ARITHMETIC = 1_500_000
SPIN_EVENTS = 40_000
#: What one spin takes on the reference box when it is quiet.  ``wall_cal_s``
#: is a run's wall time scaled by this over the spins measured around it, so
#: on the reference box it reads like ``wall_s`` on a quiet host.
SPIN_REFERENCE_MS = 215.0
#: Calibration spread above which a report is flagged ``noisy``.
NOISY_SPREAD = 0.15
#: A child that takes longer than this has hung; the contract allows 180 s
#: for the whole command.
CHILD_TIMEOUT_S = 150
#: Seconds each layer probe samples for.
PROBE_SECONDS = 0.25
#: Fewest untraced repeats a time-bounded run makes, however slow the host.
MIN_TIMED_REPEATS = 3
#: Share of a traced, time-bounded run spent on its untraced reference runs.
TRACED_REFERENCE_SHARE = 0.35

#: Per-layer metrics timed directly around each ``world_lifecycle`` call.
LIFECYCLE_TIMINGS = {
    "experiments.worldbuild.build_s": ("build_s", sum),
    "experiments.worldbuild.serialize_s": ("serialize_s", sum),
    "experiments.worldbuild.deserialize_s": ("deserialize_s", sum),
    "experiments.worldbuild.restore_ms_p50": ("restore_ms", statistics.median),
    "experiments.worldbuild.blob_mb": ("blob_mb", sum),
}


class ChildError(RuntimeError):
    """A child process died, hung, or printed no result."""


def load_benchmark():
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


class _SpinEvent:
    __slots__ = ("when", "callbacks", "meta")

    def __init__(self, when):
        self.when = when
        self.callbacks = []
        self.meta = {}


def calibration_spin(scale=1.0):
    """Milliseconds a fixed pure-Python job takes: the host's speed right now.

    Two halves, because the host's slow spells do not hit them alike: a
    tight arithmetic loop (interpreter dispatch, no memory traffic) and a
    simulator-shaped loop (allocate small objects, push and pop a heap, fill
    a dict).  Scaling a run's wall time by the spins on either side of it
    removed about two thirds of the run-to-run spread on the reference box.
    """
    start = time.perf_counter()
    acc = 0
    for index in range(int(SPIN_ARITHMETIC * scale)):
        acc = (acc * 31 + index) & 0xFFFFFF
    heap = []
    table = {}
    state = 12345
    for index in range(int(SPIN_EVENTS * scale)):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        event = _SpinEvent(state / 1e6)
        event.meta["flow"] = state & 1023
        heapq.heappush(heap, (event.when, index, event))
        table[state & 0xFFFF] = event
    while heap:
        when, _index, event = heapq.heappop(heap)
        event.callbacks.append(when)
    return (time.perf_counter() - start) * 1e3


def _spawn(*arguments):
    """Run ``run.py`` *arguments* in a fresh process; its last line as JSON."""
    command = [sys.executable, RUN_PY, *arguments]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as error:
        raise ChildError(f"{' '.join(arguments)}: no result after "
                         f"{CHILD_TIMEOUT_S} s") from error
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildError(f"{' '.join(arguments)}: exit {done.returncode}\n"
                         f"{done.stderr.strip()}")
    return json.loads(lines[-1])


class Session:
    """The runs of one invocation: ``runs[workload][traced] -> [outcome]``."""

    def __init__(self, workloads, seed, quick=False):
        self.workloads = list(workloads)
        self.seed = seed
        self.quick = quick
        self.runs = {name: {False: [], True: []} for name in self.workloads}
        self.probes = None
        self._last_spin_ms = None
        self._spin_scale = 0.05 if quick else 1.0

    def warm_up(self):
        """One discarded import of ``repro``: compiles bytecode, fills the
        page cache, and fails fast when the simulator source is missing."""
        _spawn("--child-warmup")

    def _spin(self):
        return calibration_spin(self._spin_scale)

    def run_once(self, workload, traced=False):
        """Spin, run one child, spin again; the child's outcome.

        The spin after one child is the spin before the next, so every run
        is bracketed by two readings of the host's speed.
        """
        before_ms = self._last_spin_ms or self._spin()
        arguments = ["--child", "--workload", workload, "--seed", str(self.seed)]
        if self.quick:
            arguments.append("--quick")
        if traced:
            arguments.append("--profile")
        outcome = _spawn(*arguments)
        self._last_spin_ms = self._spin()
        outcome["calib_ms"] = (before_ms + self._last_spin_ms) / 2.0
        outcome["wall_cal_s"] = (outcome["wall_s"] * SPIN_REFERENCE_MS
                                 * self._spin_scale / outcome["calib_ms"])
        self.runs[workload][traced].append(outcome)
        return outcome

    def run_probes(self):
        self.probes = _spawn("--child-probes")

    def run_rounds(self, repeats, traced=False):
        """*repeats* interleaved rounds: round 1 of every workload, then 2, ..."""
        for _round in range(repeats):
            for workload in self.workloads:
                self.run_once(workload, traced=traced)

    def run_for(self, workload, seconds, traced, minimum):
        """Repeat *workload* until another run would overshoot *seconds*."""
        start = time.perf_counter()
        durations = []
        while True:
            begun = time.perf_counter()
            self.run_once(workload, traced=traced)
            now = time.perf_counter()
            durations.append(now - begun)
            if len(durations) < minimum:
                continue
            if now - start + statistics.median(durations) > seconds:
                return

    def clean(self):
        shutil.rmtree(WORKDIR, ignore_errors=True)


def distribution(values):
    """Median, quartiles, min, max and count of *values* (a timing's summary)."""
    values = sorted(values)
    if len(values) >= 2:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": values[0], "max": values[-1], "n": len(values)}


def _median_of(outcomes, key):
    return statistics.median(outcome[key] for outcome in outcomes)


def summarize_workload(runs, benchmark, baseline_digest):
    """One workload's section of the report, from its child outcomes.

    There is always an untraced run: traced sessions make their reference
    runs first.

    Correctness is folded in here: a run whose digest differs from the
    first untraced run's (between repeats, or traced against untraced)
    fails all of its ops.
    """
    untraced, traced = runs[False], runs[True]
    everything = untraced + traced
    reference = everything[0]["digest"]
    attempted = failed = 0
    failures = []
    for outcome in everything:
        attempted += outcome["attempted"]
        if outcome["digest"] != reference or reference is None:
            failed += outcome["attempted"]
            failures.append(f"sim_digest {outcome['digest']} differs from "
                            f"{reference} of the first run")
        else:
            failed += outcome["failed"]
        failures.extend(outcome["failures"])

    # The benchmark's bounded metrics, plus the raw wall seconds they rest on.
    timed = [*(metric["name"] for metric in benchmark["end_to_end"]), "wall_s"]
    end_to_end = {name: distribution([run[name] for run in untraced])
                  for name in timed}
    return {
        "untraced_runs": len(untraced), "traced_runs": len(traced),
        "attempted": attempted, "failed": failed,
        "fail_share": failed / attempted if attempted else 1.0,
        "failures": sorted(set(failures)),
        "sim_digest": reference,
        "sim_changed": (None if baseline_digest is None
                        else reference != baseline_digest),
        "end_to_end": end_to_end,
        "per_layer": per_layer_metrics(untraced, traced, benchmark),
    }


def per_layer_metrics(untraced, traced, benchmark):
    """Every per-layer metric of the benchmark for one workload.

    0 means not applicable on this workload (lifecycle timings on a sweep,
    artifact bytes on ``world_lifecycle``, a layer that never ran); None
    means not measured (no traced run; the probes, which the report carries
    once for all workloads) or broken (a renamed function).
    """
    names = [metric["name"] for metric in benchmark["per_layer"]]
    # Boundary counts are exact simulation outputs: identical in every run
    # with one digest, so the first run's are everyone's.
    metrics = dict(untraced[0]["counts"])
    wall_s = _median_of(untraced, "wall_s")
    if metrics["sim.engine.events"]:
        metrics["sim.engine.us_per_event"] = (
            wall_s / metrics["sim.engine.events"] * 1e6)
    metrics["harness.wall_s"] = wall_s
    metrics["harness.cpu_s"] = _median_of(untraced, "cpu_s")
    for name, (key, fold) in LIFECYCLE_TIMINGS.items():
        samples = [fold(run["timings"][key]) for run in untraced
                   if run["timings"].get(key)]
        metrics[name] = statistics.median(samples) if samples else 0
    if traced:
        measured = set(traced[0]["layers"])
        measured.update(name for name in names
                        if name.endswith((".self_share", ".calls")))
        for name in measured:
            values = [run["layers"].get(name, 0) for run in traced]
            metrics[name] = None if None in values else statistics.median(values)
        metrics["harness.trace_overhead_x"] = _median_of(traced, "wall_s") / wall_s
    spins = [run["calib_ms"] for run in untraced + traced]
    metrics["harness.calib_ms"] = statistics.median(spins)
    metrics["harness.calib_spread"] = ((max(spins) - min(spins))
                                       / statistics.median(spins))
    return {name: metrics.get(name) for name in names}


def summarize(session, benchmark):
    """The full report of *session*."""
    baseline = {}
    if not session.quick:
        with open(BASELINE_JSON) as handle:
            recorded = json.load(handle)
        if recorded["seed"] == session.seed:
            baseline = recorded["sim_digest"]
    report = {
        "schema": "repro.perfledger/v1",
        "seed": session.seed,
        "quick": session.quick,
        "workloads": {
            name: summarize_workload(session.runs[name], benchmark,
                                     baseline.get(name))
            for name in session.workloads},
        "probes": session.probes,
    }
    report["noisy"] = any(
        section["per_layer"]["harness.calib_spread"] > NOISY_SPREAD
        for section in report["workloads"].values())
    return report
