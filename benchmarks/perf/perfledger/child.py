"""One measured run in a fresh process: set up, run one unit, report a JSON line.

``run.py`` records the clock on its first line and hands it in as
*started*; ``setup_s`` runs from there to the entry of the timed region
(``repro`` imports, input generation, work directory).  ``peak_rss_mb`` is
this process's own high-water mark, which is why every run is its own
process.
"""

import cProfile
import json
import pstats
import resource
import tempfile
import time


def peak_rss_mb():
    """This process's peak resident set in MB.

    ``VmHWM`` rather than ``ru_maxrss``: across ``exec`` Linux carries the
    parent's peak into the child's ``ru_maxrss``, so a small child would
    report the harness's memory instead of its own.
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_child(workload, seed, quick, profile, workdir, started):
    from perfledger import workloads  # imports repro: part of set-up

    unit = workloads.make_unit(workload, seed, quick)
    with tempfile.TemporaryDirectory(prefix=f"{workload}-", dir=workdir) as scratch:
        profiler = cProfile.Profile() if profile else None
        setup_s = time.perf_counter() - started
        cpu_start = time.process_time()
        wall_start = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        outcome = unit(scratch)
        if profiler is not None:
            profiler.disable()
        wall_s = time.perf_counter() - wall_start
        cpu_s = time.process_time() - cpu_start
    outcome.update(
        setup_s=setup_s, wall_s=wall_s, cpu_s=cpu_s,
        peak_rss_mb=peak_rss_mb(),
        layers=None)
    if profiler is not None:
        from perfledger import layers
        outcome["layers"] = layers.attribute(pstats.Stats(profiler).stats,
                                             workloads.PACKAGE_ROOT)
    print(json.dumps(outcome))
    return 0


def run_probes(seconds_each):
    from perfledger import probes, workloads  # noqa: F401  (puts src on sys.path)

    print(json.dumps(probes.run_all(seconds_each)))
    return 0
