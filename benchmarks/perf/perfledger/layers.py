"""Per-layer attribution of a cProfile run, measured from outside the program.

A *layer* is the first two path components of a module under ``repro/``
(``net.link``, ``sim.engine``); ``dns``, ``core`` and ``metrics`` count as
one layer each (``lisp.control`` already is one under the two-component
rule); anything outside the package is ``other``.  Self-time of C builtins
is charged to the layer of the Python function that called them, so a
layer's share is the time spent in its own code, not in its callees.
"""

import os
from collections import defaultdict

#: Packages reported as one layer regardless of the module inside them.
WHOLE_PACKAGES = ("dns", "core", "metrics")

#: cProfile's file name for C builtins.
BUILTIN = "~"
#: Columns of a pstats entry ``(primitive calls, calls, tottime, cumtime, callers)``.
NCALLS, CUMTIME = 1, 3

#: ``metric name -> (module path under repro/, function name)`` whose exact
#: call count is a boundary count.
CALL_COUNTS = {
    "net.link.send_calls": ("net/link.py", "send"),
    "net.link.post_fluid_calls": ("net/link.py", "post_fluid"),
    "net.fib.lookup_calls": ("net/fib.py", "lookup"),
    "net.packet.size_bytes_calls": ("net/packet.py", "size_bytes"),
    "net.node.is_local_calls": ("net/node.py", "is_local"),
}

#: ``metric name -> (module path, function name)`` whose cumulative time
#: over the profiled total is a phase share.
PHASE_SHARES = {
    "experiments.worldbuild.build_share": ("experiments/worldbuild.py", "build_world"),
    "experiments.worldbuild.restore_share": ("experiments/worldbuild.py", "restore_world"),
    "experiments.workload.run_share": ("experiments/workload.py", "run_workload"),
    "sim.engine.run_share": ("sim/engine.py", "run"),
}
RUN_CELL = ("experiments/sweep.py", "run_cell")


def layer_of(filename, package_root):
    """The layer a profiled *filename* belongs to (``other`` outside repro)."""
    prefix = package_root.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix):
        return "other"
    parts = filename[len(prefix):].split(os.sep)
    parts[-1] = parts[-1].removesuffix(".py")
    if parts[-1] == "__init__":
        parts.pop()
    if not parts:
        return "other"
    if parts[0] in WHOLE_PACKAGES:
        return parts[0]
    return ".".join(parts[:2])


def _function_total(stats, package_root, relpath, name, column):
    """Sum of a pstats *column* over the functions called *name* in a module.

    0 when the function is defined but was never called; None when the
    module no longer defines it (renamed or removed).
    """
    path = os.path.join(package_root, *relpath.split("/"))
    entries = [entry for (filename, _line, func), entry in stats.items()
               if func == name and filename == path]
    if entries:
        return sum(entry[column] for entry in entries)
    try:
        with open(path) as handle:
            return 0 if f"def {name}(" in handle.read() else None
    except OSError:
        return None


def attribute(stats, package_root):
    """Per-layer metrics from a ``pstats.Stats(...).stats`` mapping.

    Returns ``{metric name: number or None}``: ``<layer>.self_share`` and
    ``<layer>.calls`` for every layer seen, the boundary call counts and
    the phase shares (see :func:`_function_total` for 0 versus None).
    """
    self_time = defaultdict(float)
    calls = defaultdict(int)
    for (filename, _line, _name), (_cc, ncalls, tottime, _ct, callers) in stats.items():
        if filename == BUILTIN:
            for (caller_file, _l, _n), (_nc, _c, caller_tt, _t) in callers.items():
                self_time[layer_of(caller_file, package_root)] += caller_tt
        else:
            layer = layer_of(filename, package_root)
            self_time[layer] += tottime
            calls[layer] += ncalls
    total = sum(self_time.values())
    metrics = {}
    for layer, seconds in self_time.items():
        metrics[f"{layer}.self_share"] = seconds / total if total else 0.0
        metrics[f"{layer}.calls"] = calls[layer]
    for metric, target in CALL_COUNTS.items():
        metrics[metric] = _function_total(stats, package_root, *target, NCALLS)
    phase_seconds = {
        metric: _function_total(stats, package_root, *target, CUMTIME)
        for metric, target in PHASE_SHARES.items()}
    for metric, seconds in phase_seconds.items():
        metrics[metric] = None if seconds is None else seconds / total
    # What run_cell does besides building/restoring the world and running
    # the workload: metric collection and byte accounting.  Every build and
    # restore of a workers=1 sweep happens inside run_cell.
    run_cell = _function_total(stats, package_root, *RUN_CELL, CUMTIME)
    inside = [phase_seconds[f"experiments.{name}"] for name in
              ("worldbuild.build_share", "worldbuild.restore_share",
               "workload.run_share")]
    if run_cell is None or None in inside:
        metrics["experiments.sweep.collect_share"] = None
    else:
        metrics["experiments.sweep.collect_share"] = max(
            0.0, run_cell - sum(inside)) / total
    return metrics
