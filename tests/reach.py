"""Check that every ``src/repro`` function is entered by some runner.

    PYTHONPATH=src python tests/reach.py

Installs a profiler (``sys.setprofile`` and ``threading.setprofile``)
before ``repro`` is imported, runs every runner of the repository in this
one process with one worker — ``repro report`` (default and ``--seed
12``), ``repro run fig1|e1|e9``, ``repro list``, the seven sweep presets
shrunk as :func:`cross_version_digests.shrunk_preset` shrinks them, a
``repro sweep --json --csv --jsonl`` and the ``--resume`` of its cut
copy, ``repro analyze src/repro``, the six examples, and the perf ledger's five
workloads (full size, seed 1) and layer probes — and records each
``src/repro`` code object entered, keyed ``module:qualname``.  A
profiler makes the sweep run families of one in-process, so a branched
cell is traced too; only ``_branched``, the forking call, is never
entered.

``tests/golden/reach.json`` maps each function no runner enters to why
it stays (:data:`REASONS`, or ``KEPT: <the test that needs it>``).  The
script exits 1, naming the function, if a function is newly never
entered (delete it, or list it with its reason) or a listed function now
runs or no longer exists (drop its entry).  It needs no pytest, and
importing it runs nothing (``tests/test_reach_golden.py`` checks the
golden file's entries and reasons without the runners).
"""

import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
import threading
import types

TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
GOLDEN = os.path.join(TESTS, "golden", "reach.json")
#: Why a function may stay unentered, besides ``KEPT: <test file>``.
REASONS = ("error path", "debug repr", "forked child")
#: Code objects that are not ``def`` functions: module bodies, lambdas
#: (sharing their qualname with sibling lambdas) and comprehensions (their
#: own code objects on 3.11, inlined on 3.12).
_ANONYMOUS = ("<module>", "<lambda>", "<listcomp>", "<dictcomp>", "<setcomp>",
              "<genexpr>")


def functions():
    """``{(path, qualname, first line): key}`` for every function under
    ``src/repro``; the key is ``module:qualname``, with ``#2``, ``#3``...
    on the later of same-named ones (a property's setter)."""
    found = {}
    for directory, _dirs, files in os.walk(PACKAGE):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            module = os.path.relpath(path, SRC)[:-3].replace(os.sep, ".")
            module = module.removesuffix(".__init__")
            path = os.path.realpath(path)
            with open(path, encoding="utf-8") as handle:
                pending = [compile(handle.read(), path, "exec")]
            codes = []
            while pending:
                code = pending.pop()
                pending.extend(const for const in code.co_consts
                               if isinstance(const, types.CodeType))
                if code.co_name not in _ANONYMOUS:
                    codes.append(code)
            seen = {}
            for code in sorted(codes, key=lambda code: code.co_firstlineno):
                key = f"{module}:{code.co_qualname}"
                seen[key] = seen.get(key, 0) + 1
                found[path, code.co_qualname, code.co_firstlineno] = \
                    key if seen[key] == 1 else f"{key}#{seen[key]}"
    return found


def run_runners(workdir):
    """Every runner, in this process; raises if one fails."""
    sys.path.insert(0, TESTS)
    sys.path.insert(0, os.path.join(ROOT, "benchmarks", "perf"))
    from cross_version_digests import preset_digests
    from perfledger import probes, workloads

    from repro.cli import main
    from repro.experiments import sweep

    def cli(*argv):
        status = main(list(argv))
        if status != 0:
            raise RuntimeError(f"repro {' '.join(argv)} exited {status}")

    report = os.path.join(workdir, "report.md")
    cli("report", "-o", report)
    cli("report", "--seed", "12", "-o", report)
    for experiment in ("fig1", "e1", "e9"):
        cli("run", experiment)
    cli("list")
    for name in sorted(sweep.PRESETS):
        preset_digests(name, workdir)
    jsonl = os.path.join(workdir, "smoke.cells.jsonl")
    cli("sweep", "--preset", "smoke", "--flows", "6", "--workers", "1",
        "--json", os.path.join(workdir, "smoke.json"),
        "--csv", os.path.join(workdir, "smoke.csv"), "--jsonl", jsonl)
    cut = os.path.join(workdir, "cut.cells.jsonl")
    with open(jsonl) as source, open(cut, "w") as target:
        target.writelines(source.readlines()[:2])
    cli("sweep", "--preset", "smoke", "--flows", "6", "--workers", "1",
        "--jsonl", os.path.join(workdir, "resumed.cells.jsonl"),
        "--resume", cut)
    cli("analyze", PACKAGE)
    real = sweep.run_sweep

    def serial(grid, workers=1, **kwargs):
        # An example's worker processes would be out of the trace.
        return real(grid, **kwargs)
    sweep.run_sweep = serial
    try:
        for script in sorted(os.listdir(os.path.join(ROOT, "examples"))):
            if script.endswith(".py"):
                try:
                    runpy.run_path(os.path.join(ROOT, "examples", script),
                                   run_name="__main__")
                except SystemExit as leaving:
                    if leaving.code:
                        raise RuntimeError(f"{script} exited {leaving.code}")
    finally:
        sweep.run_sweep = real
    for name in ("packet_bulk", "resolve_churn", "fluid_bulk", "reuse_sweep",
                 "world_lifecycle"):
        workloads.make_unit(name, 1)(workdir)
    for fixture in probes.PROBES.values():
        batch, _ops = fixture()
        batch()


def main():
    codes = set()

    def profile(frame, event, _arg):
        if event == "call":
            codes.add(frame.f_code)

    # Before repro is imported, so that its module bodies' functions count.
    threading.setprofile(profile)
    sys.setprofile(profile)
    with tempfile.TemporaryDirectory() as workdir, \
            contextlib.redirect_stdout(io.StringIO()):
        # Artifacts a command writes beside the working directory land here.
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            run_runners(workdir)
        finally:
            os.chdir(cwd)
            sys.setprofile(None)
            threading.setprofile(None)
    keys = functions()
    entered = {keys.get((os.path.realpath(code.co_filename), code.co_qualname,
                         code.co_firstlineno)) for code in codes}
    unentered = set(keys.values()) - entered
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    failed = False
    for key in sorted(unentered - set(golden)):
        print(f"never entered, not in {os.path.relpath(GOLDEN, ROOT)}: {key}")
        failed = True
    for key in sorted(set(golden) - unentered):
        state = "runs" if key in entered else "no longer exists"
        print(f"listed but {state}: {key}")
        failed = True
    print(f"Python {sys.version.split()[0]}: {len(keys) - len(unentered)} of "
          f"{len(keys)} src/repro functions entered, {len(unentered)} listed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
