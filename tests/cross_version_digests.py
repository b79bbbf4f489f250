"""Check the golden sweep digests on whichever Python runs this script.

    PYTHONPATH=src python tests/cross_version_digests.py

Runs every sweep preset shrunk to a sub-second grid (the grids
``tests/test_sweep.py`` pins) and compares the sha256 of each preset's
``payload_digest`` and of its CSV bytes with
``tests/golden/sweep_digests.json``.  It needs no pytest, so it runs on an
interpreter that has only the standard library, and exits 1 if any preset
disagrees.  ``tests/test_sweep.py`` and CI's cross-Python comparison import
:func:`preset_digests` from here (through ``test_sweep``).
"""

import hashlib
import json
import os
import sys
import tempfile
from dataclasses import replace

from repro.experiments.sweep import PRESETS, payload_digest, run_sweep

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "sweep_digests.json")


def shrunk_preset(name):
    """Preset *name* cut down to a sub-second grid that keeps every axis."""
    grid = PRESETS[name]
    if name == "scale":
        grid = replace(grid, site_counts=(4, 8))
    return replace(grid, num_flows=200 if name == "megaflow"
                   else min(grid.num_flows, 12))


def preset_digests(name, workdir):
    """sha256 of one preset's :func:`payload_digest` and of its CSV bytes.

    Both pin behaviour only — ``sim_events``, what the engine spent, is in
    neither — so an engine change leaves the golden file alone (its event
    counts are pinned by ``tests/golden/perf_quick_counts.json``).
    """
    csv_path = os.path.join(workdir, f"{name}.csv")
    payload = run_sweep(shrunk_preset(name), csv_path=csv_path)
    with open(csv_path, "rb") as handle:
        csv_bytes = handle.read()
    return {"payload": hashlib.sha256(
                payload_digest(payload).encode()).hexdigest(),
            "csv": hashlib.sha256(csv_bytes).hexdigest()}


def main():
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    failed = []
    with tempfile.TemporaryDirectory() as workdir:
        for name in sorted(PRESETS):
            digests = preset_digests(name, workdir)
            verdict = "ok" if digests == golden.get(name) else "MISMATCH"
            if verdict != "ok":
                failed.append(name)
            print(f"{name:<10} {verdict:<8} payload {digests['payload'][:12]} "
                  f"csv {digests['csv'][:12]}")
    print(f"Python {sys.version.split()[0]}: "
          f"{len(PRESETS) - len(failed)}/{len(PRESETS)} presets match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
