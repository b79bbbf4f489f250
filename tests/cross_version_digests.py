"""Check the golden sweep digests and report hashes on whichever Python
runs this script.

    PYTHONPATH=src python tests/cross_version_digests.py

Runs every sweep preset shrunk to a sub-second grid (the grids
``tests/test_sweep.py`` pins) and compares the sha256 of each preset's
``payload_digest`` and of its CSV bytes with
``tests/golden/sweep_digests.json``; then regenerates ``repro report``
with each experiment's own seed and with ``--seed 12`` and compares their
sha256 with :data:`REPORT_SHA256` and :data:`SEED_12_REPORT_SHA256`.  It
needs no pytest, so it runs on an interpreter that has only the standard
library, and exits 1 if any preset or report disagrees.
``tests/test_sweep.py`` and CI's cross-Python comparison import
:func:`preset_digests` from here (through ``test_sweep``), and
``tests/test_cli.py`` the two report hashes.
"""

import hashlib
import json
import os
import sys
import tempfile
from dataclasses import replace

from repro.experiments.report import generate_report
from repro.experiments.sweep import PRESETS, payload_digest, run_sweep

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "sweep_digests.json")

#: sha256 of the default ``repro report`` (each experiment's own seed):
#: the Fig. 1 walkthrough and every E1-E10 table, byte for byte.
REPORT_SHA256 = "feaadee6014c09d0e79618fb98b4406d610349f0f9d6f706c81be7fca2e184c4"
#: ``repro report --seed 12``: a seed no runner was tuned on.  At E1's 2 s
#: TTL a PCE xTR's reverse-mapped /32 expires under the live /24 a PCE
#: pushed, and the first packet must still find the /24.
SEED_12_REPORT_SHA256 = \
    "6047f598e830d4ba69f410364dd8d2d2e6fa81b28b69988860b54fffb92326f2"
#: The pinned reports, by the ``--seed`` that makes them (None: none).
PINNED_REPORTS = {None: REPORT_SHA256, 12: SEED_12_REPORT_SHA256}


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


def report_digest(seed):
    """sha256 of ``repro report`` run with *seed* (None: each
    experiment's own), as the file ``-o`` writes."""
    text, _ok = generate_report(seed)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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
    for seed, pinned in PINNED_REPORTS.items():
        digest = report_digest(seed)
        verdict = "ok" if digest == pinned else "MISMATCH"
        if verdict != "ok":
            failed.append(f"report --seed {seed}")
        print(f"{'report' if seed is None else f'report --seed {seed}':<18} "
              f"{verdict:<8} sha256 {digest[:12]}")
    print(f"Python {sys.version.split()[0]}: "
          f"{len(PRESETS) + len(PINNED_REPORTS) - len(failed)}/"
          f"{len(PRESETS) + len(PINNED_REPORTS)} presets and reports match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
