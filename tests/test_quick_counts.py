"""``tests/quick_counts.py``, CI's check of the quick ledger's exact counts,
fed ledger-shaped files made from the golden counts (no ledger runs)."""

import json
import subprocess
import sys
from pathlib import Path

import quick_counts

SCRIPT = Path(quick_counts.__file__)


def _ledger(tmp_path, counts):
    """A quick-ledger output file holding *counts* as its ``per_layer``."""
    path = tmp_path / "perf-quick.json"
    path.write_text(json.dumps({"workloads": {
        workload: {"per_layer": dict(counters)}
        for workload, counters in counts.items()}}))
    return path


def _run(path):
    return subprocess.run([sys.executable, str(SCRIPT), str(path)],
                          capture_output=True, text=True, check=False)


def _golden():
    return json.loads(Path(quick_counts.GOLDEN).read_text())


def test_the_golden_counts_pass(tmp_path):
    result = _run(_ledger(tmp_path, _golden()))
    assert result.returncode == 0, result.stdout
    assert "counts equal the golden file" in result.stdout


def test_one_changed_count_fails_naming_its_workload_and_counter(tmp_path):
    counts = _golden()
    counts["reuse_sweep"]["sim.engine.events"] += 1
    expected = counts["reuse_sweep"]["sim.engine.events"] - 1
    result = _run(_ledger(tmp_path, counts))
    assert result.returncode == 1
    assert result.stdout.splitlines() == [
        "workload counter expected got",
        f"reuse_sweep sim.engine.events {expected} {expected + 1}"]


def test_a_missing_count_fails():
    counts = _golden()
    del counts["fluid_bulk"]["net.link.post_fluid_calls"]
    ledger = {workload: {"per_layer": counters}
              for workload, counters in counts.items()}
    assert quick_counts.wrong_counts(_golden(), ledger) == [
        ("fluid_bulk", "net.link.post_fluid_calls",
         _golden()["fluid_bulk"]["net.link.post_fluid_calls"], None)]
