"""Tier-1 check of the perf-ledger harness (not of performance).

``--quick`` runs every workload at tiny sizes, once untraced and once
traced, so this proves the whole pipeline — children, profile attribution,
correctness gate, report — emits every metric ``BENCHMARK.json`` names.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from perfledger import layers, report  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_is_within_the_contract(benchmark_spec):
    assert set(benchmark_spec) == {"command", "paths", "run_seconds", "workloads",
                                   "end_to_end", "per_layer"}
    assert benchmark_spec["paths"] == ["benchmarks/perf"]
    assert 2 <= len(benchmark_spec["workloads"]) <= 8
    assert 1 <= len(benchmark_spec["end_to_end"]) <= 16
    assert 1 <= len(benchmark_spec["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in benchmark_spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in benchmark_spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert any(metric["name"] == "setup_s" and metric["unit"] == "s"
               and metric["better"] == "lower"
               for metric in benchmark_spec["end_to_end"])


def test_quick_ledger_emits_every_metric(benchmark_spec, tmp_path):
    out = tmp_path / "quick.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", "--out", str(out)],
        capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stdout + done.stderr
    summary = json.loads(out.read_text())
    assert set(summary["workloads"]) == {w["name"] for w in benchmark_spec["workloads"]}
    for name, section in summary["workloads"].items():
        assert section["failed"] == 0 and section["attempted"] > 0, name
        assert section["traced_runs"] == 1 and section["untraced_runs"] == 1
        for metric in benchmark_spec["end_to_end"]:
            assert section["end_to_end"][metric["name"]]["median"] > 0, (name, metric)
        for metric in benchmark_spec["per_layer"]:
            assert metric["name"] in section["per_layer"], (name, metric)
            # Only the probes are skipped by --quick; nothing else may be null.
            if not metric["name"].endswith("_ns"):
                assert section["per_layer"][metric["name"]] is not None, (name, metric)
            assert metric["name"] in done.stdout or metric["name"].endswith("_ns")
    packets = summary["workloads"]["packet_bulk"]["per_layer"]
    assert packets["net.link.post_fluid_calls"] == 0
    assert packets["net.link.send_calls"] > 0
    assert summary["workloads"]["fluid_bulk"]["per_layer"]["net.link.post_fluid_calls"] > 0
    assert summary["workloads"]["reuse_sweep"]["per_layer"]["experiments.worldbuild.hits"] > 0
    lifecycle = summary["workloads"]["world_lifecycle"]["per_layer"]
    assert lifecycle["experiments.worldbuild.blob_mb"] > 0
    assert lifecycle["experiments.sweep.artifact_bytes"] == 0


def test_layer_bucketing():
    root = os.path.join(os.sep, "checkout", "src", "repro")

    def layer(*parts):
        return layers.layer_of(os.path.join(root, *parts), root)

    assert layer("net", "link.py") == "net.link"
    assert layer("sim", "engine.py") == "sim.engine"
    assert layer("lisp", "control", "alt.py") == "lisp.control"
    assert layer("lisp", "control", "__init__.py") == "lisp.control"
    assert layer("dns", "resolver.py") == "dns"
    assert layer("core", "pce.py") == "core"
    assert layer("metrics", "stats.py") == "metrics"
    assert layer("net", "__init__.py") == "net"
    assert layer("cli.py") == "cli"
    assert layers.layer_of("~", root) == "other"
    assert layers.layer_of(os.path.join(os.sep, "usr", "lib", "json", "encoder.py"),
                           root) == "other"
    # A sibling whose name merely starts with the package's is not the package.
    assert layers.layer_of(root + "_extras" + os.sep + "x.py", root) == "other"


def test_attribution_charges_builtins_to_the_calling_layer():
    root = os.path.join(os.sep, "checkout", "src", "repro")
    send = (os.path.join(root, "net", "link.py"), 10, "send")
    step = (os.path.join(root, "sim", "engine.py"), 20, "step")
    append = ("~", 0, "<method 'append' of 'list' objects>")
    stats = {
        step: (1, 1, 1.0, 4.0, {}),
        send: (3, 3, 2.0, 3.0, {step: (3, 3, 2.0, 3.0)}),
        append: (5, 5, 1.0, 1.0, {send: (5, 5, 1.0, 1.0)}),
    }
    metrics = layers.attribute(stats, root)
    assert metrics["net.link.self_share"] == pytest.approx(0.75)
    assert metrics["sim.engine.self_share"] == pytest.approx(0.25)
    assert metrics["net.link.calls"] == 3
    assert metrics["net.link.send_calls"] == 3
    # No such module under this made-up root: the function counts as gone.
    assert metrics["net.fib.lookup_calls"] is None


def test_compare_verdicts():
    def runs(median, spread=0.01):
        return {"median": median, "q1": median * (1 - spread / 2),
                "q3": median * (1 + spread / 2), "min": median * (1 - spread),
                "max": median * (1 + spread), "n": 5}

    assert report.verdict(runs(1.0), runs(1.05), 0.10, "lower") == "same"
    assert report.verdict(runs(1.0), runs(1.20), 0.10, "lower") == "worse"
    assert report.verdict(runs(1.0), runs(0.80), 0.10, "lower") == "better"
    assert report.verdict(runs(1.0), runs(0.80), 0.10, "higher") == "worse"
    assert report.verdict(runs(1.0, 0.3), runs(1.05, 0.3), 0.10, "lower") == "unresolved"
    # A wide spread still resolves when no run of one side reaches the other.
    assert report.verdict(runs(1.0, 0.12), runs(2.0, 0.12), 0.10, "lower") == "worse"
