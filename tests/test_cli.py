"""Tests for the command-line interface."""

import hashlib

import pytest

from repro.cli import EXPERIMENTS, build_parser, main

from cross_version_digests import REPORT_SHA256, SEED_12_REPORT_SHA256


def test_list_shows_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_no_command_lists(capsys):
    assert main([]) == 0
    assert "fig1" in capsys.readouterr().out


def test_run_fig1(capsys):
    assert main(["run", "fig1", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "step" in out
    assert "[ok]" in out
    assert "FAILED" not in out


def test_run_e6_small(capsys):
    assert main(["run", "e6", "--flows", "10"]) == 0
    out = capsys.readouterr().out
    assert "pce-precomputed" in out
    assert "shape check: ok" in out


def test_run_e8(capsys):
    assert main(["run", "e8"]) == 0
    out = capsys.readouterr().out
    assert "pce-reverse-multicast" in out


def test_report_writes_file(tmp_path):
    out = tmp_path / "report.md"
    assert main(["report", "-o", str(out)]) == 0
    text = out.read_text()
    assert "# Reproduction report" in text
    assert "## F1" in text and "## E9" in text
    assert "FAILURES" not in text
    # The default report (each experiment's own seed) is pinned whole: the
    # Fig. 1 walkthrough and every E1-E10 table, byte for byte.
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REPORT_SHA256


def test_seed_12_report_is_pinned(tmp_path):
    out = tmp_path / "report.md"
    assert main(["report", "-o", str(out), "--seed", "12"]) == 0
    text = out.read_text()
    assert "FAILURES" not in text
    assert hashlib.sha256(out.read_bytes()).hexdigest() \
        == SEED_12_REPORT_SHA256


def test_run_prints_the_report_section(capsys, monkeypatch):
    """``repro run e7`` without flags prints the report's E7 table."""
    from repro.experiments import report

    monkeypatch.setattr(report, "EXPERIMENTS", {"e7": EXPERIMENTS["e7"]})
    text, _ok = report.generate_report()
    block = text.split("```\n")[1]
    assert main(["run", "e7"]) == 0
    out = capsys.readouterr().out
    assert out.split("\n", 1)[1].startswith(block + "\n")


def test_report_seed_reaches_every_runner(tmp_path, monkeypatch):
    """``report --seed N`` seeds the E-runners too, not just Fig. 1."""
    from repro.experiments import e8_reverse_mapping, report

    seeds = []
    run_e8 = e8_reverse_mapping.run_e8

    def spy(**kwargs):
        seeds.append(kwargs.get("seed"))
        return run_e8(**kwargs)
    monkeypatch.setattr(e8_reverse_mapping, "run_e8", spy)
    monkeypatch.setattr(report, "EXPERIMENTS",
                        {name: EXPERIMENTS[name] for name in ("fig1", "e8")})
    main(["report", "-o", str(tmp_path / "seeded.md"), "--seed", "5"])
    main(["report", "-o", str(tmp_path / "default.md")])
    assert seeds == [5, None]  # None: run_e8 keeps its own default seed
    assert "## E8" in (tmp_path / "seeded.md").read_text()


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "nonsense"])


def test_parser_defaults():
    # None: each experiment keeps its own seed and sizes, the report's.
    args = build_parser().parse_args(["run", "e1"])
    assert args.seed is None
    assert args.num_sites is None
    assert args.flows is None


def test_sweep_rejects_an_oversized_topology_before_building(
        tmp_path, capsys, monkeypatch, no_world_builds):
    from repro.experiments import sweep

    monkeypatch.setitem(sweep.PRESETS, "oversized",
                        sweep.SweepGrid(num_providers=300))
    monkeypatch.chdir(tmp_path)  # the default jsonl path lands in the CWD
    assert main(["sweep", "--preset", "oversized", "--workers", "2"]) == 1
    out = capsys.readouterr().out
    assert out == "sweep error: num_providers 300 exceeds 245\n"
    assert list(tmp_path.iterdir()) == []
