"""Tests for the ``repro analyze`` invariant-checker suite.

The fixture corpus under ``tests/analysis_fixtures/`` contains one
deliberately-bad module per rule; each rule's test asserts the *exact*
finding (rule id, file, line) so a checker that drifts — missing the bug,
or flagging a different line — fails loudly.  The clean-tree test is the
contract the CI ``analyze`` job enforces: the shipped source produces zero
findings.
"""

from pathlib import Path

import pytest

from repro.analysis import analyze_paths, load_default_rules
from repro.cli import main as repro_main

FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"
SRC_TREE = Path(__file__).resolve().parent.parent / "src" / "repro"


def analyze_main(argv):
    return repro_main(["analyze", *argv])


def findings_for(name, rules=None):
    return analyze_paths([str(FIXTURES / name)], rules=rules)


def locations(findings):
    return [(finding.rule_id, finding.line) for finding in findings]


# --------------------------------------------------------------------- #
# One exact-finding test per rule
# --------------------------------------------------------------------- #

def test_snap01_flags_uncaptured_init_attribute():
    findings = findings_for("bad_snap01.py")
    assert locations(findings) == [("SNAP01", 12)]
    (finding,) = findings
    assert "self.dropped" in finding.message or "dropped" in finding.message
    assert "LeakyCounter" in finding.message
    assert "_SNAPSHOT_EXEMPT" in finding.hint


def test_snap01_leaves_the_journal_slot_to_the_mixin():
    findings = findings_for("snap01_journal_slot.py", rules=["SNAP01"])
    assert locations(findings) == [("SNAP01", 26)]
    assert "OwnJournal" in findings[0].message


def test_snap01_flags_an_exemption_no_init_assigns():
    findings = findings_for("stale_snap01_exempt.py", rules=["SNAP01"])
    assert locations(findings) == [("SNAP01", 12)]
    (finding,) = findings
    assert "Deployment._SNAPSHOT_EXEMPT" in finding.message
    assert "'dns_system'" in finding.message
    # "sim" is the in-module base's and "topology" the class's own: both
    # name an attribute, so neither is reported.
    assert "'sim'" not in finding.message


def test_snap03_flags_writes_that_precede_the_touch():
    findings = findings_for("bad_snap03.py", rules=["SNAP03"])
    # Nothing in TouchesFirst (lines 4-33): touch, guarded touch, pragma,
    # exempt attribute and restore_state all pass.
    assert locations(findings) == [
        ("SNAP03", 44),   # count += 1, then _touch()
        ("SNAP03", 48),   # seen.append, never touched
        ("SNAP03", 52),   # table[key] = ..., never touched
        ("SNAP03", 55),   # del table[key], never touched
    ]
    assert "ForgetsToTouch.bump writes self.count before" in findings[0].message
    assert "ForgetsToTouch.remember writes self.seen without" in findings[1].message
    assert "allow=SNAP03" in findings[0].hint


def test_snap03_ignores_classes_that_never_touch():
    # SNAP01's fixture writes to self all over and is not journaled.
    assert findings_for("bad_snap01.py", rules=["SNAP03"]) == []


def test_det01_flags_every_entropy_source():
    findings = findings_for("bad_det01.py")
    assert locations(findings) == [
        ("DET01", 7),    # random.random()
        ("DET01", 8),    # time.time()
        ("DET01", 9),    # uuid.uuid4()
        ("DET01", 10),   # argless random.Random() — OS-seeded
        ("DET01", 14),   # sorted(..., key=id)
        ("DET01", 19),   # self.noise = sim.rng.stream(...)
        ("DET01", 22),   # ... and through two locals; fetching to draw is fine
    ]
    messages = [finding.message for finding in findings]
    assert "random.random" in messages[0]
    assert "time.time" in messages[1]
    assert "id() used as a sort key" in messages[4]
    assert "random stream stored on self.noise" in messages[5]
    assert "self.jitter" in messages[6]
    assert "where the draw happens" in findings[6].hint


def test_det02_flags_set_order_leaks():
    findings = findings_for("bad_det02.py")
    assert locations(findings) == [
        ("DET02", 5),    # for host in set(hosts): sim.call_in(...)
        ("DET02", 10),   # ",".join({...})
        ("DET02", 15),   # list(set-bound local)
    ]
    assert "'call_in(...)'" in findings[0].message
    assert "sorted" in findings[0].hint


def test_det03_flags_sums_not_shown_to_be_ints():
    findings = findings_for("bad_det03.py")
    assert locations(findings) == [
        ("DET03", 7),    # sum(values) / len(values)
        ("DET03", 12),   # sum of squared deviations
    ]
    assert "math.fsum" in findings[0].hint
    # Lines 17-18 are ints by construction; line 19 carries the pragma.


# --------------------------------------------------------------------- #
# Suppression and sanctioned idioms
# --------------------------------------------------------------------- #

def test_clean_fixture_pragma_and_seeded_random_pass():
    assert findings_for("clean_allowed.py") == []


def test_pragma_does_not_suppress_other_rules():
    # The pragma on clean_allowed.py line 7 names DET01 only; running just
    # SNAP01 over the same file must still inspect it (and find nothing,
    # because the class is properly captured).
    assert findings_for("clean_allowed.py", rules=["SNAP01"]) == []


def test_rule_filter_runs_only_requested_rules():
    findings = findings_for("bad_det01.py", rules=["DET02"])
    assert findings == []


def test_unknown_rule_id_raises():
    load_default_rules()
    with pytest.raises(ValueError):
        analyze_paths([str(FIXTURES)], rules=["NOPE99"])


# --------------------------------------------------------------------- #
# The shipped tree is clean (the CI analyze-job contract)
# --------------------------------------------------------------------- #

def test_shipped_tree_has_zero_findings():
    assert analyze_paths([str(SRC_TREE)], None) == []


# --------------------------------------------------------------------- #
# CLI exit codes and output
# --------------------------------------------------------------------- #

def test_cli_exit_zero_on_clean_tree(capsys):
    assert analyze_main([str(FIXTURES / "clean_allowed.py")]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_cli_exit_one_with_precise_locations(capsys):
    assert analyze_main([str(FIXTURES / "bad_snap01.py")]) == 1
    out = capsys.readouterr().out
    assert "bad_snap01.py:12: SNAP01" in out
    assert "1 finding" in out


def test_cli_json_format(capsys):
    import json

    assert analyze_main(["--format", "json",
                         str(FIXTURES / "bad_snap01.py")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload == [{
        "rule": "SNAP01",
        "path": str(FIXTURES / "bad_snap01.py"),
        "line": 12,
        "message": payload[0]["message"],
        "hint": payload[0]["hint"],
    }]


def test_cli_unknown_rule_is_usage_error(capsys):
    assert analyze_main(["--rules", "BOGUS", str(FIXTURES)]) == 2
    assert "BOGUS" in capsys.readouterr().err


def test_cli_missing_path_is_usage_error(capsys):
    # A typo'd tree must not report "0 findings" and exit 0 — that would
    # silently defeat the CI analyze gate.
    assert analyze_main([str(FIXTURES / "no_such_dir")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert analyze_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("SNAP01", "SNAP03", "DET01", "DET02", "DET03"):
        assert rule_id in out
    assert "SNAP02" not in out
    assert "PER01" not in out


def test_repro_cli_dispatches_analyze(capsys):
    assert repro_main(["analyze", str(FIXTURES / "bad_det02.py")]) == 1
    assert "DET02" in capsys.readouterr().out
