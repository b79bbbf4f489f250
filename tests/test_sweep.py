"""Tests for the parameter-sweep engine: expansion, determinism, artifacts."""

import csv
import copy
import json
import os
import random
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.cli import main
from repro.experiments.artifacts import CSV_COLUMNS, iter_jsonl, write_json
from repro.experiments.grid import SweepGrid, expand_grid
from repro.experiments.measure import aggregate
from repro.experiments.scenario import ScenarioConfig
from repro.experiments.sweep import PRESETS, SCHEMA, payload_digest, run_sweep
from repro.experiments.workload import WorkloadConfig
from repro.experiments.worldrun import run_world
from repro.net.topogen import TopologySpec

from cross_version_digests import GOLDEN, preset_digests, shrunk_preset

TINY = SweepGrid(name="tiny", control_planes=("pce", "alt"), site_counts=(3,),
                 seeds=(1, 2), zipf_values=(1.0,), num_flows=8,
                 arrival_rate=10.0)


def test_expand_grid_cross_product_and_order():
    grid = SweepGrid(control_planes=("pce", "alt"), site_counts=(3, 4),
                     seeds=(1, 2), zipf_values=(0.0, 1.0))
    cells = expand_grid(grid)
    assert len(cells) == 2 * 2 * 2 * 2
    assert [cell.index for cell in cells] == list(range(16))
    assert len({cell.cell_id for cell in cells}) == 16
    # Nesting order: control plane outermost, seed innermost.
    assert cells[0].cell_id == "pce-sites3-zipf0-seed1"
    assert cells[1].cell_id == "pce-sites3-zipf0-seed2"
    assert cells[-1].cell_id == "alt-sites4-zipf1-seed2"


def test_expand_grid_rejects_unknown_control_plane():
    # ... and an empty axis (a silent 0-cell sweep), a repeated value
    # (one cell_id run twice, folded as two seeds) and a DNS TTL the wire
    # cannot carry, naming the field.
    for axes, named in ((dict(control_planes=("bogus",)), "'bogus'"),
                        (dict(seeds=()), "'seeds' is empty"),
                        (dict(site_counts=(3, 4, 3)), "'site_counts' repeats"),
                        (dict(seeds=(1, 1)), "'seeds' repeats"),
                        (dict(scenario_overrides={"dns_host_ttl": 0.5}),
                         "dns_host_ttl .* got 0.5"),
                        (dict(scenario_overrides={"miss_policy": "bogus"}),
                         "miss_policy 'bogus'"),
                        (dict(scenario_overrides={"irc_policy": "bogus"}),
                         "irc_policy 'bogus'")):
        with pytest.raises(ValueError, match=named):
            expand_grid(SweepGrid(**axes))


@pytest.mark.parametrize("fields, named", (
    (dict(num_providers=300), "num_providers 300 exceeds 245"),
    (dict(scenario_overrides={"providers_per_site": 9}),
     "providers_per_site 9 exceeds num_providers 4"),
    (dict(topologies=("caida",),
          scenario_overrides={"providers_per_site": 200}),
     "providers_per_site 200 exceeds the transit population"),
    (dict(topologies=("fig1",), num_providers=3),
     "num_providers 3 is below fig1's 4"),
    (dict(topologies=("fig1",),
          scenario_overrides={"providers_per_site": 3}),
     "providers_per_site 3 is not fig1's 2"),
    (dict(site_counts=(1,)), "num_sites must be >= 2, got 1"),
    (dict(topologies=("tiered",), site_counts=(1,)),
     "num_sites must be >= 2, got 1"),
    (dict(site_counts=(-1,)), "num_sites must be >= 2, got -1"),
    (dict(num_providers=0), "num_providers must be >= 1, got 0"),
    (dict(scenario_overrides={"providers_per_site": 0}),
     "providers_per_site must be >= 1, got 0"),
    (dict(topologies=("tiered",), scenario_overrides={"hosts_per_site": 0}),
     "hosts_per_site must be >= 1, got 0"),
    (dict(variants=()), "grid field 'variants' is empty"),
    (dict(variants=(("a", {}), ("a", {"seed": 2}))),
     "grid field 'variants' repeats a value"),
    (dict(variants=(("a", {"zipf": 1.0}),)),
     "variant 'a' sets 'zipf', which neither config has"),
    (dict(variants=(("alt", {"control_plane": "alt"}),)),
     "variant 'alt' sets 'control_plane', which grid field 'control_planes' "
     "sweeps"),
    (dict(zipf_values=(0.0, 1.2), variants=(("flat", {"zipf_s": 0.5}),)),
     "variant 'flat' sets 'zipf_s', which grid field 'zipf_values' sweeps"),
    (dict(variants=(("a", {"num_flows": -1}),)),
     "num_flows must be >= 0, got -1"),
), ids=("num_providers", "providers_per_site", "transit_population",
        "fig1_num_providers", "fig1_providers_per_site", "one_site",
        "tiered_one_site", "negative_sites", "no_providers", "no_provider_homes",
        "tiered_no_hosts", "no_variants", "repeated_variant",
        "unknown_variant_field", "swept_variant_field",
        "swept_variant_workload_field", "bad_variant_workload_field"))
def test_expand_grid_rejects_oversized_topology(fields, named,
                                                no_world_builds):
    """Sizes the address plan cannot hold, or that leave nothing to build,
    fail at the grid, field named — not as an error out of
    ``build_world`` inside a worker.  So do variant bundles that are
    missing, share a name, set what neither config has, set a field an
    axis sweeps (its cells would fold together as seeds) or give a
    workload field a value it refuses."""
    with pytest.raises(ValueError, match=named):
        expand_grid(SweepGrid(**fields))
    with pytest.raises(ValueError, match=named):
        run_sweep(SweepGrid(**fields), workers=2)


def test_a_bundle_sets_the_fields_of_either_config():
    """Each bundle key lands in the one config that has it, over the
    grid's overrides: E5's sizes are bundles of ``num_sites`` and
    ``num_flows``."""
    grid = SweepGrid(control_planes=("pce",), seeds=(1,),
                     variants=(("small", {"num_sites": 3, "num_flows": 5}),
                               ("large", {"num_sites": 6, "num_flows": 9})),
                     workload_overrides={"num_flows": 7})
    assert [(cell.variant, cell.scenario.num_sites, cell.workload.num_flows)
            for cell in expand_grid(grid)] == [("small", 3, 5), ("large", 6, 9)]


def test_cli_sweep_rejects_a_single_site_before_building(
        tmp_path, capsys, monkeypatch, no_world_builds):
    monkeypatch.chdir(tmp_path)  # the default jsonl path lands in the CWD
    assert main(["sweep", "--sites", "1", "--workers", "2"]) == 1
    assert capsys.readouterr().out \
        == "sweep error: num_sites must be >= 2, got 1\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("field, value, named", (
    ("mapping_ttl", -1.0, "mapping_ttl must be > 0, got -1.0"),
    ("mapping_ttl", float("nan"), "mapping_ttl must be > 0, got nan"),
    ("probe_period", float("nan"), "probe_period must be > 0, got nan"),
    ("probe_timeout", 0.5, r"probe_timeout must lie in \(0, probe_period"),
    ("probe_timeout", 0.0, r"probe_timeout must lie in \(0, probe_period"),
    ("computation_delay", -1.0, "computation_delay must be >= 0, got -1.0"),
    ("computation_delay", float("nan"),
     "computation_delay must be >= 0, got nan"),
    ("access_rate_bps", 0.0, "access_rate_bps must be None or > 0, got 0.0"),
    ("access_rate_bps", -5.0,
     "access_rate_bps must be None or > 0, got -5.0"),
    ("dns_extra_levels", -1, "dns_extra_levels must be >= 0, got -1"),
    # The address plan's limits: no world of these sizes is ever built.
    ("num_sites", 70000, "num_sites 70000 exceeds 60928"),
    ("num_sites", 60929, "num_sites 60929 exceeds 60928"),
    ("hosts_per_site", 247, "hosts_per_site 247 exceeds 246"),
    ("providers_per_site", 227, "providers_per_site 227 exceeds 226"),
))
def test_bad_lifetimes_fail_at_the_config(field, value, named,
                                          no_world_builds):
    """A lifetime or rate that is not > 0, or a delay or depth that is not
    >= 0 (NaN neither), is rejected where the config is made, field named —
    so a grid carrying it fails at expansion, not inside a cell."""
    with pytest.raises(ValueError, match=named):
        ScenarioConfig(**{field: value})
    with pytest.raises(ValueError, match=named):
        expand_grid(SweepGrid(scenario_overrides={field: value}))


@pytest.mark.parametrize("field, value, named", (
    ("num_flows", -1, "num_flows must be >= 0, got -1"),
    ("arrival_rate", 0.0, "arrival_rate must be > 0, got 0.0"),
    ("arrival_rate", float("nan"), "arrival_rate must be > 0, got nan"),
    ("packets_per_flow", 0, "packets_per_flow must be >= 1, got 0"),
    ("payload_bytes", 0, "payload_bytes must be >= 1, got 0"),
    ("grace_period", -1.0, "grace_period must be >= 0, got -1.0"),
    ("zipf_s", -0.5, "zipf_s must be >= 0, got -0.5"),
    ("fluid_chunk_interval", 0.0, "fluid_chunk_interval must be > 0, got 0.0"),
    ("pace_rate_bps", 0.0, "pace_rate_bps must be > 0, got 0.0"),
))
def test_bad_workloads_fail_at_the_config(field, value, named,
                                          no_world_builds):
    """A workload field out of range (NaN included) is rejected where the
    config is made, field named — not as about 190 flows from a negative
    count, or a ZeroDivisionError inside a worker's cell."""
    with pytest.raises(ValueError, match=named):
        WorkloadConfig(**{field: value})
    with pytest.raises(ValueError, match=named):
        expand_grid(SweepGrid(workload_overrides={field: value}))


def test_cli_sweep_rejects_a_negative_flow_count(tmp_path, capsys, monkeypatch,
                                                 no_world_builds):
    monkeypatch.chdir(tmp_path)  # the default jsonl path lands in the CWD
    assert main(["sweep", "--preset", "smoke", "--flows", "-1"]) == 1
    out = capsys.readouterr().out
    assert out == "sweep error: num_flows must be >= 0, got -1\n"
    assert list(tmp_path.iterdir()) == []


def test_a_topology_spec_is_not_a_scenario_topology(no_world_builds):
    """``ScenarioConfig.topology`` is a family name: the sizing fields shape
    it, and a hand-built layout is no config's business."""
    with pytest.raises(ValueError, match="unknown topology family"):
        ScenarioConfig(topology=TopologySpec(family="tiered"))
    with pytest.raises(ValueError, match="unknown topology family"):
        expand_grid(SweepGrid(scenario_overrides={
            "topology": TopologySpec(family="tiered")}))


def test_expand_grid_cells_trace_disabled():
    for cell in expand_grid(TINY):
        assert cell.scenario.tracing is False


def run_one(cell):
    """*cell*'s result on a world built for it alone (and torn down)."""
    (result,), _built = run_world([cell])
    return result


def test_run_cell_produces_metrics():
    cell = expand_grid(TINY)[0]
    result = run_one(cell)
    assert result["cell_id"] == cell.cell_id
    assert result["metrics"]["flows"] == 8
    assert result["metrics"]["packets_sent"] > 0
    assert result["metrics"]["dns_latency"]["count"] > 0
    assert result["metrics"]["sim_events"] > 0


def cell_sim_events(payload):
    """Every cell's engine event count, in index order.

    No digest carries it, so the determinism tests compare it outright: a
    restore that leaves a pending event behind, or loses one, moves it.
    """
    return [cell["metrics"]["sim_events"] for cell in payload["cells"]]


def test_sweep_deterministic_across_runs_and_workers():
    first = run_sweep(TINY, workers=1)
    again = run_sweep(TINY, workers=1)
    fanned = run_sweep(TINY, workers=2)
    assert payload_digest(first) == payload_digest(again)
    assert payload_digest(first) == payload_digest(fanned)
    assert cell_sim_events(first) == cell_sim_events(again) \
        == cell_sim_events(fanned)
    assert all(count > 0 for count in cell_sim_events(first))


def test_payload_digest_pins_behaviour_not_event_counts():
    """Two runs apart only in ``sim_events`` digest the same; the count is
    in every cell's metrics and in no CSV column or aggregate."""
    payload = run_sweep(TINY, workers=1)
    patched = copy.deepcopy(payload)
    for cell in patched["cells"]:
        cell["metrics"]["sim_events"] += 7
    assert cell_sim_events(patched) != cell_sim_events(payload)
    assert payload_digest(patched) == payload_digest(payload)
    patched["cells"][0]["metrics"]["packets_sent"] += 1
    assert payload_digest(patched) != payload_digest(payload)
    assert "sim_events" not in payload_digest(payload)
    assert "sim_events" not in CSV_COLUMNS
    assert not any("sim_events" in aggregate
                   for aggregate in payload["aggregates"])


def test_sweep_artifacts(tmp_path):
    json_path = tmp_path / "sweep.json"
    csv_path = tmp_path / "sweep.csv"
    payload = run_sweep(TINY, workers=1, json_path=str(json_path),
                        csv_path=str(csv_path))
    on_disk = json.loads(json_path.read_text())
    assert on_disk["schema"] == SCHEMA == "repro.sweep/v10"
    assert on_disk["num_cells"] == len(payload["cells"]) == 4
    assert payload_digest(on_disk) == payload_digest(payload)
    with open(csv_path) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 4
    assert {row["cell_id"] for row in rows} \
        == {cell["cell_id"] for cell in payload["cells"]}
    # Written through a temp file and renamed: nothing else is left behind.
    assert sorted(path.name for path in tmp_path.iterdir()) \
        == ["sweep.csv", "sweep.json"]


def test_write_json_leaves_the_old_artifact_when_the_dump_fails(tmp_path):
    path = tmp_path / "sweep.json"
    write_json({"schema": SCHEMA}, str(path))
    with pytest.raises(TypeError):
        write_json({"schema": SCHEMA, "cells": object()}, str(path))
    assert json.loads(path.read_text()) == {"schema": SCHEMA}
    assert [entry.name for entry in tmp_path.iterdir()] == ["sweep.json"]


def test_iter_jsonl_skips_the_line_a_killed_run_cut_short(tmp_path):
    path = tmp_path / "cells.jsonl"
    path.write_text('{"grid":"ab","index":0,"world":"miss"}\n{"index":1,"wor')
    assert list(iter_jsonl(str(path))) == [("ab", {"index": 0})]
    # A terminated line that does not parse is corruption, not a cut.
    path.write_text('{"index":0}\n{"index":1,"wor\n{"index":2}\n')
    with pytest.raises(json.JSONDecodeError):
        list(iter_jsonl(str(path)))


def test_aggregates_group_seeds():
    payload = run_sweep(TINY, workers=1)
    aggregates = payload["aggregates"]
    assert len(aggregates) == 2  # one per control plane
    for aggregate in aggregates:
        assert aggregate["cells"] == 2
        assert aggregate["seeds"] == [1, 2]
    by_system = {a["control_plane"]: a for a in aggregates}
    # The PCE control plane pushes mappings, so it never drops first packets;
    # the reactive ALT baseline with the drop policy does (paper E1 shape).
    assert by_system["pce"]["first_packet_drops"] == 0
    assert by_system["alt"]["first_packet_drops"] > 0


def test_scale_preset_reaches_production_scale():
    grid = PRESETS["scale"]
    cells = expand_grid(grid)
    assert len(cells) >= 24
    assert max(cell.scenario.num_sites for cell in cells) >= 100
    assert max(grid.zipf_values) > 1.0


def test_large_cell_runs():
    """One >=100-site Zipf-skewed cell builds and completes."""
    grid = SweepGrid(control_planes=("alt",), site_counts=(110,), seeds=(5,),
                     zipf_values=(1.2,), num_flows=20, arrival_rate=40.0,
                     num_providers=8)
    result = run_one(expand_grid(grid)[0])
    assert result["num_sites"] == 110
    assert result["metrics"]["flows"] == 20
    assert result["metrics"]["resolutions_started"] > 0


def test_cli_sweep_command(tmp_path, capsys):
    json_path = tmp_path / "cli.json"
    code = main(["sweep", "--preset", "smoke", "--workers", "1",
                 "--sites", "3", "--seeds", "1", "--flows", "6",
                 "--json", str(json_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "sweep 'smoke'" in out
    payload = json.loads(json_path.read_text())
    assert payload["num_cells"] == 2  # 2 control planes x 1 site x 1 seed
    assert payload["grid"]["num_flows"] == 6


#: Two worlds of three families each (the zipf axis is a workload field).
RAISING = SweepGrid(name="raising", control_planes=("pce", "alt"),
                    site_counts=(3,), seeds=(1,), zipf_values=(0.0, 1.0, 1.2),
                    num_flows=6, arrival_rate=10.0)


def _raise_in(monkeypatch, cell_id):
    """Make the cell named *cell_id* raise in ``run_cell``."""
    from repro.experiments import sweep
    run_cell = sweep.run_cell

    def raising(world, cell, prefix):
        if cell.cell_id == cell_id:
            raise ValueError("forced")
        return run_cell(world, cell, prefix)
    monkeypatch.setattr(sweep, "run_cell", raising)


@pytest.mark.parametrize("workers", (1, 2))
def test_a_raising_cell_leaves_the_rest_of_the_sweep(workers, tmp_path,
                                                     monkeypatch):
    """A cell that raises mid-world fails alone: the world's later families
    and the other world run, and every other cell's result and JSONL line
    are the clean run's, byte for byte."""
    clean = run_sweep(RAISING, jsonl_path=tmp_path / "clean.jsonl")
    assert "errors" not in clean
    doomed = clean["cells"][1]
    _raise_in(monkeypatch, doomed["cell_id"])
    raised = run_sweep(RAISING, workers=workers,
                       jsonl_path=tmp_path / "raised.jsonl")
    [error] = raised["errors"]
    assert (error["index"], error["cell_id"], error["exception"],
            error["message"]) == (1, doomed["cell_id"], "ValueError", "forced")
    assert error["config"] == {key: value for key, value in doomed.items()
                               if key not in ("index", "cell_id", "metrics")}
    rest = [cell for cell in clean["cells"] if cell is not doomed]
    assert json.dumps(raised["cells"]) == json.dumps(rest)
    assert raised["aggregates"] == aggregate(rest)
    assert payload_digest(raised) == payload_digest(
        {**clean, "cells": rest, "num_cells": len(rest),
         "aggregates": aggregate(rest)})

    def lines(path):
        return sorted(json.dumps(entry, sort_keys=True)
                      for _tag, entry in iter_jsonl(path))
    assert lines(tmp_path / "raised.jsonl") == [
        json.dumps(cell, sort_keys=True) for cell in sorted(
            rest, key=lambda cell: json.dumps(cell, sort_keys=True))]


def test_a_rebuild_after_a_raising_family_counts_as_a_build(tmp_path,
                                                           monkeypatch):
    """The family after a raising one builds its world afresh: the
    world cache counts that build, and its cell's JSONL line reads
    ``miss``, not ``hit``."""
    clean = run_sweep(RAISING, jsonl_path=tmp_path / "clean.jsonl")
    assert clean["world_cache"] == {"builds": 2, "hits": 4}
    _raise_in(monkeypatch, clean["cells"][1]["cell_id"])
    raised = run_sweep(RAISING, jsonl_path=tmp_path / "raised.jsonl")
    assert raised["world_cache"] == {"builds": 3, "hits": 3}
    with open(tmp_path / "raised.jsonl") as handle:
        labels = {entry["index"]: entry["world"]
                  for entry in map(json.loads, handle)}
    assert labels == {0: "miss", 2: "miss", 3: "miss", 4: "hit", 5: "hit"}


def test_a_serial_sweep_loads_neither_traceback_nor_the_pool():
    """``traceback`` (for an error record) and ``concurrent.futures`` (for
    fan-out) are imported where used: at module level they cost a serial
    sweep about 1 MB resident.  Checked in a fresh interpreter, since
    pytest has loaded both."""
    tests = os.path.dirname(os.path.abspath(__file__))
    code = ("import sys\n"
            "from cross_version_digests import shrunk_preset\n"
            "from repro.experiments.sweep import run_sweep\n"
            "assert not run_sweep(shrunk_preset('smoke')).get('errors')\n"
            "print(sorted({'traceback', 'concurrent.futures'} & set(sys.modules)))")
    path = os.pathsep.join((os.path.join(os.path.dirname(tests), "src"), tests))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=False,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_cli_sweep_exits_nonzero_naming_a_raising_cell(tmp_path, capsys,
                                                       monkeypatch):
    _raise_in(monkeypatch, "alt-sites3-zipf1-seed1")
    json_path = tmp_path / "cli.json"
    code = main(["sweep", "--preset", "smoke", "--sites", "3", "--seeds", "1",
                 "--flows", "6", "--json", str(json_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert "sweep 'smoke': 1 cells" in captured.out
    assert captured.err == ("cell alt-sites3-zipf1-seed1 (index 1) raised "
                            "ValueError: forced\n")
    payload = json.loads(json_path.read_text())
    assert [error["cell_id"] for error in payload["errors"]] == [
        "alt-sites3-zipf1-seed1"]


def test_cli_sweep_unknown_preset(capsys):
    assert main(["sweep", "--preset", "nope"]) == 1
    assert "unknown preset" in capsys.readouterr().out


def test_cli_sweep_rejects_repeated_axis_value(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--seeds", "1", "1"]) == 1
    assert capsys.readouterr().out.startswith("sweep error: grid field 'seeds'")
    assert list(tmp_path.iterdir()) == []  # rejected before anything ran


def test_aggregate_cells_sorted_and_stable():
    payload = run_sweep(TINY, workers=1)
    reordered = list(reversed(payload["cells"]))
    assert aggregate(reordered) == payload["aggregates"]


def test_aggregation_is_completion_order_independent():
    """Any permutation of the results aggregates to byte-identical output."""
    payload = run_sweep(TINY, workers=1)
    shuffled = list(payload["cells"])
    random.Random(5).shuffle(shuffled)
    assert json.dumps(aggregate(shuffled), sort_keys=True) \
        == json.dumps(payload["aggregates"], sort_keys=True)


def test_fanned_out_csv_bytes_equal_serial(tmp_path):
    """Rows are written from the index-sorted results, so the CSV does not
    depend on the order cells complete in: two workers, bytes of one."""
    grid = replace(TINY, seeds=(1, 2, 3))
    paths = {workers: tmp_path / f"w{workers}.csv" for workers in (1, 2)}
    for workers, path in paths.items():
        run_sweep(grid, workers=workers, csv_path=str(path))
    assert paths[2].read_bytes() == paths[1].read_bytes()
    with open(paths[1]) as handle:
        indexes = [int(row["index"]) for row in csv.DictReader(handle)]
    assert indexes == list(range(len(expand_grid(grid))))


def test_payload_cells_equal_their_json_round_trip():
    """The payload's results are the live ones, not a read-back: they
    hold nothing JSON would change (a tuple, a non-string key)."""
    for name in ("smoke", "failover", "shaped"):
        payload = run_sweep(shrunk_preset(name), workers=1)
        assert json.loads(json.dumps(payload)) == payload


def test_probing_sweep_hits_world_cache():
    """Failover-style cells (probing enabled) reuse cached worlds: no bypass."""
    grid = SweepGrid(name="probing", control_planes=("pce",), site_counts=(3,),
                     seeds=(21,), fail_fractions=(0.0, 0.5), fail_at=0.3,
                     repair_at=1.5, num_flows=8, arrival_rate=10.0,
                     packets_per_flow=4,
                     scenario_overrides={"enable_probing": True,
                                         "probe_period": 0.3,
                                         "probe_timeout": 0.15})
    payload = run_sweep(grid, workers=1)
    cache = payload["world_cache"]
    assert cache["hits"] == 1 and cache["builds"] == 1
    fanned = run_sweep(grid, workers=2)
    assert payload_digest(payload) == payload_digest(fanned)
    assert cell_sim_events(payload) == cell_sim_events(fanned)


@pytest.mark.parametrize("flag", ("--json", "--csv", "--jsonl"))
def test_cli_sweep_rejects_artifact_in_missing_directory(
        flag, tmp_path, capsys, monkeypatch, no_world_builds):
    """An unwritable artifact path fails before any world is built."""
    monkeypatch.chdir(tmp_path)  # the default jsonl path lands in the CWD
    missing = tmp_path / "nonexistent" / "artifact.out"
    assert main(["sweep", "--preset", "smoke", flag, str(missing)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("sweep error: ") and "nonexistent" in out
    assert "Traceback" not in out
    assert list(tmp_path.iterdir()) == []  # nothing half-written either


@pytest.mark.parametrize("flag", ("--json", "--csv", "--jsonl"))
def test_cli_sweep_rejects_artifact_path_that_is_a_directory(
        flag, tmp_path, capsys, monkeypatch, no_world_builds):
    """An artifact path naming an existing directory fails before any world
    is built, not as an ``IsADirectoryError`` after the whole sweep."""
    monkeypatch.chdir(tmp_path)  # the default jsonl path lands in the CWD
    taken = tmp_path / "taken"
    taken.mkdir()
    assert main(["sweep", "--preset", "smoke", flag, str(taken)]) == 1
    out = capsys.readouterr().out
    assert out == (f"sweep error: cannot write {flag[2:]} artifact "
                   f"{str(taken)!r}: it is a directory\n")
    assert list(tmp_path.iterdir()) == [taken]  # nothing written either
    assert list(taken.iterdir()) == []


def test_cli_sweep_rejects_snapshot_dir_that_is_a_file(tmp_path, capsys,
                                                       no_world_builds):
    """Worlds are not stored between runs, so ``--snapshot-dir`` is an
    unknown option — a file or a directory alike — refused before any
    world is built."""
    not_a_directory = tmp_path / "worlds"
    not_a_directory.write_text("in the way")
    for target in (not_a_directory, tmp_path):
        with pytest.raises(SystemExit) as exited:
            main(["sweep", "--preset", "smoke",
                  "--jsonl", str(tmp_path / "cells.jsonl"),
                  "--snapshot-dir", str(target)])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --snapshot-dir" in err
    assert not (tmp_path / "cells.jsonl").exists()


def test_pacing_axis_expands_and_validates():
    grid = SweepGrid(control_planes=("alt",), site_counts=(3,), seeds=(1,),
                     pacings=("constant", "shaped"))
    cells = expand_grid(grid)
    assert len(cells) == 2
    assert cells[0].workload.pacing == "constant"
    assert cells[1].workload.pacing == "shaped"
    assert "shaped" in cells[1].cell_id and "shaped" not in cells[0].cell_id
    # Pacing pairs share worlds: the scenario config ignores the pacing.
    assert cells[0].scenario == cells[1].scenario
    with pytest.raises(ValueError):
        expand_grid(SweepGrid(pacings=("bogus",)))


def test_pacing_axis_digest_invariant_across_workers():
    """--workers 1 vs 4 over the pacing axis: byte-identical digests."""
    grid = SweepGrid(name="paced", control_planes=("pce",), site_counts=(3,),
                     seeds=(1, 2), size_dists=("pareto",),
                     pacings=("constant", "shaped"), num_flows=10,
                     arrival_rate=10.0, packets_per_flow=4,
                     scenario_overrides={"access_rate_bps": 5_000_000.0})
    serial = run_sweep(grid, workers=1)
    fanned = run_sweep(grid, workers=4)
    assert payload_digest(serial) == payload_digest(fanned)
    assert cell_sim_events(serial) == cell_sim_events(fanned)
    pacings = {cell["pacing"] for cell in serial["cells"]}
    assert pacings == {"constant", "shaped"}
    # Shaping moves bytes in time, not in volume: with no drops the two
    # pacing modes of the same seed offer the same flow byte budgets.
    for aggregate in serial["aggregates"]:
        assert aggregate["bytes_conserved"] is True


def test_shaped_preset_shapes_traffic():
    grid = PRESETS["shaped"]
    cells = expand_grid(grid)
    assert {cell.workload.pacing for cell in cells} \
        == {"constant", "shaped", "fluid"}
    assert all(cell.scenario.access_rate_bps == 10_000_000.0 for cell in cells)
    # Pacing triples share worlds, cutting the distinct world count 3x.
    from repro.experiments.worldbuild import world_key
    assert len({world_key(cell.scenario) for cell in cells}) \
        == len(cells) // 3


def test_cell_metrics_carry_byte_accounting():
    cell = expand_grid(SweepGrid(
        control_planes=("pce",), site_counts=(3,), seeds=(4,),
        pacings=("shaped",), size_dists=("pareto",), num_flows=10,
        arrival_rate=10.0, packets_per_flow=4,
        scenario_overrides={"access_rate_bps": 5_000_000.0}))[0]
    result = run_one(cell)
    metrics = result["metrics"]
    assert metrics["bytes_offered"] > 0
    assert metrics["bytes_offered"] == metrics["bytes_delivered"] \
        + metrics["bytes_dropped"] + metrics["bytes_in_flight"]
    assert metrics["bytes_conserved"] is True
    assert metrics["flow_bytes_sent"] <= metrics["flow_bytes_budget"]
    assert metrics["access_util_peak"] > 0.0
    assert result["pacing"] == "shaped"


def test_grid_overrides_may_shadow_axis_fields():
    """Overrides win over axis-derived kwargs instead of raising TypeError."""
    grid = SweepGrid(control_planes=("alt",), site_counts=(4,), seeds=(1,),
                     scenario_overrides={"num_sites": 5, "miss_policy": "queue"},
                     workload_overrides={"num_flows": 3})
    cell = expand_grid(grid)[0]
    assert cell.scenario.num_sites == 5
    assert cell.scenario.miss_policy == "queue"
    assert cell.workload.num_flows == 3


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_artifacts_match_golden_digests(name, tmp_path):
    """Every preset's payload and CSV stay byte-identical across refactors."""
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    assert preset_digests(name, str(tmp_path)) == golden[name]


def _cut(full_jsonl, path, keep):
    """Write to *path* the first *keep* lines of *full_jsonl* plus half of
    the next: what a run killed while writing a line leaves."""
    lines = full_jsonl.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:keep]) + lines[keep][:len(lines[keep]) // 2])


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("keep", (0, 2, 5))
def test_a_cut_off_sweep_resumes_to_the_uninterrupted_artifacts(
        tmp_path, workers, keep):
    """Resumed from k lines plus half a line, a sweep runs only the cells
    it lacks and writes the JSON, CSV and JSONL one uninterrupted run
    does, into the very file it resumed from."""
    full = run_sweep(RAISING, json_path=tmp_path / "full.json",
                     csv_path=tmp_path / "full.csv",
                     jsonl_path=tmp_path / "full.jsonl")
    resumed_path = tmp_path / "cut.jsonl"
    _cut(tmp_path / "full.jsonl", resumed_path, keep)
    resumed = run_sweep(RAISING, workers=workers,
                        json_path=tmp_path / "resumed.json",
                        csv_path=tmp_path / "resumed.csv",
                        jsonl_path=resumed_path, resume_path=resumed_path)
    assert payload_digest(resumed) == payload_digest(full)
    assert (tmp_path / "resumed.csv").read_bytes() \
        == (tmp_path / "full.csv").read_bytes()
    assert resumed["world_cache"]["resumed"] == keep
    assert resumed["world_cache"]["hits"] + resumed["world_cache"]["builds"] \
        == len(full["cells"]) - keep

    def lines(path):
        return sorted(json.dumps(entry, sort_keys=True)
                      for _tag, entry in iter_jsonl(path))
    assert lines(resumed_path) == lines(tmp_path / "full.jsonl")


def test_a_whole_jsonl_resumes_without_building(tmp_path, request):
    path = tmp_path / "cells.jsonl"
    full = run_sweep(TINY, jsonl_path=path)
    request.getfixturevalue("no_world_builds")
    resumed = run_sweep(TINY, resume_path=path)
    assert payload_digest(resumed) == payload_digest(full)
    assert resumed["world_cache"] == {"builds": 0, "hits": 0,
                                      "resumed": len(full["cells"])}


@pytest.mark.parametrize("line, named", (
    ('{"index": 1, "cell_id": "pce-sites3-zipf1-seed1"}',
     "line for index 1 is cell 'pce-sites3-zipf1-seed1', the grid's is "
     "'pce-sites3-zipf1-seed2'"),
    ('{"index": 4, "cell_id": "pce-sites3-zipf1-seed1"}',
     "line for index 4 is cell 'pce-sites3-zipf1-seed1', the grid's is None"),
    ('{"cell_id": "pce-sites3-zipf1-seed1"}', "line for index None"),
))
def test_resume_refuses_another_grids_line_before_building(
        tmp_path, line, named, no_world_builds):
    path = tmp_path / "cells.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(ValueError, match=named):
        run_sweep(TINY, resume_path=path)
    with pytest.raises(ValueError, match="no such file"):
        run_sweep(TINY, resume_path=tmp_path / "missing.jsonl")


@pytest.mark.parametrize("tagged", (True, False))
def test_resume_refuses_the_jsonl_of_a_grid_with_other_grid_fields(
        tmp_path, tagged, request):
    """An 8-flow grid's JSONL cut to two lines, resumed with 4 flows: the
    cell ids match (no axis moved), the grid tag does not.  A line with
    no tag is refused too."""
    full = tmp_path / "full.jsonl"
    run_sweep(TINY, jsonl_path=full)
    request.getfixturevalue("no_world_builds")
    lines = full.read_text().splitlines(keepends=True)[:2]
    if not tagged:
        lines = [json.dumps({key: value for key, value
                             in json.loads(line).items() if key != "grid"})
                 + "\n" for line in lines]
    cut = tmp_path / "cut.jsonl"
    cut.write_text("".join(lines))
    fewer = replace(TINY, num_flows=4)
    assert [cell.cell_id for cell in expand_grid(fewer)] \
        == [cell.cell_id for cell in expand_grid(TINY)]
    with pytest.raises(ValueError, match="its line for index 0 is from grid"):
        run_sweep(fewer if tagged else TINY, resume_path=cut)


def test_cli_sweep_resumes_a_cut_off_run(tmp_path, capsys):
    args = ["sweep", "--preset", "smoke", "--seeds", "1", "--flows", "6",
            "--sites", "3"]
    assert main([*args, "--json", str(tmp_path / "full.json"),
                 "--csv", str(tmp_path / "full.csv")]) == 0
    _cut(tmp_path / "full.cells.jsonl", tmp_path / "cut.cells.jsonl", 1)
    capsys.readouterr()
    assert main([*args, "--json", str(tmp_path / "cut.json"),
                 "--csv", str(tmp_path / "cut.csv"),
                 "--resume", str(tmp_path / "cut.cells.jsonl")]) == 0
    out = capsys.readouterr().out
    assert "world cache: 0 hits / 1 builds (1 cells resumed)" in out
    assert (tmp_path / "cut.csv").read_bytes() \
        == (tmp_path / "full.csv").read_bytes()
    assert payload_digest(json.loads((tmp_path / "cut.json").read_text())) \
        == payload_digest(json.loads((tmp_path / "full.json").read_text()))
    assert main([*args, "--resume", str(tmp_path / "cut.json")]) == 1
    assert capsys.readouterr().out.startswith("sweep error: ")
