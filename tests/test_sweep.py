"""Tests for the parameter-sweep engine: expansion, determinism, artifacts."""

import csv
import gc
import copy
import hashlib
import json
import os
import random
import weakref
from dataclasses import replace

import pytest

from repro.cli import main
from repro.experiments.scenario import ScenarioConfig
from repro.experiments.workload import WorkloadConfig
from repro.experiments.sweep import (CSV_COLUMNS, PRESETS, SCHEMA,
                                     AggregateFold, CsvStreamWriter,
                                     SweepGrid, expand_grid, iter_jsonl,
                                     payload_digest, run_cell, run_sweep,
                                     write_json)
from repro.net.topogen import TopologySpec

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
                         "dns_host_ttl .* got 0.5")):
        with pytest.raises(ValueError, match=named):
            expand_grid(SweepGrid(**axes))


@pytest.mark.parametrize("fields, named", (
    (dict(num_providers=300), "num_providers 300 exceeds 245"),
    (dict(scenario_overrides={"providers_per_site": 9}),
     "providers_per_site 9 exceeds num_providers 4"),
    (dict(topologies=("caida",),
          scenario_overrides={"providers_per_site": 200}),
     "providers_per_site 200 exceeds the transit population"),
), ids=("num_providers", "providers_per_site", "transit_population"))
def test_expand_grid_rejects_oversized_topology(fields, named,
                                                no_world_builds):
    """Sizes the address plan cannot hold fail at the grid, field named —
    not as a ``ValueError`` out of ``build_world`` inside a worker."""
    with pytest.raises(ValueError, match=named):
        expand_grid(SweepGrid(**fields))
    with pytest.raises(ValueError, match=named):
        run_sweep(SweepGrid(**fields), workers=2)


@pytest.mark.parametrize("field, value, named", (
    ("mapping_ttl", -1.0, "mapping_ttl must be > 0, got -1.0"),
    ("mapping_ttl", float("nan"), "mapping_ttl must be > 0, got nan"),
    ("cache_ttl_override", 0.0, "cache_ttl_override must be > 0, got 0.0"),
    ("probe_period", float("nan"), "probe_period must be > 0, got nan"),
    ("probe_timeout", 0.5, r"probe_timeout must lie in \(0, probe_period"),
    ("probe_timeout", 0.0, r"probe_timeout must lie in \(0, probe_period"),
))
def test_bad_lifetimes_fail_at_the_config(field, value, named,
                                          no_world_builds):
    """A lifetime that is not > 0 (NaN neither) is rejected where the config
    is made, field named — so a grid carrying it fails at expansion."""
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


def test_run_cell_produces_metrics():
    cell = expand_grid(TINY)[0]
    result = run_cell(cell)
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
    assert on_disk["schema"] == SCHEMA == "repro.sweep/v7"
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
    path.write_text('{"index":0,"world":"miss"}\n{"index":1,"wor')
    assert list(iter_jsonl(str(path))) == [{"index": 0}]
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
    result = run_cell(expand_grid(grid)[0])
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


def test_cli_sweep_unknown_preset(capsys):
    assert main(["sweep", "--preset", "nope"]) == 1
    assert "unknown preset" in capsys.readouterr().out


def test_cli_sweep_rejects_repeated_axis_value(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--seeds", "1", "1"]) == 1
    assert capsys.readouterr().out.startswith("sweep error: grid field 'seeds'")
    assert list(tmp_path.iterdir()) == []  # rejected before anything ran


def _fold(results):
    fold = AggregateFold()
    for result in results:
        fold.add(result)
    return fold.finish()


def test_aggregate_cells_sorted_and_stable():
    payload = run_sweep(TINY, workers=1)
    reordered = list(reversed(payload["cells"]))
    assert _fold(reordered) == payload["aggregates"]


class _TrackedResult(dict):
    """Weakref-able result dict, to prove the fold releases each cell."""


def test_aggregation_never_holds_the_full_cell_list():
    """AggregateFold folds a one-shot stream; no cell outlives its turn."""
    payload = run_sweep(TINY, workers=1)
    refs = []

    def stream():
        for cell in payload["cells"]:
            tracked = _TrackedResult(json.loads(json.dumps(cell)))
            refs.append(weakref.ref(tracked))
            yield tracked

    aggregates = _fold(stream())
    assert aggregates == payload["aggregates"]
    gc.collect()
    alive = [ref for ref in refs if ref() is not None]
    assert alive == [], f"fold retained {len(alive)} cell results"


def test_aggregation_is_completion_order_independent():
    """Any permutation of the stream folds to byte-identical aggregates."""
    payload = run_sweep(TINY, workers=1)
    shuffled = list(payload["cells"])
    random.Random(5).shuffle(shuffled)
    assert json.dumps(_fold(iter(shuffled)), sort_keys=True) \
        == json.dumps(payload["aggregates"], sort_keys=True)


def test_write_csv_stream_reorders_by_index(tmp_path):
    payload = run_sweep(TINY, workers=1)
    sorted_path = tmp_path / "sorted.csv"
    shuffled_path = tmp_path / "shuffled.csv"
    shuffled = list(payload["cells"])
    random.Random(9).shuffle(shuffled)
    for cells, path in ((payload["cells"], sorted_path),
                        (shuffled, shuffled_path)):
        with CsvStreamWriter(str(path)) as writer:
            for cell in cells:
                writer.add(cell)
    assert shuffled_path.read_bytes() == sorted_path.read_bytes()
    with open(sorted_path) as handle:
        indexes = [int(row["index"]) for row in csv.DictReader(handle)]
    assert indexes == sorted(indexes)


def test_run_sweep_without_cells_payload(tmp_path):
    """include_cells=False: memory-flat payload, same aggregates, CSV intact."""
    csv_path = tmp_path / "flat.csv"
    flat = run_sweep(TINY, workers=1, include_cells=False,
                     csv_path=str(csv_path))
    full = run_sweep(TINY, workers=1)
    assert "cells" not in flat
    assert flat["num_cells"] == full["num_cells"]
    assert flat["aggregates"] == full["aggregates"]
    with open(csv_path) as handle:
        assert len(list(csv.DictReader(handle))) == full["num_cells"]
    with pytest.raises(ValueError):
        run_sweep(TINY, workers=1, include_cells=False, json_path="x.json")


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


def test_cli_sweep_no_json(tmp_path, capsys):
    csv_path = tmp_path / "cells.csv"
    code = main(["sweep", "--preset", "smoke", "--workers", "1",
                 "--sites", "3", "--seeds", "1", "--flows", "6",
                 "--no-json", "--csv", str(csv_path),
                 "--jsonl", str(tmp_path / "cells.jsonl")])
    assert code == 0
    assert "sweep 'smoke'" in capsys.readouterr().out
    with open(csv_path) as handle:
        assert len(list(csv.DictReader(handle))) == 2
    assert main(["sweep", "--preset", "smoke", "--no-json",
                 "--json", str(tmp_path / "x.json")]) == 1
    assert "--no-json" in capsys.readouterr().out


def test_cli_sweep_snapshot_dir(tmp_path, capsys):
    """--snapshot-dir persists blobs; the rerun builds nothing and says so."""
    args = ["sweep", "--preset", "smoke", "--workers", "2",
            "--sites", "3", "--seeds", "1", "--flows", "6",
            "--no-json", "--jsonl", str(tmp_path / "cells.jsonl"),
            "--snapshot-dir", str(tmp_path / "worlds")]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "snapshot store (persistent)" in out
    assert "2 built" in out
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "0 built" in out
    assert "2 blob hits" in out


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


def test_cli_sweep_rejects_snapshot_dir_that_is_a_file(tmp_path, capsys):
    not_a_directory = tmp_path / "worlds"
    not_a_directory.write_text("in the way")
    code = main(["sweep", "--preset", "smoke",
                 "--jsonl", str(tmp_path / "cells.jsonl"),
                 "--snapshot-dir", str(not_a_directory)])
    assert code == 1
    out = capsys.readouterr().out
    assert out.startswith("sweep error: ") and "not a directory" in out
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
    from repro.experiments.sweep import distinct_world_configs
    assert len(distinct_world_configs(cells)) == len(cells) // 3


def test_cell_metrics_carry_byte_accounting():
    cell = expand_grid(SweepGrid(
        control_planes=("pce",), site_counts=(3,), seeds=(4,),
        pacings=("shaped",), size_dists=("pareto",), num_flows=10,
        arrival_rate=10.0, packets_per_flow=4,
        scenario_overrides={"access_rate_bps": 5_000_000.0}))[0]
    result = run_cell(cell)
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


GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "sweep_digests.json")


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


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_artifacts_match_golden_digests(name, tmp_path):
    """Every preset's payload and CSV stay byte-identical across refactors."""
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    assert preset_digests(name, str(tmp_path)) == golden[name]
