"""Trace oracles for the sweep metrics E2 and E8 read.

E2 and E8 once scripted their worlds and read the traces; now each runs
one sweep grid, whose cells run untraced, and reads metrics computed from
component state (``mapping_wait``, ``reverse_completion``,
``resolution_latency``).  The trace readings they replaced live on here
as oracles: each cell of the experiment's grid is run again alone on a
traced world, read the old way, and must give its cell's metric exactly,
on the experiment's own seed and on others.
"""

from dataclasses import replace

import pytest

from repro.experiments import build_scenario, run_workload
from repro.experiments import e2_overlap as e2
from repro.experiments import e8_reverse_mapping as e8
from repro.experiments import sweep
from repro.experiments.grid import expand_grid
from repro.experiments.sweep import run_sweep
from repro.metrics import summarize


def _grid_cells(monkeypatch, runner, seed):
    """Run *runner* at *seed*: its one grid's cells, each with its result."""
    runs = []

    def spy(grid, **kwargs):
        runs.append((grid, run_sweep(grid, **kwargs)))
        return runs[-1][1]
    monkeypatch.setattr(sweep, "run_sweep", spy)
    runner(seed=seed)
    ((grid, payload),) = runs
    return list(zip(expand_grid(grid), payload["cells"], strict=True))


def _traced(cell):
    """*cell* run alone on a traced world: the world and its flow records."""
    scenario = build_scenario(replace(cell.scenario, tracing=True))
    return scenario, run_workload(scenario, cell.workload)


def _spread(summary):
    return {key: summary[key] for key in ("count", "mean", "p95")}


def _mapping_ready_time(scenario, record):
    """When the forward mapping became usable at the source after this
    flow: E2's reading before it ran as a grid."""
    if record.destination is None:
        return None
    if scenario.config.control_plane == "pce":
        site = scenario.topology.site_of_eid(record.source)
        pce = scenario.control_plane.pces[site.index]
        candidates = [when for prefix, times in pce.stats.push_times.items()
                      if prefix.contains(record.destination)
                      for when in times if record.started_at <= when]
        return min(candidates) if candidates else None
    # Reactive systems: the itr.mapping-resolved trace after the first miss.
    for trace in scenario.sim.trace.of_kind("itr.mapping-resolved"):
        if trace.time >= record.dns_done_at and \
                trace.detail.get("eid") == str(record.destination):
            return trace.time
    return None


def _traced_wait(scenario, records):
    dns, waits = [], []
    for record in records:
        if record.failed or record.dns_elapsed is None:
            continue
        ready = _mapping_ready_time(scenario, record)
        if ready is None:
            continue  # cache hit from an earlier flow: no resolution to time
        dns.append(record.dns_elapsed)
        waits.append(max(0.0, ready - record.dns_done_at))
    if not waits:
        return None
    overlapped = sum(wait <= 1e-6 for wait in waits)
    return {**_spread(summarize(waits)), "dns_mean": summarize(dns)["mean"],
            "overlap": overlapped / len(waits)}


def _traced_completion(scenario):
    """Per reverse multicast, the time until the announced prefix was
    installed at as many ETRs as a site has siblings, matched world-wide
    in the trace: E8's reading before it ran as a grid."""
    trace = scenario.sim.trace
    installs = [record for record in trace.of_kind("itr.mapping-installed")
                if record.detail.get("origin") == "reverse-multicast"]
    siblings = e8.PROVIDERS_PER_SITE - 1
    completions = []
    for event in trace.of_kind("etr.reverse-multicast"):
        prefix = event.detail["prefix"]
        arrivals = sorted(record.time for record in installs
                          if record.detail.get("prefix") == prefix
                          and record.time >= event.time)
        if len(arrivals) >= siblings:
            completions.append(arrivals[siblings - 1] - event.time)
    return _spread(summarize(completions)) if completions else None


@pytest.mark.parametrize("seed", (23, 1, 2, 3, 5, 12))
def test_e2_waits_equal_the_trace_reading(seed, monkeypatch):
    cells = _grid_cells(monkeypatch, e2.run_e2, seed)
    assert {cell.scenario.control_plane for cell, _result in cells} \
        == set(e2.SYSTEMS)
    for cell, result in cells:
        scenario, records = _traced(cell)
        assert result["metrics"]["mapping_wait"] \
            == _traced_wait(scenario, records), cell.cell_id
        scenario.teardown()
    # Both kinds of plane measured something to compare.
    assert all(result["metrics"]["mapping_wait"] for _cell, result in cells)


@pytest.mark.parametrize("seed", (97, 1, 2, 3, 5, 8, 12))
def test_e8_completions_equal_the_trace_reading(seed, monkeypatch):
    (pce, pce_result), (alt, alt_result) = _grid_cells(monkeypatch, e8.run_e8,
                                                        seed)
    scenario, _records = _traced(pce)
    completion = _traced_completion(scenario)
    assert completion is not None
    assert pce_result["metrics"]["reverse_completion"] == completion
    scenario.teardown()
    scenario, _records = _traced(alt)
    assert alt_result["metrics"]["resolution_latency"] == _spread(summarize(
        scenario.mapping_system.stats.resolution_latencies))
    scenario.teardown()
