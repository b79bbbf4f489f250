"""Tests for the experiment layer: scenarios, workloads, and small driver runs."""

import importlib
import inspect
from types import SimpleNamespace

import pytest

from repro.experiments import ScenarioConfig, WorkloadConfig, build_scenario, run_workload
from repro.experiments import sweep
from repro.experiments.scenario import CONTROL_PLANES
from repro.experiments.sweep import run_sweep
from repro.experiments.workload import classify_first_packet


@pytest.mark.parametrize("control_plane", CONTROL_PLANES)
def test_build_scenario_each_control_plane(control_plane):
    config = ScenarioConfig(control_plane=control_plane, num_sites=3, seed=3)
    scenario = build_scenario(config)
    assert len(scenario.topology.sites) == 3
    if control_plane == "pce":
        assert scenario.control_plane is not None
        assert len(scenario.control_plane.pces) == 3
    elif control_plane == "plain":
        assert scenario.control_plane is None and scenario.mapping_system is None
    else:
        assert scenario.mapping_system is not None
        assert scenario.mapping_system.name == control_plane


def test_unknown_control_plane_rejected():
    with pytest.raises(ValueError, match="control_plane 'bogus'"):
        ScenarioConfig(control_plane="bogus")


def test_unknown_miss_policy_rejected():
    with pytest.raises(ValueError, match="miss_policy 'bogus'"):
        ScenarioConfig(control_plane="alt", miss_policy="bogus")


@pytest.mark.parametrize("control_plane,expect_loss", [
    ("pce", False), ("nerd", False), ("plain", False), ("alt", True),
])
def test_workload_loss_profile(control_plane, expect_loss):
    config = ScenarioConfig(control_plane=control_plane, num_sites=4, seed=9,
                            miss_policy="drop")
    scenario = build_scenario(config)
    records = run_workload(scenario, WorkloadConfig(num_flows=15, arrival_rate=10.0))
    assert len(records) == 15
    assert all(not r.failed for r in records)
    assert {r.flow_kind for r in records} == {"constant"}  # the default pacing
    lost = sum(r.packets_lost for r in records)
    if expect_loss:
        assert lost > 0
    else:
        assert lost == 0


def test_workload_tcp_mode_records_setup():
    config = ScenarioConfig(control_plane="pce", num_sites=3, seed=13)
    scenario = build_scenario(config)
    records = run_workload(scenario, WorkloadConfig(num_flows=8, arrival_rate=5.0,
                                                    mode="tcp"))
    ok = [r for r in records if not r.failed]
    assert ok
    for record in ok:
        assert record.setup_elapsed is not None
        assert record.dns_elapsed is not None
        assert record.established_at >= record.dns_done_at


def test_workload_dest_site_pinning():
    config = ScenarioConfig(control_plane="plain", num_sites=4, seed=13)
    scenario = build_scenario(config)
    records = run_workload(scenario, WorkloadConfig(num_flows=10, dest_site=2))
    dest = scenario.topology.sites[2]
    for record in records:
        assert dest.eid_prefix.contains(record.destination)
        assert not dest.eid_prefix.contains(record.source)


def test_workload_source_site_pinning():
    config = ScenarioConfig(control_plane="plain", num_sites=4, seed=13)
    scenario = build_scenario(config)
    records = run_workload(scenario, WorkloadConfig(num_flows=10, source_site=1))
    source = scenario.topology.sites[1]
    for record in records:
        assert source.eid_prefix.contains(record.source)


@pytest.mark.parametrize("miss_policy, fates", (
    ("queue", ["queued-then-sent", "stuck-in-queue"]),
    ("drop", ["dropped", "dropped"]),
))
def test_a_pce_world_runs_the_miss_policy_its_config_names(miss_policy, fates):
    """A pce ITR that misses applies ``config.miss_policy``.

    The push leads a flow's first packet to the ITR by one intra-site hop,
    so a mapping TTL below that lead makes every first packet miss.  Both
    flows go from site 1 to site 0: under ``queue`` the second flow's push
    flushes the first flow's packet, and nothing flushes the second's.
    """
    config = ScenarioConfig(control_plane="pce", num_sites=2,
                            hosts_per_site=1, mapping_ttl=1e-4,
                            miss_policy=miss_policy)
    scenario = build_scenario(config)
    records = run_workload(scenario, WorkloadConfig(
        num_flows=2, arrival_rate=2.0, packets_per_flow=1, source_site=1,
        dest_site=0))
    assert [classify_first_packet(record) for record in records] == fates
    assert all(xtr.miss_policy is scenario.miss_policy
               for xtr in scenario.iter_xtrs())


def test_workload_deterministic_per_seed():
    def run_once():
        config = ScenarioConfig(control_plane="alt", num_sites=4, seed=77,
                                miss_policy="drop")
        scenario = build_scenario(config)
        records = run_workload(scenario, WorkloadConfig(num_flows=12))
        return [(str(r.source), str(r.destination), r.packets_delivered)
                for r in records]

    assert run_once() == run_once()


def test_classify_first_packet_categories():
    record = type("R", (), {})()
    record.failed = False
    record.packets_sent = 3
    record.packets_delivered = 3
    record.first_packet_fates = ["dropped-at-itr"]
    assert classify_first_packet(record) == "dropped"
    record.first_packet_fates = ["queued-at-itr", "flushed-after-queue", "encapsulated"]
    assert classify_first_packet(record) == "queued-then-sent"
    record.first_packet_fates = ["carried-over-cp"]
    assert classify_first_packet(record) == "carried-over-cp"
    record.first_packet_fates = ["encapsulated", "decapsulated"]
    assert classify_first_packet(record) == "sent-immediately"
    record.first_packet_fates = []
    assert classify_first_packet(record) == "sent-immediately"  # plain mode
    record.failed = True
    assert classify_first_packet(record) == "not-sent"


def test_flow_cut_off_before_dns_completes_is_failed():
    """Regression: FlowRecord's Optional fields stay None on early failure.

    With no grace period the last flows are cut off mid-DNS: their
    ``destination``/``dns_done_at`` must remain None *and* ``failed`` must
    be set, so every consumer (first-packet classification, sweep metric
    sums, the E2 overlap measurement) can rely on the flag instead of
    tripping over a None timestamp.
    """
    config = ScenarioConfig(control_plane="pce", num_sites=3, seed=41)
    scenario = build_scenario(config)
    records = run_workload(scenario, WorkloadConfig(num_flows=10,
                                                    arrival_rate=50.0,
                                                    grace_period=0.0))
    cut_off = [r for r in records if r.dns_done_at is None]
    assert cut_off, "expected at least one flow cut off mid-DNS"
    for record in cut_off:
        assert record.failed
        assert record.destination is None and record.dns_elapsed is None
        assert record.bytes_budget == 0 and record.flow_kind is None
        # Every downstream consumer of the Optional fields stays happy.
        assert classify_first_packet(record) == "not-sent"
    # E2's wait has nothing to time on them.
    assert sweep._mapping_wait(SimpleNamespace(
        world=scenario, records=cut_off,
        xtrs=list(scenario.iter_xtrs()))) is None
    # The sweep's per-cell sums never touch the None fields either.
    assert sum(r.bytes_sent for r in records) >= 0
    assert sum(1 for r in records if r.failed) >= len(cut_off)


def test_e4_reports_link_utilization_from_byte_accounting():
    from repro.experiments import e4_te_flexibility as e4

    rated = e4.run_e4(num_sites=4, num_flows=16, seed=53)
    # Unrated links can't accumulate busy time: utilization collapses to 0
    # while the byte shares (from per-flow accounting) survive.
    unrated = e4.run_e4(num_sites=4, num_flows=16, seed=53,
                        access_rate_bps=None)
    assert [row["variant"] for row in rated] \
        == [row["variant"] for row in unrated] \
        == [label for label, _overrides in e4.VARIANTS]
    for row in rated:
        assert row["inbound"]["util_peak"] > 0.0
        assert sum(row["inbound"]["shares"]) == pytest.approx(1.0)
    for row in unrated:
        assert row["inbound"]["util_peak"] == 0.0
        assert sum(row["inbound"]["shares"]) == pytest.approx(1.0)


def test_access_byte_shares_sum_to_one_under_traffic():
    config = ScenarioConfig(control_plane="pce", num_sites=3, seed=5)
    scenario = build_scenario(config)
    run_workload(scenario, WorkloadConfig(num_flows=10, dest_site=0))
    te = sweep._access_te(SimpleNamespace(
        world=scenario, workload=WorkloadConfig(dest_site=0)))
    shares = te["inbound"]["shares"]
    assert sum(shares) == pytest.approx(1.0)


def test_small_driver_runs_e2_and_e8():
    """Two of the scripted drivers at small sizes, shape-checked fast (the
    default report pins every driver's table at full size)."""
    from repro.experiments import e2_overlap as e2
    from repro.experiments import e8_reverse_mapping as e8

    rows = e2.run_e2(num_sites=4, num_flows=8)
    assert e2.check_shape(rows) == [] or all("deeper" in f for f in e2.check_shape(rows))
    rows = e8.run_e8(num_sites=3, num_flows=8)
    assert e8.check_shape(rows) == []


@pytest.mark.parametrize("module, runner", (
    ("e1_packet_loss", "run_e1"), ("e3_setup_latency", "run_e3"),
    ("e6_pce_overhead", "run_e6"), ("e7_cache_aging", "run_e7"),
    ("e2_overlap", "run_e2"), ("e4_te_flexibility", "run_e4"),
    ("e5_overhead", "run_e5"), ("e8_reverse_mapping", "run_e8"),
))
def test_variant_experiments_run_one_grid(module, runner, monkeypatch):
    """E1-E8 but E9 run all their variants as one grid: one ``run_sweep``
    call (through ``grid_aggregates``), each of its aggregates one row
    (E5's sizes are bundles too, so it takes no size)."""
    module = importlib.import_module(f"repro.experiments.{module}")
    payloads = []

    def spy(grid, **kwargs):
        payloads.append(run_sweep(grid, **kwargs))
        return payloads[-1]
    monkeypatch.setattr(sweep, "run_sweep", spy)
    runner = getattr(module, runner)
    sizes = {"num_sites": 3, "num_flows": 4}
    rows = runner(**{key: value for key, value in sizes.items()
                     if key in inspect.signature(runner).parameters})
    assert len(payloads) == 1
    assert len(rows) == len(payloads[0]["aggregates"]) > 1
