"""Tests for engine-owned periodic tasks: ticking, drain semantics, restore."""

import pytest

from repro.sim import Simulator


def make_counter(sim, period=1.0, name=None):
    hits = []
    task = sim.periodic(lambda: hits.append(sim.now), period, name=name)
    return task, hits


def test_first_tick_fires_one_period_after_start():
    sim = Simulator()
    task, hits = make_counter(sim, period=0.5)
    task.start()
    assert task.next_fire == 0.5
    sim.run(until=2.0)
    assert hits == [0.5, 1.0, 1.5, 2.0]
    with pytest.raises(ValueError):
        sim.periodic(lambda: None, 0.0)


def test_start_is_idempotent_and_stop_disarms():
    sim = Simulator()
    task, hits = make_counter(sim)
    task.start()
    task.start()
    sim.run(until=1.0)
    assert hits == [1.0]
    task.stop()
    assert not task.armed
    sim.run(until=5.0)
    assert hits == [1.0]  # the pending tick was invalidated


def test_callback_may_stop_its_own_task():
    sim = Simulator()
    fired = []

    def tick():
        fired.append(sim.now)
        task.stop()

    task = sim.periodic(tick, 1.0)
    task.start()
    sim.run(until=10.0)
    assert fired == [1.0]
    assert not task.armed


def test_restart_after_stop_rearms_from_now():
    sim = Simulator()
    task, hits = make_counter(sim, period=1.0)
    task.start()
    sim.run(until=1.5)
    task.stop()
    task.start()
    assert task.next_fire == 2.5
    sim.run(until=3.0)
    assert hits == [1.0, 2.5]


def test_armed_task_does_not_keep_drain_alive():
    """run() with no until treats periodic ticks as background, not work."""
    sim = Simulator()
    task, hits = make_counter(sim, period=0.5)
    task.start()
    assert sim.run() == 0.0   # nothing foreground: returns immediately
    assert hits == []
    assert task.armed


def test_drain_fires_ticks_that_precede_foreground_work():
    """Time order is preserved during a drain: earlier ticks fire first."""
    sim = Simulator()
    task, hits = make_counter(sim, period=1.0)
    task.start()
    order = []
    sim.call_in(2.5, order.append, "event")
    sim.run()
    assert hits == [1.0, 2.0]      # ticks before the event fired in order
    assert order == ["event"]
    assert sim.now == 2.5
    assert task.armed              # still armed for the next run(until=...)


def test_tick_spawned_work_extends_the_drain():
    sim = Simulator()
    seen = []
    task = sim.periodic(
        lambda: sim.call_in(0.1, lambda: seen.append(sim.now)), 1.0)
    task.start()
    sim.call_in(1.5, seen.append, "anchor")
    sim.run()
    # tick@1.0 scheduled foreground work at 1.1, which the drain completed.
    assert seen == [1.1, "anchor"]


def test_ticks_count_as_processed_events():
    sim = Simulator()
    task, _hits = make_counter(sim, period=1.0)
    task.start()
    sim.run(until=3.0)
    assert sim.processed_events == 3


def test_snapshot_requires_drained_foreground_only():
    """Armed periodic tasks are fine to checkpoint; pending events are not."""
    sim = Simulator()
    task, _hits = make_counter(sim)
    task.start()
    state = sim.snapshot_state()   # no foreground: OK despite the armed task
    assert state is not None
    sim.call_in(1.0, lambda: None)
    with pytest.raises(RuntimeError):
        sim.snapshot_state()


def test_restore_rearms_timers_identically():
    """A restored engine ticks at exactly the instants the original would."""

    def run_ticks(sim, task, hits):
        sim.run(until=sim.now + 3.0)
        return list(hits)

    sim = Simulator(seed=3)
    task, hits = make_counter(sim, period=0.7)
    task.start()
    checkpoint = sim.snapshot_state()
    expected = run_ticks(sim, task, hits)
    assert expected == pytest.approx([0.7, 1.4, 2.1, 2.8])

    sim.restore_state(checkpoint)
    hits.clear()
    assert sim.now == 0.0 and task.next_fire == 0.7
    assert run_ticks(sim, task, hits) == expected


def test_restore_rearms_after_mid_flight_checkpoint():
    sim = Simulator()
    task, hits = make_counter(sim, period=1.0)
    task.start()
    sim.run(until=2.5)
    checkpoint = sim.snapshot_state()
    sim.run(until=5.0)
    assert hits == [1.0, 2.0, 3.0, 4.0, 5.0]
    sim.restore_state(checkpoint)
    hits.clear()
    sim.run(until=5.0)
    assert hits == [3.0, 4.0, 5.0]


def test_restore_drops_stopped_tasks_pending_ticks():
    sim = Simulator()
    task, hits = make_counter(sim)
    task.start()
    sim.run(until=1.0)
    task.stop()
    checkpoint = sim.snapshot_state()
    sim.restore_state(checkpoint)
    assert not task.armed
    sim.call_in(3.0, lambda: None)
    sim.run()
    assert hits == [1.0]


def test_restore_rejects_task_count_mismatch():
    sim = Simulator()
    checkpoint = sim.snapshot_state()
    sim.periodic(lambda: None, 1.0)
    with pytest.raises(RuntimeError):
        sim.restore_state(checkpoint)


def test_two_tasks_same_time_fire_in_registration_arm_order():
    sim = Simulator()
    order = []
    a = sim.periodic(lambda: order.append("a"), 1.0, name="a")
    b = sim.periodic(lambda: order.append("b"), 1.0, name="b")
    a.start()
    b.start()
    sim.run(until=2.0)
    assert order == ["a", "b", "a", "b"]
    assert sim.periodic_tasks == (a, b)


def test_tick_interleaves_deterministically_with_same_time_event():
    """A tick and an event at the same instant break the tie by sequence."""
    sim = Simulator()
    order = []
    task = sim.periodic(lambda: order.append("tick"), 1.0)
    task.start()                       # entry scheduled first
    sim.call_in(1.0, order.append, "event")
    sim.run()
    assert order == ["tick", "event"]
