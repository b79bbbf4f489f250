"""Tests for generator-based processes."""

import pytest
from process_kernel import Process

from repro.sim import Simulator
from repro.sim.errors import SimulationError


def test_process_runs_and_returns_value():
    sim = Simulator()

    def worker():
        yield sim.timeout(2.0)
        return "done"

    proc = Process(sim, worker())
    sim.run()
    assert proc.processed and proc.ok
    assert proc.value == "done"
    assert sim.now == 2.0


def test_process_receives_timeout_value():
    sim = Simulator()
    seen = []

    def worker():
        value = yield sim.timeout(1.0, value="payload")
        seen.append(value)

    Process(sim, worker())
    sim.run()
    assert seen == ["payload"]


def test_process_waits_on_another_process():
    sim = Simulator()

    def child():
        yield sim.timeout(3.0)
        return 42

    def parent():
        result = yield Process(sim, child())
        return result * 2

    proc = Process(sim, parent())
    sim.run()
    assert proc.value == 84


def test_process_waiting_on_already_finished_process():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return "early"

    child_proc = Process(sim, child())

    def parent():
        yield sim.timeout(5.0)
        result = yield child_proc  # already processed by now
        return result

    parent_proc = Process(sim, parent())
    sim.run()
    assert parent_proc.value == "early"
    assert sim.now == 5.0


def test_process_sees_event_failure_as_exception():
    sim = Simulator()
    outcome = []

    def crash():
        yield sim.timeout(1.0)
        raise RuntimeError("kaput")

    def worker():
        doomed = Process(sim, crash())
        try:
            yield doomed
        except RuntimeError as exc:
            outcome.append(str(exc))

    Process(sim, worker())
    sim.run()
    assert outcome == ["kaput"]


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def worker():
        yield "not an event"

    proc = Process(sim, worker())
    sim.run()
    assert proc.processed and not proc.ok
    assert isinstance(proc.exception, SimulationError)


def test_yielding_foreign_event_fails_process():
    sim = Simulator()
    other = Simulator()

    def worker():
        yield other.timeout(1.0)

    proc = Process(sim, worker())
    sim.run()
    assert not proc.ok
    assert isinstance(proc.exception, SimulationError)


def test_many_processes_make_progress():
    sim = Simulator()
    finished = []

    def worker(index):
        for _ in range(index % 5 + 1):
            yield sim.timeout(0.1 * (index + 1))
        finished.append(index)

    for index in range(100):
        Process(sim, worker(index))
    sim.run()
    assert sorted(finished) == list(range(100))


def test_uncaught_exception_fails_process_and_propagates_to_waiter():
    sim = Simulator()

    def crasher():
        yield sim.timeout(1.0)
        raise RuntimeError("boom")

    caught = []

    def supervisor():
        try:
            yield Process(sim, crasher())
        except RuntimeError as exc:
            caught.append(str(exc))

    crash_proc = Process(sim, crasher())
    Process(sim, supervisor())
    sim.run()
    assert caught == ["boom"]
    assert crash_proc.processed and not crash_proc.ok
    assert isinstance(crash_proc.exception, RuntimeError)
    assert len(sim.trace.of_kind("process.failed")) == 2


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        Process(sim, lambda: None)
