"""Tests for the simulation engine: event ordering, clock, run semantics."""

import gc
import random
import types

import pytest
from process_kernel import Process

from repro.lisp.control.base import MAP_REQUEST_RETRIES, ControlStats, _MapRequestLoop
from repro.sim import Event, SimulationError, Simulator
from repro.sim.errors import EventAlreadyTriggered

NAN = float("nan")


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    fired = []
    event = sim.timeout(5.0, value="hello")
    event.callbacks.append(lambda ev: fired.append((sim.now, ev.value)))
    sim.run()
    assert fired == [(5.0, "hello")]
    assert sim.now == 5.0


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    for delay in (3.0, 1.0, 2.0):
        sim.call_in(delay, order.append, delay)
    sim.run()
    assert order == [1.0, 2.0, 3.0]


def test_same_time_events_fire_in_insertion_order():
    sim = Simulator()
    order = []
    for tag in range(10):
        sim.call_in(1.0, order.append, tag)
    sim.run()
    assert order == list(range(10))


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    sim.call_in(10.0, lambda: None)
    sim.run(until=4.0)
    assert sim.now == 4.0
    sim.run()
    assert sim.now == 10.0


def test_run_until_processes_events_at_boundary():
    sim = Simulator()
    hits = []
    sim.call_in(4.0, hits.append, "at-4")
    sim.run(until=4.0)
    assert hits == ["at-4"]


def test_run_before_stops_short_of_its_instant_and_leaves_the_clock():
    sim = Simulator()
    hits = []
    for when in (1.0, 2.5, 3.0, 4.0):
        sim.call_at(when, hits.append, when)
    sim.run_before(3.0)
    assert hits == [1.0, 2.5] and sim.now == 2.5
    sim.run_before(0.5)  # nothing queued that early: a no-op
    assert sim.now == 2.5
    sim.run(until=3.5)
    assert hits == [1.0, 2.5, 3.0] and sim.now == 3.5


def test_a_reservation_queues_as_if_when_it_was_taken():
    """Reserved keys sort after what was queued before the reservation and
    before what was queued after it, however late they are used."""
    sim = Simulator()
    order = []
    sim.call_at(2.0, order.append, "before")
    keys = sim.reserve(2)
    sim.call_at(2.0, order.append, "after")
    sim.run_before(2.0)
    keys.call_at(2.0, order.append, "reserved-1")
    keys.call_at(2.0, order.append, "reserved-2")
    with pytest.raises(RuntimeError):
        keys.call_at(2.0, order.append, "one too many")
    with pytest.raises(ValueError):
        sim.reserve(1).call_at(-1.0, order.append, "in the past")
    sim.run()
    assert order == ["before", "reserved-1", "reserved-2", "after"]


def test_run_until_in_past_raises():
    sim = Simulator()
    sim.call_in(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.run(until=0.5)


def test_call_at_absolute_time():
    sim = Simulator()
    hits = []
    sim.call_in(2.0, lambda: sim.call_at(7.0, lambda: hits.append(sim.now)))
    sim.run()
    assert hits == [7.0]


def test_call_at_lands_on_when_exactly():
    """``now + (when - now)`` is an ulp off ``when`` for ~2% of these pairs."""
    rng = random.Random(2108)
    sim = Simulator()
    off_by_an_ulp = 0
    seen = []

    def schedule(when):
        sim.call_at(when, lambda: seen.append((sim.now, when)))

    for _ in range(20_000):
        when = rng.uniform(0.0, 50.0)
        now = rng.uniform(0.0, when)
        off_by_an_ulp += now + (when - now) != when
        sim.call_at(now, schedule, when)
    sim.run()
    assert len(seen) == 20_000
    assert all(now == when for now, when in seen)
    assert off_by_an_ulp > 100  # the scan does hold pairs the old sum missed


def test_call_at_past_raises():
    sim = Simulator()
    sim.call_in(5.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.call_at(1.0, lambda: None)


def test_event_succeed_twice_raises():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(EventAlreadyTriggered):
        event.succeed(2)


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_timeout_label_is_built_on_demand():
    sim = Simulator()
    timeout = sim.timeout(0.5)
    assert repr(timeout) == "<Timeout(0.5) triggered>"
    assert repr(sim.event()) == "<Event pending>"


def test_scheduled_calls_return_nothing_and_a_timeout_beside_one_runs_after_it():
    sim = Simulator()
    order = []
    assert sim.call_in(2.0, order.append, "call_in") is None
    assert sim.call_at(2.0, order.append, "call_at") is None

    def waiter():
        value = yield sim.timeout(2.0, value="slept")
        order.append(("resumed", value, sim.now))

    Process(sim, waiter())
    sim.run()
    # Queued first, the calls ran first; the process resumed after them.
    assert order == ["call_in", "call_at", ("resumed", "slept", 2.0)]

    with pytest.raises(ValueError):
        sim.call_in(-1.0, order.append, "never")

    def sleeps_on_a_call():
        yield sim.call_in(1.0, order.append, "ran anyway")

    process = Process(sim, sleeps_on_a_call())
    sim.run()
    # There is nothing to wait on: the yielded ``None`` fails the process.
    assert isinstance(process.exception, SimulationError)
    assert "non-event None" in str(process.exception)
    assert order[-1] == "ran anyway"


def test_a_pending_call_is_two_tracked_objects_and_no_event():
    """What the scale cells rest on, pinned without a clock: the entry
    tuple and its argument tuple are all a pending call keeps alive."""
    sim = Simulator(tracing=False)
    pending = 10_000

    def callback(*_args):
        raise AssertionError("never run")

    def census():
        tracked = gc.get_objects()
        return len(tracked), sum(isinstance(obj, Event) for obj in tracked)

    gc.collect()
    gc.disable()
    try:
        objects_before, events_before = census()
        for index in range(pending):
            sim.call_in(1.0 + index, callback, index, sim)
        objects_after, events_after = census()
    finally:
        gc.enable()
    assert len(sim._queue) == pending
    assert objects_after - objects_before <= 2 * pending
    assert events_after == events_before


@pytest.mark.parametrize("schedule", [
    lambda sim: sim.call_in(NAN, lambda: None),
    lambda sim: sim.call_at(NAN, lambda: None),
    lambda sim: sim.timeout(NAN),
], ids=["call_in", "call_at", "timeout"])
def test_nan_is_refused_at_every_way_into_the_queue(schedule):
    sim = Simulator()
    with pytest.raises(ValueError):
        schedule(sim)
    assert sim._queue == [] and sim.serializable
    assert sim.now == 0.0 and sim.run() == 0.0


def test_a_trigger_takes_no_delay():
    """A later trigger is ``call_in(delay, event.succeed)``, whose delay is
    checked; ``succeed`` has none to smuggle a NaN past it."""
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().succeed(delay=NAN)
    assert sim._queue == [] and sim.serializable


def test_run_until_nan_is_refused_and_runs_nothing():
    sim = Simulator()
    hits = []
    sim.call_in(1.0, hits.append, "ran")
    with pytest.raises(ValueError, match="in the past"):
        sim.run(until=NAN)
    assert sim.now == 0.0 and hits == [] and len(sim._queue) == 1


def test_infinity_is_still_a_legal_time():
    sim = Simulator()
    hits = []
    sim.call_in(float("inf"), hits.append, "call_in")
    sim.call_at(float("inf"), hits.append, "call_at")
    sim.timeout(float("inf")).callbacks.append(
        lambda _event: hits.append("timeout"))
    sim.call_in(1.0, hits.append, "finite")
    assert sim.run(until=float("inf")) == float("inf")
    assert hits == ["finite", "call_in", "call_at", "timeout"]


def test_processed_events_counter():
    sim = Simulator()
    for _ in range(5):
        sim.call_in(1.0, lambda: None)
    sim.run()
    assert sim.processed_events == 5


def _map_request(sim, timeout, sent):
    """A Map-Request exchange on a system of just the fields it reads; the
    nonces it sends land in *sent*."""
    system = types.SimpleNamespace(sim=sim, _pending={}, stats=ControlStats())
    return system, _MapRequestLoop(system, sent.append, timeout)


def _answer(system, nonce, mapping):
    """What a Map-Reply handler does with the reply to *nonce*."""
    loop = system._pending.pop(nonce, None)
    if loop is not None:
        loop.answer(mapping)


def test_expiring_event_yields_the_sentinel_at_exactly_the_deadline():
    """An exchange nobody answers succeeds with ``None`` on its last
    attempt's deadline, and no nonce of it stays pending."""
    sim = Simulator()
    sent = []
    system, loop = _map_request(sim, 2.5, sent)
    resumed = []
    loop.callbacks.append(lambda event: resumed.append((sim.now, event.value)))
    sim.run()
    attempts = MAP_REQUEST_RETRIES + 1
    assert resumed == [(2.5 * attempts, None)]
    assert len(set(sent)) == attempts and system._pending == {}
    with pytest.raises(ValueError):
        _map_request(Simulator(), -1.0, [])


def test_expiring_event_reply_first_wins_and_the_expiry_is_a_noop():
    sim = Simulator()
    sent = []
    system, loop = _map_request(sim, 2.0, sent)
    resumed = []
    loop.callbacks.append(lambda event: resumed.append((sim.now, event.value)))
    sim.call_in(0.5, lambda: _answer(system, sent[0], "mapping"))
    sim.run(until=1.0)
    # The reply succeeded the exchange itself: one event for the reply,
    # one for the waiter's callback.
    assert resumed == [(0.5, "mapping")] and sim.processed_events == 2
    assert system.stats.resolution_latencies == [0.5]
    sim.run()
    assert sim.now == 2.0 and sim.processed_events == 3
    assert resumed == [(0.5, "mapping")] and len(sent) == 1


def test_expiring_event_same_timestamp_resolves_in_insertion_order():
    def race(deadline_first):
        sim = Simulator()
        sent = []
        if deadline_first:
            system, loop = _map_request(sim, 1.0, sent)
            sim.call_in(1.0, lambda: _answer(system, sent[0], "reply"))
        else:
            sim.call_in(1.0, lambda: _answer(system, sent[0], "reply"))
            system, loop = _map_request(sim, 1.0, sent)
        sim.run()
        return loop.value, len(sent)

    # The deadline went first: the reply found its nonce gone, and the
    # re-sent request went unanswered.
    assert race(deadline_first=True) == (None, MAP_REQUEST_RETRIES + 1)
    assert race(deadline_first=False) == ("reply", 1)


def test_pending_expiry_is_foreground_work():
    sim = Simulator()
    _system, loop = _map_request(sim, 3.0, [])
    assert len(sim._queue) == 1 and not sim.serializable
    with pytest.raises(RuntimeError):
        sim.snapshot_state()
    # No ``until``: the deadlines are drained, not skipped.
    assert sim.run() == 3.0 * (MAP_REQUEST_RETRIES + 1)
    assert loop._triggered and loop.value is None
    assert sim.serializable


@pytest.mark.parametrize("queue", [
    lambda sim: sim.call_in(1.0, lambda: None),
    lambda sim: sim.call_at(2.0, lambda: None),
    lambda sim: sim.timeout(0.0),
    lambda sim: sim.event().succeed(),
    lambda sim: sim.reserve(1).call_at(0.5, lambda: None),
], ids=["call_in", "call_at", "timeout", "succeed", "reservation"])
def test_the_engine_refuses_a_checkpoint_while_anything_is_queued(queue):
    """Every entry is work in flight; a drained engine checkpoints, and a
    restore drops whatever a run left queued."""
    sim = Simulator()
    state = sim.snapshot_state()
    queue(sim)
    assert not sim.serializable
    with pytest.raises(RuntimeError, match="1 queued events"):
        sim.snapshot_state()
    sim.call_in(3.0, lambda: None)
    sim.restore_state(state)
    assert sim._queue == [] and sim.serializable
    assert sim.snapshot_state() == state


def test_deterministic_event_interleaving():
    def build_and_run():
        sim = Simulator(seed=7)
        order = []
        rng = sim.rng.stream("test")
        for tag in range(50):
            sim.call_in(rng.uniform(0, 10), order.append, tag)
        sim.run()
        return order

    assert build_and_run() == build_and_run()
