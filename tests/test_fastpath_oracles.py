"""Differential oracles for the forwarding fast path.

Each test drives a fast path (the ``Fib`` hash tables and lookup memo, the
inlined engine dispatch loop, the cached ``Packet.size_bytes``, the ``Node``
local-address set) and a deliberately naive model side by side over seeded
random input, and asserts they never disagree.  Stdlib only.
"""

import copy
import heapq
import pickle
import random
from dataclasses import asdict

import pytest

from repro.experiments.scenario import ScenarioConfig
from repro.experiments.workload import WorkloadConfig, run_workload
from repro.experiments import worldbuild
from repro.experiments.worldbuild import (SnapshotError, SnapshotStore,
                                          build_world, deserialize_world,
                                          restore_world, serialize_world,
                                          snapshot_fingerprint)
from repro.lisp.headers import decapsulate, encapsulate
from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.net.errors import NoRouteError
from repro.net.fib import Fib, FibEntry
from repro.net.host import Host
from repro.net.packet import IPv4Header, Packet, UDPHeader, udp_packet
from repro.sim.engine import Simulator
from repro.sim.errors import EmptySchedule

# --------------------------------------------------------------------- #
# Fib lookup memo vs brute-force longest-prefix match
# --------------------------------------------------------------------- #


def _mask(length):
    return ((1 << 32) - 1) << (32 - length) & ((1 << 32) - 1)


def _brute_force_lpm(table, value):
    """The entry of the longest prefix in *table* covering *value*."""
    best = None
    for (network, length), entry in table.items():
        if value & _mask(length) == network and (best is None or length > best[0]):
            best = (length, entry)
    return None if best is None else best[1]


def _random_prefix(rng):
    # A narrow pool (second octet 0-3) so inserts, removes and lookups
    # keep hitting each other's prefixes.
    length = rng.choice((0, 8, 12, 16, 16, 24, 24, 32))
    value = (10 << 24) | (rng.randrange(4) << 16) | (rng.randrange(4) << 8) \
        | rng.randrange(4)
    return IPv4Prefix(value & _mask(length), length)


def _random_address(rng):
    return IPv4Address((10 << 24) | (rng.randrange(5) << 16)
                       | (rng.randrange(4) << 8) | rng.randrange(4))


def _check_lookup(fib, table, address, rng):
    expected = _brute_force_lpm(table, address.value)
    # Alternate the argument form: the memo must key on the value, not on
    # the object or its type.
    argument = rng.choice((address, str(address), int(address)))
    assert fib.lookup(argument, default=None) is expected
    if expected is None:
        with pytest.raises(NoRouteError):
            fib.lookup(argument)
        marker = object()
        assert fib.lookup(argument, default=marker) is marker
    else:
        assert fib.lookup(argument) is expected


@pytest.mark.parametrize("seed", range(6))
def test_fib_memo_matches_brute_force_under_churn(seed):
    rng = random.Random(seed)
    fib = Fib()
    table = {}
    # One checkpoint at a time, as worldbuild keeps them: restore_state's
    # "version unchanged, nothing to do" shortcut assumes a single target.
    checkpoint = None
    for _step in range(1500):
        action = rng.random()
        if action < 0.25:
            prefix = _random_prefix(rng)
            entry = FibEntry(prefix, f"if{rng.randrange(1000)}")
            fib.insert(entry)
            table[(prefix.network.value, prefix.length)] = entry
        elif action < 0.40:
            prefix = _random_prefix(rng)
            removed = fib.remove(prefix)
            assert removed is table.pop((prefix.network.value, prefix.length), None)
        elif action < 0.42:
            fib.clear()
            table.clear()
        elif action < 0.45:
            checkpoint = (fib.snapshot_state(), dict(table))
        elif action < 0.48 and checkpoint is not None:
            state, saved = checkpoint
            fib.restore_state(state)
            # Restore re-inserts the checkpointed entry objects.
            table = dict(saved)
        else:
            _check_lookup(fib, table, _random_address(rng), rng)
        assert len(fib) == len(table)
    # Every address of the pool, once more, against the final table.
    for second in range(5):
        for third in range(4):
            for fourth in range(4):
                address = IPv4Address((10 << 24) | (second << 16)
                                      | (third << 8) | fourth)
                _check_lookup(fib, table, address, rng)


def test_fib_memoized_miss_is_covered_by_a_later_insert():
    fib = Fib()
    fib.add("10.1.0.0/16", "if1")
    address = IPv4Address("10.2.3.4")
    assert fib.lookup(address, default=None) is None      # cached as a miss
    assert fib.lookup(address, default=None) is None      # ... answered from it
    with pytest.raises(NoRouteError):
        fib.lookup(address)
    fib.add("10.2.0.0/16", "if2")
    assert fib.lookup(address).interface == "if2"
    fib.add("10.2.3.0/24", "if3")                          # more specific wins
    assert fib.lookup(address).interface == "if3"
    fib.remove("10.2.3.0/24")
    assert fib.lookup(address).interface == "if2"
    state = fib.snapshot_state()
    fib.clear()
    assert fib.lookup(address, default=None) is None
    fib.restore_state(state)
    assert fib.lookup(address).interface == "if2"


def test_fib_memo_is_lazy_and_dropped_on_mutation():
    fib = Fib()
    fib.add("10.0.0.0/8", "if0")
    assert fib._memo is None                 # idle tables carry no dict
    fib.lookup("10.0.0.1")
    assert fib._memo == {IPv4Address("10.0.0.1").value: fib.lookup("10.0.0.1")}
    fib.add("11.0.0.0/8", "if1")
    assert fib._memo is None
    fib.lookup("10.0.0.1")
    fib.restore_state(fib.snapshot_state())  # same version: table kept, memo dropped
    assert fib._memo is None


# --------------------------------------------------------------------- #
# Fib hash tables vs a reference dict: entries, probe order, copies
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", range(6))
def test_fib_entries_match_a_reference_dict_under_churn(seed):
    rng = random.Random(100 + seed)
    fib = Fib()
    table = {}
    assert fib.entries() == []
    checkpoint = None
    for _step in range(600):
        action = rng.random()
        if action < 0.50:                      # insert, or replace in place
            prefix = _random_prefix(rng)
            entry = FibEntry(prefix, f"if{rng.randrange(1000)}")
            fib.insert(entry)
            table[(prefix.network.value, prefix.length)] = entry
        elif action < 0.85:
            prefix = _random_prefix(rng)
            fib.remove(prefix)
            table.pop((prefix.network.value, prefix.length), None)
        elif action < 0.88:
            fib.clear()
            table = {}
        elif action < 0.94:
            checkpoint = fib.snapshot_state()
        elif checkpoint is not None:
            fib.restore_state(checkpoint)
            table = {(entry.prefix.network.value, entry.prefix.length): entry
                     for entry in checkpoint[1]}
        # The same entry objects, in (network, length) order.
        stored = fib.entries()
        assert len(stored) == len(table) == len(fib)
        assert all(entry is table[key]
                   for entry, key in zip(stored, sorted(table), strict=True))


def test_fib_length_leaves_the_probe_order_with_its_last_route():
    fib = Fib()
    table = {}

    def add(text, tag):
        prefix = IPv4Prefix(text)
        entry = FibEntry(prefix, tag)
        fib.insert(entry)
        table[(prefix.network.value, prefix.length)] = entry

    def remove(text):
        prefix = IPv4Prefix(text)
        assert fib.remove(prefix) is table.pop((prefix.network.value, prefix.length))

    def probed_lengths():
        return [bin(mask).count("1") for mask, _table in fib._probes]

    def check():
        for text in ("10.1.2.3", "10.1.9.9", "10.2.0.1", "11.0.0.1"):
            value = IPv4Address(text).value
            assert fib.lookup(text, default=None) is _brute_force_lpm(table, value)

    add("10.0.0.0/8", "if8")
    add("10.1.0.0/16", "if16")
    add("10.1.2.0/24", "if24a")
    add("10.1.3.0/24", "if24b")
    assert probed_lengths() == [24, 16, 8]
    check()
    remove("10.1.2.0/24")                      # one /24 is left: still probed
    assert probed_lengths() == [24, 16, 8]
    check()
    remove("10.1.3.0/24")                      # the last one: /24 is gone
    assert probed_lengths() == [16, 8]
    assert fib.lookup("10.1.2.3").interface == "if16"
    check()
    assert fib.remove("10.1.3.0/24") is None   # removing nothing changes nothing
    assert probed_lengths() == [16, 8]
    add("10.1.2.0/24", "if24c")                # the length reappears, in order
    add("10.1.2.3/32", "if32")
    assert probed_lengths() == [32, 24, 16, 8]
    assert fib.lookup("10.1.2.3").interface == "if32"
    assert fib.lookup("10.1.2.4").interface == "if24c"
    check()
    state = fib.snapshot_state()
    fib.clear()
    assert probed_lengths() == [] and fib.lookup("10.1.2.3", default=None) is None
    fib.restore_state(state)
    assert probed_lengths() == [32, 24, 16, 8]
    check()


def test_fib_entries_are_ordered_by_network_then_length():
    rng = random.Random(7)
    fib = Fib()
    for _ in range(200):
        fib.insert(FibEntry(_random_prefix(rng), "if"))
    fib.add("0.0.0.0/0", "default")
    keys = [(entry.prefix.network.value, entry.prefix.length)
            for entry in fib.entries()]
    assert keys == sorted(keys) and len(keys) == len(set(keys)) == len(fib)
    assert keys[0] == (0, 0)
    # A covering prefix sorts before the prefixes it covers at the same network.
    assert keys.index((10 << 24, 8)) < keys.index((10 << 24, 16))


@pytest.mark.parametrize("clone", (
    lambda fib: pickle.loads(pickle.dumps(fib, pickle.HIGHEST_PROTOCOL)),
    copy.deepcopy), ids=("pickle", "deepcopy"))
def test_fib_copies_preserve_lookups_len_and_version(clone):
    rng = random.Random(11)
    fib = Fib()
    for _ in range(300):
        if rng.random() < 0.7:
            fib.insert(FibEntry(_random_prefix(rng), f"if{rng.randrange(1000)}"))
        else:
            fib.remove(_random_prefix(rng))
    fib.lookup("10.1.2.3", default=None)       # a populated memo travels too
    twin = clone(fib)
    assert len(twin) == len(fib) and twin.version == fib.version
    assert [str(entry) for entry in twin.entries()] == \
        [str(entry) for entry in fib.entries()]
    for _ in range(300):
        address = _random_address(rng)
        ours = fib.lookup(address, default=None)
        theirs = twin.lookup(address, default=None)
        assert (ours is None) == (theirs is None)
        assert ours is None or str(ours) == str(theirs)
    twin.add("10.9.9.0/24", "only-the-twin")   # ... and the copy is independent
    assert len(twin) == len(fib) + 1
    assert twin.version == fib.version + 1


def test_v6_stamped_blob_is_rejected_and_rebuilt(tmp_path, monkeypatch):
    """Pickled ``Fib``s changed shape in schema 7: a blob stamped 6 must be
    a ``schema mismatch``, never unpickled into the new classes."""
    config = ScenarioConfig(control_plane="pce", num_sites=3, seed=5,
                            tracing=False)
    assert worldbuild.SNAPSHOT_SCHEMA >= 7
    with monkeypatch.context() as patch:
        patch.setattr(worldbuild, "SNAPSHOT_SCHEMA", 6)
        stale = serialize_world(build_world(config))
    with pytest.raises(SnapshotError, match="schema mismatch"):
        deserialize_world(stale, config)
    # Even filed under today's name, the store discards it and builds.
    path = tmp_path / f"{snapshot_fingerprint(config)}.world"
    path.write_bytes(stale)
    store = SnapshotStore(str(tmp_path))
    assert store.ensure(config) == "build"
    assert store.stats.invalidated == 1 and store.stats.builds == 1
    assert deserialize_world(path.read_bytes(), config) is not None


# --------------------------------------------------------------------- #
# Engine dispatch loop vs a plain (time, sequence) heap
# --------------------------------------------------------------------- #


class _HeapOracle:
    """The textbook event queue the engine must be equal to.

    One ``(time, sequence, ...)`` tuple heap; periodic tasks re-arm before
    their callback runs and stale ticks are discarded at pop time without
    advancing the clock or the count.
    """

    def __init__(self):
        self.now = 0.0
        self.heap = []
        self.sequence = 0
        self.foreground = 0
        self.processed = 0
        self.epochs = {}          # task label -> (armed, epoch, period)
        self.log = []

    def schedule(self, label, delay, kind=None):
        """Queue *label*; the engine's route 3 reaches it in two hops."""
        if kind is None:
            kind = "trigger" if int(label[1:]) % 4 == 3 else "event"
        self.sequence += 1
        self.foreground += 1
        heapq.heappush(self.heap, (self.now + delay, self.sequence, kind,
                                   label, None))

    def arm(self, label, period, when):
        _armed, epoch, _period = self.epochs.get(label, (False, 0, period))
        self.epochs[label] = (True, epoch + 1, period)
        self.sequence += 1
        heapq.heappush(self.heap, (when, self.sequence, "tick", label,
                                   epoch + 1))

    def stop(self, label):
        _armed, epoch, period = self.epochs[label]
        self.epochs[label] = (False, epoch + 1, period)

    def _pop_live(self, until):
        while self.heap:
            when, _sequence, kind, label, epoch = self.heap[0]
            if when > until:
                return None
            heapq.heappop(self.heap)
            if kind == "tick":
                armed, current, _period = self.epochs[label]
                if not armed or current != epoch:
                    continue
            return when, kind, label
        return None

    def peek(self):
        """Time of the next live entry, without consuming anything."""
        saved = list(self.heap)
        entry = self._pop_live(float("inf"))
        self.heap = saved
        return float("inf") if entry is None else entry[0]

    def step(self, script, until=float("inf")):
        entry = self._pop_live(until)
        if entry is None:
            return False
        when, kind, label = entry
        self.now = when
        self.processed += 1
        if kind == "trigger":
            self.foreground -= 1
            self.schedule(label, 0.0, "event")
            return True
        self.log.append((when, label))
        if kind == "tick":
            _armed, _epoch, period = self.epochs[label]
            self.arm(label, period, when + period)
        else:
            self.foreground -= 1
        for action in script.get(label, ()):
            self.apply(action)
        return True

    def apply(self, action):
        kind = action[0]
        if kind == "schedule":
            self.schedule(action[1], action[2])
        elif kind == "stop":
            if action[1] in self.epochs:
                self.stop(action[1])
        elif kind == "restart":
            label, period = action[1], action[2]
            if label in self.epochs and not self.epochs[label][0]:
                self.arm(label, period, self.now + period)


class _EngineUnderTest:
    """The same vocabulary of actions, applied to a real Simulator."""

    def __init__(self, script):
        self.sim = Simulator(seed=0, tracing=False)
        self.script = script
        self.tasks = {}
        self.log = []

    def fired(self, label):
        self.log.append((self.sim.now, label))
        for action in self.script.get(label, ()):
            self.apply(action)

    def schedule(self, label, delay):
        """Queue *label* through one of the four foreground entry points."""
        sim = self.sim
        route = int(label[1:]) % 4
        if route == 0:
            sim.timeout(delay).callbacks.append(
                lambda _event: self.fired(label))
        elif route == 1:
            sim.call_in(delay, self.fired, label)
        elif route == 2:
            sim.call_at(sim.now + delay, self.fired, label)
        else:
            # A later trigger: the call, then the event's own hop.
            event = sim.event(name=label)
            event.callbacks.append(lambda _event: self.fired(label))
            sim.call_in(delay, event.succeed)

    def arm(self, label, period):
        task = self.sim.periodic(lambda: self.fired(label), period, name=label)
        self.tasks[label] = task
        task.start()

    def apply(self, action):
        kind = action[0]
        if kind == "schedule":
            self.schedule(action[1], action[2])
        elif kind == "stop":
            if action[1] in self.tasks:
                self.tasks[action[1]].stop()
        elif kind == "restart":
            task = self.tasks.get(action[1])
            if task is not None and not task.armed:
                task.start()


#: Delays on a small grid: many entries share a timestamp, zero-delay
#: children land on the instant being processed, ticks collide with events.
_SPREAD_DELAYS = (0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 1.5)
#: Three delays and periods that are multiples of 0.5: *most* events share
#: their timestamp with several others and with the ticks, so nearly every
#: pop is decided by the sequence half of the key.
_COLLIDING_DELAYS = (0.0, 0.5, 1.0)
_COLLIDING_PERIODS = (0.5, 1.0)


def _random_schedule(rng, delays, period_choices):
    """(initial actions, script) — the script maps a fired label to actions."""
    periods = {f"tick{index}": rng.choice(period_choices) for index in range(3)}
    labels = [f"e{index}" for index in range(60)]
    initial = [("arm", label, period) for label, period in periods.items()]
    script = {}
    for label in labels[:25]:
        initial.append(("schedule", label,
                        rng.choice(delays) + rng.choice(delays)))
    # Only events spawn events (a tick that did would never let run() end).
    parents = labels[:25]
    for label in labels[25:]:
        parent = rng.choice(parents)
        script.setdefault(parent, []).append(
            ("schedule", label, rng.choice(delays)))
        parents.append(label)
    for _ in range(6):
        parent = rng.choice(parents)
        tick = rng.choice(list(periods))
        script.setdefault(parent, []).append(
            rng.choice((("stop", tick), ("restart", tick, periods[tick]))))
    return initial, script


def _build_pair(seed, delays=_SPREAD_DELAYS, periods=(0.5, 0.75, 1.0)):
    rng = random.Random(seed)
    initial, script = _random_schedule(rng, delays, periods)
    oracle = _HeapOracle()
    engine = _EngineUnderTest(script)
    for action in initial:
        if action[0] == "arm":
            oracle.arm(action[1], action[2], oracle.now + action[2])
            engine.arm(action[1], action[2])
        else:
            oracle.apply(action)
            engine.apply(action)
    return oracle, engine, script


def _assert_in_step(oracle, engine):
    assert engine.log == oracle.log
    assert engine.sim.processed_events == oracle.processed
    assert engine.sim.pending_foreground == oracle.foreground
    assert engine.sim.now == oracle.now


def _drive_run(oracle, engine, script):
    while oracle.foreground:
        assert oracle.step(script)
    assert engine.sim.run() == oracle.now
    _assert_in_step(oracle, engine)
    assert len(oracle.log) >= 60          # every event fired, plus ticks


def _drive_run_until(oracle, engine, script):
    for until in (0.0, 0.25, 0.9, 1.0, 2.5, 2.5, 7.0):
        while oracle.step(script, until=until):
            pass
        oracle.now = until
        assert engine.sim.run(until=until) == until
        _assert_in_step(oracle, engine)
    with pytest.raises(ValueError):
        engine.sim.run(until=1.0)


def _drive_steps(oracle, engine, script):
    for _ in range(400):
        assert engine.sim.peek() == oracle.peek()
        if not oracle.step(script):   # every task stopped, every event fired
            with pytest.raises(EmptySchedule):
                engine.sim.step()
            break
        engine.sim.step()
        _assert_in_step(oracle, engine)


@pytest.mark.parametrize("seed", range(12))
def test_engine_run_matches_heap_oracle(seed):
    _drive_run(*_build_pair(seed))


@pytest.mark.parametrize("seed", range(12))
def test_engine_run_until_matches_heap_oracle(seed):
    _drive_run_until(*_build_pair(seed))


@pytest.mark.parametrize("seed", range(12))
def test_engine_repeated_step_matches_heap_oracle(seed):
    _drive_steps(*_build_pair(seed))


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("drive", (_drive_run, _drive_run_until, _drive_steps))
def test_engine_matches_heap_oracle_when_most_events_collide(drive, seed):
    oracle, engine, script = _build_pair(seed, _COLLIDING_DELAYS,
                                         _COLLIDING_PERIODS)
    drive(oracle, engine, script)
    # The premise: on average three or more events per timestamp they use.
    events = [when for when, label in oracle.log if label.startswith("e")]
    assert len(set(events)) * 3 <= len(events)


def test_same_time_entries_run_after_those_queued_and_before_anything_later():
    sim = Simulator(seed=0, tracing=False)
    order = []

    def parent(tag):
        order.append(tag)
        # Four ways onto the instant being processed, and one past it.
        sim.call_in(0.0, order.append, f"{tag}.call_in")
        sim.call_at(sim.now, order.append, f"{tag}.call_at")
        sim.timeout(0.0).callbacks.append(
            lambda _event: order.append(f"{tag}.timeout"))
        sim.event().succeed().callbacks.append(
            lambda _event: order.append(f"{tag}.event"))
        sim.call_in(1e-9, order.append, f"{tag}.later")

    sim.call_in(1.0, parent, "a")
    sim.call_in(1.0, parent, "b")
    sim.call_in(1.0, order.append, "c")
    sim.call_in(1.0 + 1e-12, order.append, "next")
    sim.run()
    children = [f"{tag}.{how}" for tag in "ab"
                for how in ("call_in", "call_at", "timeout", "event")]
    assert order == ["a", "b", "c", *children, "next", "a.later", "b.later"]
    assert sim.processed_events == 14 and sim.pending_foreground == 0


def test_tick_stop_and_restart_on_a_timestamp_shared_with_calls():
    sim = Simulator(seed=0, tracing=False)
    order = []
    task = sim.periodic(lambda: order.append(("tick", sim.now)), 1.0)

    def stop():
        order.append(("stop", sim.now))
        task.stop()

    def restart():
        order.append(("restart", sim.now))
        task.start()

    sim.call_in(1.0, order.append, "before-arm")
    task.start()                        # first tick at 1.0, between the two
    sim.call_in(1.0, order.append, "after-arm")
    sim.call_in(2.0, stop)              # queued before the 1.0 tick re-arms
    sim.call_in(2.0, order.append, "beside-the-stale-tick")
    sim.call_in(2.0, restart)           # re-arms beside its own stale tick
    sim.call_in(3.0, order.append, "queued-before-the-restart")
    sim.call_in(4.0, stop)              # queued before the 3.0 tick re-arms
    sim.call_in(5.0, order.append, "end")
    sim.run()
    assert order == [
        "before-arm", ("tick", 1.0), "after-arm",
        ("stop", 2.0), "beside-the-stale-tick", ("restart", 2.0),
        "queued-before-the-restart", ("tick", 3.0),
        ("stop", 4.0),
        "end",
    ]
    # Both stops ran ahead of the tick that shared their instant, and the
    # two stale ticks were popped without moving a counter.
    assert task.ticks == 2 and not task.armed
    assert sim.processed_events == len(order)
    assert sim.peek() == float("inf") and sim._queue == []


def test_step_on_only_stale_ticks_raises_without_moving_the_clock():
    sim = Simulator(seed=0, tracing=False)
    task = sim.periodic(lambda: None, 1.0).start()
    task.stop()
    with pytest.raises(EmptySchedule):
        sim.step()
    assert sim.now == 0.0
    assert sim.processed_events == 0
    assert sim.peek() == float("inf")


def test_run_reentered_from_a_callback_drains_once():
    sim = Simulator(seed=0, tracing=False)
    order = []

    def outer():
        order.append("outer")
        sim.call_in(0.0, order.append, "same-time")
        sim.call_in(1.0, order.append, "later")
        sim.run()                      # drains everything, this instant too
        order.append("outer-done")

    sim.call_in(0.5, outer)
    sim.call_in(0.5, order.append, "sibling")
    sim.run()
    assert order == ["outer", "sibling", "same-time", "later", "outer-done"]
    assert sim.now == 1.5
    assert sim.processed_events == 4
    assert sim.pending_foreground == 0


# --------------------------------------------------------------------- #
# Cached Packet.size_bytes vs recursive recomputation
# --------------------------------------------------------------------- #


def _recomputed_size(packet):
    """On-wire size from first principles, ignoring any cached value."""
    total = sum(header.size_bytes for header in packet.headers)
    payload = packet.payload
    if payload is None:
        return total + packet.payload_bytes
    if isinstance(payload, Packet):
        return total + _recomputed_size(payload)
    if isinstance(payload, (bytes, bytearray)):
        return total + len(payload)
    size = getattr(payload, "size_bytes", None)
    return total + (packet.payload_bytes if size is None else size)


class _Message:
    def __init__(self, size_bytes):
        self.size_bytes = size_bytes


@pytest.mark.parametrize("seed", range(5))
def test_cached_size_matches_recomputation_through_encap_copy_decap(seed):
    rng = random.Random(seed)
    for _ in range(200):
        shape = rng.randrange(4)
        if shape == 0:
            packet = udp_packet("10.0.0.1", "10.1.0.1", 4000, 9000,
                                payload_bytes=rng.randrange(1500))
        elif shape == 1:
            packet = udp_packet("10.0.0.1", "10.1.0.1", 4000, 9000,
                                payload=bytes(rng.randrange(64)))
        elif shape == 2:
            packet = udp_packet("10.0.0.1", "10.1.0.1", 4000, 9000,
                                payload=_Message(rng.randrange(512)))
        else:
            packet = udp_packet("10.0.0.1", "10.1.0.1", 4000, 9000,
                                payload=object(), payload_bytes=rng.randrange(99))
        depth = rng.randrange(4)
        stack = [packet]
        for level in range(depth):
            # Read the size of some layers before wrapping and of others
            # only afterwards: caching must not depend on the order.
            if rng.random() < 0.5:
                assert stack[-1].size_bytes == _recomputed_size(stack[-1])
            stack.append(encapsulate(stack[-1], f"1.0.0.{level + 1}",
                                     f"2.0.0.{level + 1}", nonce=level))
        outer = stack[-1]
        assert outer.size_bytes == _recomputed_size(outer)
        clone = outer.copy()
        assert clone.size_bytes == outer.size_bytes == _recomputed_size(clone)
        if clone.ip is not None:
            clone.ip.ttl -= 1             # header fields may change in flight
        assert clone.size_bytes == _recomputed_size(clone)
        unwrapped = clone
        for level in range(depth, 0, -1):
            unwrapped, outer_ip, _lisp = decapsulate(unwrapped)
            assert str(outer_ip.dst) == f"2.0.0.{level}"
            assert unwrapped.size_bytes == _recomputed_size(unwrapped)
        assert unwrapped.size_bytes == packet.size_bytes
        assert unwrapped.innermost() is unwrapped
        assert outer.innermost() is packet


def test_packet_ip_fast_path_agrees_with_find():
    plain = udp_packet("10.0.0.1", "10.0.0.2", 1, 2)
    assert plain.ip is plain.headers[0] is plain.find(IPv4Header)
    shimmed = Packet(headers=[UDPHeader(1, 2),
                              IPv4Header("10.0.0.1", "10.0.0.2", 17)])
    assert shimmed.ip is shimmed.headers[1]
    assert Packet(headers=[UDPHeader(1, 2)]).ip is None
    assert Packet(headers=[]).ip is None


# --------------------------------------------------------------------- #
# Node.is_local vs addresses()
# --------------------------------------------------------------------- #


def _assert_local_set_matches(node, probes):
    local = node.addresses()
    for address in probes:
        expected = IPv4Address(address) in local
        assert node.is_local(address) is expected
        assert node.is_local(str(IPv4Address(address))) is expected
    for address in local:
        assert node.is_local(address)


@pytest.mark.parametrize("seed", range(5))
def test_is_local_matches_addresses_through_mutation_and_restore(seed):
    rng = random.Random(seed)
    sim = Simulator(seed=0, tracing=False)
    node = Host(sim, "h", address="10.0.0.1")
    probes = [IPv4Address((10 << 24) | rng.randrange(64)) for _ in range(80)]
    _assert_local_set_matches(node, probes)
    snapshots = []
    for step in range(40):
        action = rng.random()
        address = rng.choice(probes)
        if action < 0.35:
            node.add_address(address)
        elif action < 0.60:
            node.add_interface(f"eth{step}",
                               address if rng.random() < 0.7 else None)
        elif action < 0.75:
            snapshots.append(node.snapshot_state())
        elif snapshots:
            node.restore_state(rng.choice(snapshots))
        _assert_local_set_matches(node, probes)


def test_restored_world_nodes_answer_is_local_like_fresh_ones():
    config = ScenarioConfig(control_plane="pce", num_sites=3, seed=4,
                            tracing=False)
    world = build_world(config)
    nodes = [host for site in world.topology.sites for host in site.hosts]
    nodes += list(world.topology.providers)
    probes = sorted({address for node in nodes for address in node.addresses()})
    before = [[node.is_local(address) for address in probes] for node in nodes]
    run_workload(world, WorkloadConfig(num_flows=4, packets_per_flow=2))
    restore_world(world)
    for node, row in zip(nodes, before, strict=True):
        assert [node.is_local(address) for address in probes] == row
        _assert_local_set_matches(node, probes)


# --------------------------------------------------------------------- #
# Guarded trace.record sites: tracing must not change behaviour
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("control_plane", ["pce", "alt"])
def test_tracing_on_and_off_runs_are_identical(control_plane):
    outcomes = []
    for tracing in (True, False):
        config = ScenarioConfig(control_plane=control_plane, num_sites=4,
                                seed=11, tracing=tracing)
        world = build_world(config)
        records = run_workload(world, WorkloadConfig(num_flows=10,
                                                     packets_per_flow=3,
                                                     arrival_rate=20.0))
        outcomes.append(([asdict(record) for record in records],
                         world.sim.processed_events, world.sim.now,
                         len(world.sim.trace)))
    traced, untraced = outcomes
    assert traced[0] == untraced[0]
    assert traced[1:3] == untraced[1:3]
    assert traced[3] > 0 and untraced[3] == 0
    assert all(record["packets_sent"] == 3 for record in traced[0])
