"""Differential oracles for the forwarding fast path.

Each test drives a fast path (the ``Fib`` hash tables and lookup memo, the
inlined engine dispatch loop, the cached ``Packet.size_bytes`` and hop
ledger and their construction-time values, ``IPv4Prefix``'s own mask, the
memoised ``MappingRecord.best_rloc``, the ``Node`` local-address set, the
one-frame ``Router.receive``, the memoised DNS question and record sizes,
the CoNS tree's climb from a CAR)
and a deliberately naive model side by side over seeded random input, and
asserts they never disagree.  Stdlib only.
"""

import copy
import heapq
import pickle
import random
from dataclasses import asdict
from itertools import count

import pytest

from repro.core.messages import EncapsulatedDnsReply
from repro.dns.message import DnsMessage, encode_name
from repro.experiments.scenario import CONTROL_PLANES, ScenarioConfig
from repro.experiments.workload import WorkloadConfig, run_workload
from repro.experiments import worldbuild
from repro.experiments.worldbuild import (SnapshotError, build_world,
                                          deserialize_world, restore_world,
                                          serialize_world)
from repro.lisp.headers import decapsulate, encapsulate
from repro.lisp.map_cache import MapCache
from repro.lisp.mappings import MappingRecord, RlocEntry
from repro.lisp.policies import mark_fate
from repro.lisp.probing import RlocProber
from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.net.errors import NoRouteError
from repro.net.fib import Fib, FibEntry
from repro.net.host import Host
from repro.net.link import WINDOW_WIDTH, LinkStats, connect
from repro.net.node import Node
from repro.net.packet import (PROTO_UDP, TCP_ACK, TCP_SYN, IPv4Header, Packet,
                              UDPHeader, tcp_packet, udp_packet)
from repro.net.router import Router
from repro.sim.engine import Simulator

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
            for entry in fib.entries():  # empty the table
                fib.remove(entry.prefix)
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
    for entry in fib.entries():  # empty the table
        fib.remove(entry.prefix)
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
            for entry in fib.entries():  # empty the table
                fib.remove(entry.prefix)
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
        lengths = [bin(mask).count("1") for mask, _table, _length in fib._probes]
        assert lengths == [length for _mask, _table, length in fib._probes]
        return lengths

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
    for entry in fib.entries():  # empty the table
        fib.remove(entry.prefix)
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


def test_v6_stamped_blob_is_rejected_and_rebuilt(monkeypatch):
    """A blob stamped with an older schema is a ``schema mismatch``, never
    taken for today's world; one stamped today's builds it."""
    config = ScenarioConfig(control_plane="pce", num_sites=3, seed=5,
                            tracing=False)
    assert worldbuild.SNAPSHOT_SCHEMA >= 7
    with monkeypatch.context() as patch:
        patch.setattr(worldbuild, "SNAPSHOT_SCHEMA", 6)
        stale = serialize_world(build_world(config))
    with pytest.raises(SnapshotError, match="schema mismatch"):
        deserialize_world(stale, config)
    fresh = serialize_world(build_world(config))
    assert deserialize_world(fresh, config).config == config


# --------------------------------------------------------------------- #
# Engine dispatch loop vs a plain (time, sequence) heap
# --------------------------------------------------------------------- #


class _HeapOracle:
    """The textbook event queue the engine must be equal to: one
    ``(time, sequence, ...)`` tuple heap."""

    def __init__(self):
        self.now = 0.0
        self.heap = []
        self.sequence = 0
        self.processed = 0
        self.log = []

    def schedule(self, label, delay, kind=None):
        """Queue *label*; the engine's route 3 reaches it in two hops."""
        if kind is None:
            kind = "trigger" if int(label[1:]) % 4 == 3 else "event"
        self.sequence += 1
        heapq.heappush(self.heap, (self.now + delay, self.sequence, kind,
                                   label))

    def step(self, script, until=float("inf")):
        if not self.heap or self.heap[0][0] > until:
            return False
        when, _sequence, kind, label = heapq.heappop(self.heap)
        self.now = when
        self.processed += 1
        if kind == "trigger":
            self.schedule(label, 0.0, "event")
            return True
        self.log.append((when, label))
        for action in script.get(label, ()):
            self.apply(action)
        return True

    def apply(self, action):
        assert action[0] == "schedule"
        self.schedule(action[1], action[2])


class _EngineUnderTest:
    """The same vocabulary of actions, applied to a real Simulator."""

    def __init__(self, script):
        self.sim = Simulator(seed=0, tracing=False)
        self.script = script
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
            event = sim.event()
            event.callbacks.append(lambda _event: self.fired(label))
            sim.call_in(delay, event.succeed)

    def apply(self, action):
        assert action[0] == "schedule"
        self.schedule(action[1], action[2])


#: Delays on a small grid: many entries share a timestamp and zero-delay
#: children land on the instant being processed.
_SPREAD_DELAYS = (0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 1.5)
#: Three delays that are multiples of 0.5: *most* events share their
#: timestamp with several others, so nearly every pop is decided by the
#: sequence half of the key.
_COLLIDING_DELAYS = (0.0, 0.5, 1.0)


def _random_schedule(rng, delays):
    """(initial actions, script) — the script maps a fired label to actions."""
    labels = [f"e{index}" for index in range(60)]
    initial = [("schedule", label, rng.choice(delays) + rng.choice(delays))
               for label in labels[:25]]
    script = {}
    parents = labels[:25]
    for label in labels[25:]:
        parent = rng.choice(parents)
        script.setdefault(parent, []).append(
            ("schedule", label, rng.choice(delays)))
        parents.append(label)
    return initial, script


def _build_pair(seed, delays=_SPREAD_DELAYS):
    rng = random.Random(seed)
    initial, script = _random_schedule(rng, delays)
    oracle = _HeapOracle()
    engine = _EngineUnderTest(script)
    for action in initial:
        oracle.apply(action)
        engine.apply(action)
    return oracle, engine, script


def _assert_in_step(oracle, engine):
    assert engine.log == oracle.log
    assert engine.sim.processed_events == oracle.processed
    assert len(engine.sim._queue) == len(oracle.heap)
    assert engine.sim.now == oracle.now


def _drive_run(oracle, engine, script):
    while oracle.step(script):
        pass
    assert engine.sim.run() == oracle.now
    _assert_in_step(oracle, engine)
    assert len(oracle.log) == 60          # every event fired


def _drive_run_until(oracle, engine, script):
    for until in (0.0, 0.25, 0.9, 1.0, 2.5, 2.5, 7.0):
        while oracle.step(script, until=until):
            pass
        oracle.now = until
        assert engine.sim.run(until=until) == until
        _assert_in_step(oracle, engine)
    with pytest.raises(ValueError):
        engine.sim.run(until=1.0)


@pytest.mark.parametrize("seed", range(12))
def test_engine_run_matches_heap_oracle(seed):
    _drive_run(*_build_pair(seed))


@pytest.mark.parametrize("seed", range(12))
def test_engine_run_until_matches_heap_oracle(seed):
    _drive_run_until(*_build_pair(seed))


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("drive", (_drive_run, _drive_run_until))
def test_engine_matches_heap_oracle_when_most_events_collide(drive, seed):
    oracle, engine, script = _build_pair(seed, _COLLIDING_DELAYS)
    drive(oracle, engine, script)
    # The premise: on average three or more events per timestamp they use.
    events = [when for when, _label in oracle.log]
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
    assert sim.processed_events == 14 and sim.serializable


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
    assert sim.serializable


# --------------------------------------------------------------------- #
# Cached Packet.size_bytes vs recursive recomputation
# --------------------------------------------------------------------- #


def _innermost(packet):
    while isinstance(packet.payload, Packet):
        packet = packet.payload
    return packet


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
def test_cached_size_matches_recomputation_through_encap_decap(seed):
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
        if outer.ip is not None:
            outer.ip.ttl -= 1             # header fields may change in flight
        assert outer.size_bytes == _recomputed_size(outer)
        unwrapped = outer
        for level in range(depth, 0, -1):
            unwrapped, outer_ip, _lisp = decapsulate(unwrapped)
            assert str(outer_ip.dst) == f"2.0.0.{level}"
            assert unwrapped.size_bytes == _recomputed_size(unwrapped)
        assert unwrapped.size_bytes == packet.size_bytes
        assert unwrapped.inner is None
        assert _innermost(outer) is packet


# --------------------------------------------------------------------- #
# The hop ledger vs recomputation
# --------------------------------------------------------------------- #


def _recomputed_hop(packet):
    """``(size, flow_id, fluid_probe)`` from first principles."""
    inner = _innermost(packet)
    return (_recomputed_size(packet), inner.meta.get("flow_id"),
            inner.meta.get("fluid_probe"))


def _assert_sealed(packet):
    """*packet* was sized and ledgered when it was built, and rightly."""
    expected = _recomputed_hop(packet)
    assert (packet._size, packet._hop) == (expected[0], expected)
    assert packet._hop[2] is expected[2]  # the probe itself, not a copy


@pytest.mark.parametrize("seed", range(5))
def test_hop_ledger_matches_recomputation_through_encap_send_decap(seed):
    rng = random.Random(seed)
    sim = Simulator(seed=0, tracing=False)
    a, b = Node(sim, "a"), Node(sim, "b")
    link, _back = connect(sim, a.add_interface("eth0"), b.add_interface("eth0"),
                          rate_bps=rng.choice((None, 1e6)))
    offered = {}
    probes = []
    for _ in range(200):
        meta = {}
        if rng.random() < 0.7:
            meta["flow_id"] = rng.randrange(5)
        if rng.random() < 0.3:
            meta["fluid_probe"] = {"links": [], "sink": None}
        packet = udp_packet("10.0.0.1", "10.1.0.1", 4000, 9000,
                            payload_bytes=rng.randrange(1500), meta=meta)
        stack = [packet]
        for level in range(rng.randrange(4)):
            # Some layers are offered to a link before they are wrapped.
            if rng.random() < 0.5:
                _assert_sealed(stack[-1])
            stack.append(encapsulate(stack[-1], f"1.0.0.{level + 1}",
                                     f"2.0.0.{level + 1}", nonce=level))
        outer = stack[-1]
        _assert_sealed(outer)
        link.send(outer)
        # Fates may grow once the packet is in flight; the ledger holds.
        mark_fate(packet, "encapsulated")
        _assert_sealed(outer)
        size, flow_id, probe = _recomputed_hop(outer)
        if flow_id is not None:
            offered[flow_id] = offered.get(flow_id, 0) + size
        if probe is not None:
            probes.append((probe, size))
        if outer.ip is not None:
            outer.ip.ttl -= 1
        _assert_sealed(outer)
        unwrapped = outer
        while unwrapped.inner is not None:
            unwrapped, _outer_ip, _lisp = decapsulate(unwrapped)
            _assert_sealed(unwrapped)
        assert unwrapped._hop[1:] == packet._hop[1:]
    sim.run()
    assert {flow_id: account.offered
            for flow_id, account in link.stats.flows.items()} == offered
    for probe, size in probes:
        assert probe["links"] == [(link, size)]


def test_packet_ip_fast_path_agrees_with_find():
    plain = udp_packet("10.0.0.1", "10.0.0.2", 1, 2)
    assert plain.ip is plain.headers[0] is plain.find(IPv4Header)
    shimmed = Packet(headers=[UDPHeader(1, 2),
                              IPv4Header("10.0.0.1", "10.0.0.2", 17)])
    assert shimmed.ip is shimmed.headers[1]
    assert Packet(headers=[UDPHeader(1, 2)]).ip is None
    assert Packet(headers=[]).ip is None


# --------------------------------------------------------------------- #
# Construction-time size and hop ledger vs recomputation
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", range(5))
def test_construction_time_size_and_hop_ledger_match_recomputation(seed):
    rng = random.Random(seed)
    for _ in range(200):
        meta = {}
        if rng.random() < 0.7:
            meta["flow_id"] = rng.randrange(5)
        if rng.random() < 0.3:
            meta["fluid_probe"] = {"links": [], "sink": None}
        if rng.random() < 0.6:
            payload = rng.choice((None, bytes(rng.randrange(64)),
                                  _Message(rng.randrange(512)), object()))
            packet = udp_packet("10.0.0.1", "10.1.0.1", 4000, 9000,
                                payload=payload,
                                payload_bytes=rng.randrange(1500), meta=meta)
        else:
            packet = tcp_packet("10.0.0.1", "10.1.0.1", 4000, 80,
                                flags=rng.choice((0, TCP_SYN, TCP_ACK)),
                                payload_bytes=rng.randrange(1500), meta=meta)
        _assert_sealed(packet)
        outer = packet
        for level in range(rng.randrange(4)):
            outer = encapsulate(outer, f"1.0.0.{level + 1}",
                                f"2.0.0.{level + 1}")
            _assert_sealed(outer)
            assert outer.meta == {}     # nothing is copied outward
        while outer.inner is not None:
            outer, _outer_ip, _lisp = decapsulate(outer)
            _assert_sealed(outer)
        assert outer is packet


# --------------------------------------------------------------------- #
# IPv4Prefix.contains (the prefix's own mask) vs the mask of its length
# --------------------------------------------------------------------- #


def test_prefix_contains_matches_its_length_mask_through_pickle_and_copy():
    rng = random.Random(3)
    for length in range(33):
        mask = _mask(length)
        assert IPv4Prefix._mask_for(length) == mask
        for _ in range(10):
            network = rng.getrandbits(32) & mask
            prefix = IPv4Prefix(network, length)
            twins = (prefix, pickle.loads(pickle.dumps(prefix)),
                     copy.copy(prefix), copy.deepcopy(prefix),
                     IPv4Prefix(prefix), IPv4Prefix(str(prefix)))
            for twin in twins:
                assert twin == prefix
                for _ in range(8):
                    value = rng.getrandbits(32)
                    if rng.random() < 0.5:      # inside, whatever the host bits
                        value = network | (value & ~mask & 0xFFFFFFFF)
                    expected = value & mask == network
                    address = IPv4Address(value)
                    assert twin.contains(address) is expected
                    assert twin.contains(value) is expected
                    assert twin.contains(str(address)) is expected
                    longer = rng.randrange(length, 33)
                    inner = IPv4Prefix.containing(address, longer)
                    assert twin.contains(inner) is expected


# --------------------------------------------------------------------- #
# Memoised MappingRecord.best_rloc vs a plain recomputation
# --------------------------------------------------------------------- #


class _ProbedXtr:
    """What an RLOC prober needs of its tunnel router."""

    def __init__(self, node):
        self.node = node
        self.rloc_liveness = None


def _reference_best(mapping, down):
    usable = [r for r in mapping.rlocs if r.reachable and r.address not in down]
    return min(usable, key=lambda r: (r.priority, -r.weight, int(r.address)),
               default=None)


@pytest.mark.parametrize("seed", range(5))
def test_memoised_best_rloc_matches_recomputation(seed):
    """Two probers flip locators down and up (and are restored to old
    verdicts) while the cached mapping is replaced or expires: each call,
    with either prober or none, answers what a recomputation does."""
    rng = random.Random(seed)
    sim = Simulator(seed=0, tracing=False)
    versions = count(1)
    probers = [RlocProber(sim, _ProbedXtr(Node(sim, name)), versions)
               for name in "ab"]
    assert all(prober.xtr.rloc_liveness is prober for prober in probers)
    locators = [IPv4Address(f"11.0.0.{index}") for index in range(1, 6)]
    cache = MapCache(sim)
    eid = IPv4Address("100.1.0.9")

    def install():
        rlocs = tuple(RlocEntry(address, priority=rng.randrange(1, 4),
                                weight=rng.choice((25, 50, 75)),
                                reachable=rng.random() < 0.9)
                      for address in rng.sample(locators, rng.randrange(1, 5)))
        cache.install(MappingRecord("100.1.0.0/24", rlocs,
                                    ttl=rng.choice((0.5, 1.0, 5.0))))

    def check(mapping, liveness):
        down = () if liveness is None else liveness.down
        assert mapping.best_rloc(liveness) is _reference_best(mapping, down)

    install()
    verdicts = {prober: [] for prober in probers}
    for _ in range(400):
        op = rng.random()
        prober = rng.choice(probers)
        mapping = cache.peek(eid)
        if mapping is not None:
            check(mapping, prober)          # the memo now holds its answer
        if op < 0.25:
            prober._mark_missed(rng.choice(locators))
        elif op < 0.45:
            prober._mark_alive(rng.choice(locators))
        elif op < 0.5:
            verdicts[prober].append(prober.snapshot_state())
        elif op < 0.6 and verdicts[prober]:
            prober.restore_state(rng.choice(verdicts[prober]))
        elif op < 0.7:
            install()                                   # replaced
        elif op < 0.8:
            sim.run(until=sim.now + rng.choice((0.25, 1.0)))  # may expire
        mapping = cache.peek(eid)
        if mapping is None:
            install()
            mapping = cache.peek(eid)
        check(mapping, prober)
        for liveness in rng.sample((None, *probers), 2):
            check(mapping, liveness)
        # A predicate without a version is asked on every call.
        down = set(rng.sample(locators, 2))
        assert mapping.best_rloc(lambda address: address not in down) \
            is _reference_best(mapping, down)


# --------------------------------------------------------------------- #
# Node.is_local vs its interfaces and extra addresses
# --------------------------------------------------------------------- #


def _addresses(node):
    """All addresses local to *node*, from first principles."""
    return {*node.extra_addresses,
            *(interface.address for interface in node.interfaces.values()
              if interface.address is not None)}


def _assert_local_set_matches(node, probes):
    local = _addresses(node)
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
    # Interfaces are wiring: all of them exist before the first checkpoint.
    for step in range(rng.randrange(8)):
        node.add_interface(f"eth{step}",
                           rng.choice(probes) if rng.random() < 0.7 else None)
        _assert_local_set_matches(node, probes)
    snapshots = [node.snapshot_state()]
    for _ in range(40):
        action = rng.random()
        if action < 0.5:
            node.add_address(rng.choice(probes))
        elif action < 0.7:
            snapshots.append(node.snapshot_state())
        else:
            node.restore_state(rng.choice(snapshots))
        _assert_local_set_matches(node, probes)


def test_restored_world_nodes_answer_is_local_like_fresh_ones():
    config = ScenarioConfig(control_plane="pce", num_sites=3, seed=4,
                            tracing=False)
    world = build_world(config)
    nodes = [host for site in world.topology.sites for host in site.hosts]
    nodes += list(world.topology.providers)
    probes = sorted({address for node in nodes for address in _addresses(node)})
    before = [[node.is_local(address) for address in probes] for node in nodes]
    run_workload(world, WorkloadConfig(num_flows=4, packets_per_flow=2))
    restore_world(world)
    for node, row in zip(nodes, before, strict=True):
        assert [node.is_local(address) for address in probes] == row
        _assert_local_set_matches(node, probes)


def _reference_account(windows, start, tx_time, size):
    """Utilization-window booking one slice at a time, no shortcut."""
    index = int(start / WINDOW_WIDTH)
    windows.setdefault(index, [0.0, 0])[1] += size
    remaining, position = tx_time, start
    while remaining > 0.0:
        boundary = (index + 1) * WINDOW_WIDTH
        slice_time = min(remaining, boundary - position)
        windows.setdefault(index, [0.0, 0])[0] += slice_time
        remaining -= slice_time
        position = boundary
        index += 1


@pytest.mark.parametrize("seed", range(4))
def test_transmission_windows_match_a_slice_by_slice_reference(seed):
    rng = random.Random(seed)
    stats, reference = LinkStats(), {}
    for _ in range(300):
        start = rng.choice((rng.uniform(0.0, 4.0), float(rng.randrange(4)),
                            rng.randrange(4) + 0.75))
        # Some end exactly on a window boundary, some cross one or more.
        tx_time = rng.choice((0.0, rng.uniform(0.0, 0.3), rng.uniform(0.0, 2.5),
                              (int(start / WINDOW_WIDTH) + 1) * WINDOW_WIDTH - start))
        size = rng.randrange(1, 1500)
        stats.account_transmission(start, tx_time, size)
        _reference_account(reference, start, tx_time, size)
    assert dict(stats.windows) == reference


# --------------------------------------------------------------------- #
# Router.receive vs a naive transit reference
# --------------------------------------------------------------------- #


_ROUTER_LOCALS = (IPv4Address("10.9.0.1"), IPv4Address("10.9.0.2"))


def _reference_transit(router, table, consumed, packet):
    """Where *packet* goes when *router* receives it, from first principles:
    ``"ignored"``, ``"local"``, ``"tapped"``, ``None`` (dropped) or the
    egress link; and the trace kind the router records (or None)."""
    ip = packet.find(IPv4Header)
    if ip is None:
        return "ignored", None
    if ip.dst in _addresses(router):
        return "local", None
    if ip.ttl <= 1:
        return None, "router.ttl-expired"
    if packet.uid in consumed:
        return "tapped", None
    entry = _brute_force_lpm(table, ip.dst.value)
    if entry is None:
        return None, "router.no-route"
    if entry.interface is None or entry.interface.link is None:
        return None, None
    return entry.interface.link, None


def _transit_rig(sim):
    """A router with two local addresses, three linked egress interfaces
    (peers are base nodes, one owning an address of the pool) and one
    dangling interface; returns ``(router, interfaces, seen)``."""
    router = Router(sim, "r")
    router.add_interface("lo", _ROUTER_LOCALS[0])
    router.add_address(_ROUTER_LOCALS[1])
    interfaces = [None, router.add_interface("dangling")]
    for index in range(3):
        peer = Node(sim, f"p{index}")
        connect(sim, router.add_interface(f"eth{index}"),
                peer.add_interface("eth0", "10.1.1.1" if index == 0 else None))
        interfaces.append(router.interfaces[f"eth{index}"])
    seen = {"local": [], "tapped": []}
    router.register_protocol(PROTO_UDP,
                             lambda packet, _node: seen["local"].append(packet.uid))
    return router, interfaces, seen


@pytest.mark.parametrize("seed", range(6))
def test_router_receive_matches_a_naive_reference(seed):
    rng = random.Random(seed)
    sim = Simulator(seed=0, tracing=True)
    router, interfaces, seen = _transit_rig(sim)
    links = [interface.link for interface in interfaces[2:]]
    consumed = set()

    def tap(packet, _node):
        if packet.uid in consumed:
            seen["tapped"].append(packet.uid)
            return True
        return False
    router.add_forward_tap(tap)
    table = {}
    onward = []       # (peer, packet) in the order the router sent them
    for _ in range(400):
        action = rng.random()
        if action < 0.15:
            prefix = _random_prefix(rng)
            entry = FibEntry(prefix, rng.choice(interfaces))
            router.fib.insert(entry)
            table[(prefix.network.value, prefix.length)] = entry
            continue
        if action < 0.25 and table:
            network, length = rng.choice(sorted(table))
            router.fib.remove(IPv4Prefix(network, length))
            del table[(network, length)]
            continue
        if rng.random() < 0.05:
            packet = Packet(headers=[UDPHeader(1, 2)])
        else:
            destination = (rng.choice(_ROUTER_LOCALS) if rng.random() < 0.15
                           else _random_address(rng))
            packet = udp_packet("10.7.0.1", destination, 1, 2,
                                ttl=rng.choice((0, 1, 2, 64)))
        if rng.random() < 0.2:
            consumed.add(packet.uid)
        where, kind = _reference_transit(router, table, consumed, packet)
        ip = packet.find(IPv4Header)
        ttl = None if ip is None else ip.ttl
        offered = [link.stats.bytes_offered for link in links]
        local, tapped, traced = len(seen["local"]), len(seen["tapped"]), len(sim.trace.records)
        router.receive(packet)
        sent = [link for link, before in zip(links, offered, strict=True)
                if link.stats.bytes_offered != before]
        assert sent == ([where] if where in links else [])
        assert seen["local"][local:] == ([packet.uid] if where == "local" else [])
        assert seen["tapped"][tapped:] == ([packet.uid] if where == "tapped" else [])
        records = [(record.source, record.kind, record.detail)
                   for record in sim.trace.records[traced:]]
        assert records == ([] if kind is None else
                           [("r", kind, {"dst": str(ip.dst), "uid": packet.uid})])
        if ip is not None:
            passed = where not in ("local", "ignored") and kind != "router.ttl-expired"
            assert ip.ttl == ttl - passed
        if where in links:
            onward.append((where.dst_interface.node, packet))
    # The base-node peers deliver what is theirs and forward nothing.
    traced = len(sim.trace.records)
    sim.run()
    expected = [(peer.name,
                 "node.unclaimed" if packet.ip.dst in _addresses(peer)
                 else "node.no-forward", packet.uid)
                for peer, packet in onward]
    assert [(record.source, record.kind, record.detail["uid"])
            for record in sim.trace.records[traced:]] == expected
    assert any(kind == "node.no-forward" for _peer, kind, _uid in expected)


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
                         len(world.sim.trace.records)))
    traced, untraced = outcomes
    assert traced[0] == untraced[0]
    assert traced[1:3] == untraced[1:3]
    assert traced[3] > 0 and untraced[3] == 0
    assert all(record["packets_sent"] == 3 for record in traced[0])


# --------------------------------------------------------------------- #
# DNS sizes fixed on first ask vs the codec
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("control_plane", sorted(CONTROL_PLANES))
def test_memoised_dns_sizes_match_the_codec(control_plane, monkeypatch):
    """Every DNS message a node sends is sized from its question's and its
    records' memoised sizes: each equals the codec's bytes, and a record
    carried by several messages (a coalesced query's copy, a zone's
    record in every reply that carries it) has the one size in all of
    them."""
    sent = []
    real_send = Node.send

    def capture(node, packet):
        message = packet.payload
        if isinstance(message, EncapsulatedDnsReply):
            message = message.dns_reply
        if isinstance(message, DnsMessage):
            records = [*message.answers, *message.authorities,
                       *message.additionals]
            sent.append((message, message.encode(), message.question._size,
                         [(record, record._size) for record in records]))
        return real_send(node, packet)

    copies = []
    real_copy = DnsMessage.copy

    def counted_copy(message):
        copies.append(message)
        return real_copy(message)

    monkeypatch.setattr(Node, "send", capture)
    monkeypatch.setattr(DnsMessage, "copy", counted_copy)
    world = build_world(ScenarioConfig(control_plane=control_plane,
                                       num_sites=3, seed=17,
                                       dns_extra_levels=2, tracing=False))
    sites = world.topology.sites
    dns = world.dns
    names = [dns.host_name(sites[1], 0), dns.host_name(sites[2], 1),
             f"missing.{dns.site_domain(sites[1])}"]
    # Both hosts of a site ask each name at once: the second query joins
    # the walk the first one leads.
    for when, name in enumerate(names):
        for host in sites[0].hosts[:2]:
            world.sim.call_in(float(when), world.stub_for(host, sites[0]).lookup,
                              name)
    world.sim.run(until=len(names) + 5.0)
    records = run_workload(world, WorkloadConfig(num_flows=8,
                                                 arrival_rate=20.0))
    world.teardown()
    assert not any(record.failed for record in records)
    assert len(copies) >= 2  # the followers' copies
    sizes = {}
    for message, wire, question_size, carried in sent:
        assert message.size_bytes == len(wire)
        assert question_size == len(encode_name(message.question.qname)) + 4
        for record, size in carried:
            assert size == len(DnsMessage._encode_rr(record)), str(record)
            assert sizes.setdefault(id(record), size) == size
    assert len(sizes) < sum(len(carried) for *_rest, carried in sent)


# --------------------------------------------------------------------- #
# CoNS: the climb from a CAR vs the recursive subtree scan
# --------------------------------------------------------------------- #


def _reference_covers(system, node, eid):
    """The subtree scan each CoNS hop used to make: True if *eid* belongs
    to a site under *node*."""
    if node.site is not None:
        return node.site.eid_prefix.contains(eid)
    return any(_reference_covers(system, system._tree_by_address[child], eid)
               for child in node.children)


@pytest.mark.parametrize("num_sites", (60, 200))
def test_cons_descent_matches_the_recursive_subtree_scan(num_sites):
    world = build_world(ScenarioConfig(control_plane="cons",
                                       num_sites=num_sites, num_providers=8,
                                       tracing=False))
    system = world.mapping_system
    sites = world.topology.sites
    unassigned = IPv4Address("100.200.0.7")
    assert not any(site.eid_prefix.contains(unassigned) for site in sites)
    eids = [host.address for site in sites for host in site.hosts]
    nodes = list(system._tree_by_address.values())
    assert any(node.name.startswith("cdr-d3-") for node in nodes)
    for node in nodes:
        for eid in (*eids, unassigned):
            child = next((address for address in node.children
                          if _reference_covers(
                              system, system._tree_by_address[address], eid)),
                         None)
            expected = (_reference_covers(system, node, eid), child)
            assert system._descent(node, eid) == expected, (node.name, eid)
    world.teardown()
