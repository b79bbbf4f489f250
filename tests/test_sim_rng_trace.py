"""Tests for random streams and the tracer."""

import hashlib

from repro.sim import RandomStreams, Simulator, Tracer


def test_streams_are_deterministic_across_instances():
    first = RandomStreams(123).stream("arrivals")
    second = RandomStreams(123).stream("arrivals")
    assert [first.random() for _ in range(10)] == [second.random() for _ in range(10)]


def test_streams_differ_by_name():
    streams = RandomStreams(123)
    a = [streams.stream("a").random() for _ in range(5)]
    b = [streams.stream("b").random() for _ in range(5)]
    assert a != b


def test_streams_differ_by_seed():
    a = [RandomStreams(1).stream("x").random() for _ in range(5)]
    b = [RandomStreams(2).stream("x").random() for _ in range(5)]
    assert a != b


def test_stream_is_cached():
    streams = RandomStreams(0)
    assert streams.stream("s") is streams.stream("s")


def test_clone_reads_ahead_without_advancing_the_stream():
    streams = RandomStreams(77)
    stream = streams.stream("workload")
    for _ in range(13):
        stream.random()     # a clone starts wherever the stream is now
    before = stream.getstate()
    clone = streams.clone("workload")
    ahead = [clone.expovariate(3.0) for _ in range(1000)]
    assert stream.getstate() == before
    assert clone is not stream and sorted(streams._streams) == ["workload"]
    assert [stream.expovariate(3.0) for _ in range(1000)] == ahead


def test_rollback_resets_handed_out_streams_and_only_those():
    streams = RandomStreams(5)
    used = streams.stream("used")
    idle = streams.stream("idle")
    used.random()
    streams.checkpoint()
    pristine = streams.snapshot_state()

    draws = [streams.stream("used").random() for _ in range(3)]
    late = streams.stream("late").random()      # created since the checkpoint
    assert set(streams._handed_out) == {"used", "late"}
    idle_state = idle.getstate()
    idle.setstate(RandomStreams(6).stream("idle").getstate())  # behind its back

    streams.rollback()
    assert streams._handed_out == {}
    assert sorted(streams._streams) == ["idle", "used"]  # "late" is re-derived
    assert streams.stream("used") is used
    assert [used.random() for _ in range(3)] == draws
    assert streams.stream("late").random() == late
    # A stream nobody was handed is not visited: the hand-out is the journal.
    assert idle.getstate() != idle_state
    streams.rollback()
    assert streams.snapshot_state()["used"] == pristine["used"]


def fork(streams, name):
    """A new :class:`RandomStreams` whose master seed derives from
    *streams*' seed and *name*: one replication's own universe of streams."""
    digest = hashlib.sha256(f"{streams.seed}:fork:{name}".encode()).digest()
    return RandomStreams(int.from_bytes(digest[:8], "big"))


def test_fork_produces_independent_universe():
    base = RandomStreams(9)
    fork_a = fork(base, "rep1")
    fork_b = fork(base, "rep2")
    assert fork_a.seed != fork_b.seed
    assert fork_a.stream("x").random() != fork_b.stream("x").random()


def test_fork_is_deterministic():
    assert fork(RandomStreams(9), "rep1").seed \
        == fork(RandomStreams(9), "rep1").seed


def test_tracer_records_and_filters():
    tracer = Tracer()
    tracer.record(1.0, "node-a", "pkt.send", size=100)
    tracer.record(2.0, "node-b", "pkt.recv", size=100)
    tracer.record(3.0, "node-a", "dns.query", qname="example.com")
    assert len(tracer) == 3
    assert [r.time for r in tracer.of_kind("pkt.recv")] == [2.0]
    assert [r.kind for r in tracer if 1.5 <= r.time <= 3.0] \
        == ["pkt.recv", "dns.query"]


def test_tracer_dump():
    tracer = Tracer()
    tracer.record(1.0, "x", "a", k=1)
    text = "\n".join(map(str, tracer))
    assert "k=1" in text and "a" in text


def test_simulator_owns_trace_and_rng():
    sim = Simulator(seed=5)
    sim.trace.record(sim.now, "engine", "boot")
    assert len(sim.trace) == 1
    assert sim.rng.stream("any") is sim.rng.stream("any")
