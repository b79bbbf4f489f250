"""Regression tests for TtlCache: rejection contract, compaction, bounds."""

from repro.dns.cache import TtlCache
from repro.sim import Simulator


def make_cache(**kwargs):
    sim = Simulator(seed=3)
    return sim, TtlCache(sim, name="test-cache", **kwargs)


def test_put_rejects_non_positive_ttl():
    sim, cache = make_cache()
    assert cache.put("k", "v", 0) is False
    assert cache.put("k", "v", -5) is False
    assert cache.rejected_puts == 2
    assert cache.insertions == 0
    assert cache.get("k") is None
    events = sim.trace.of_kind("cache.put-rejected")
    assert len(events) == 2
    assert events[0].detail["key"] == "k"


def test_put_rejection_drops_stale_entry():
    sim, cache = make_cache()
    assert cache.put("k", "old", 10) is True
    # A zero-TTL re-put must not leave the old value reachable.
    assert cache.put("k", "new", 0) is False
    assert cache.peek("k") is None
    assert cache.get("k") is None
    assert len(cache._entries) == 0


def test_len_is_exact_and_frees_dead_entries():
    sim, cache = make_cache()
    for i in range(10):
        cache.put(i, i, ttl=1.0)
    sim.now = 2.0
    assert len(cache._entries) == 10  # dead but not yet swept
    assert len(cache) == 0             # len compacts...
    assert len(cache._entries) == 0   # ...and frees
    assert cache.expirations == 10


def test_compaction_bounds_memory_under_churn():
    """Keys never re-touched must still be freed (weakness W1 churn)."""
    sim, cache = make_cache()
    for i in range(20_000):
        cache.put(i, i, ttl=0.5)
        sim.now += 0.1  # each entry dies 5 puts later, and is never read
    assert len(cache._entries) < 2 * TtlCache.COMPACT_THRESHOLD


def test_max_entries_evicts_earliest_expiry():
    sim, cache = make_cache(max_entries=3)
    cache.put("a", 1, ttl=10)
    cache.put("b", 2, ttl=5)
    cache.put("c", 3, ttl=20)
    cache.put("d", 4, ttl=15)
    assert cache.evictions == 1
    assert cache.peek("b") is None     # closest to expiry went first
    assert {key for key in ("a", "c", "d") if cache.peek(key) is not None} \
        == {"a", "c", "d"}


def test_max_entries_prefers_compacting_expired():
    sim, cache = make_cache(max_entries=2)
    cache.put("old", 1, ttl=1)
    sim.now = 2.0
    cache.put("x", 2, ttl=10)
    cache.put("y", 3, ttl=10)
    # "old" was already dead, so room was made by compaction, not eviction.
    assert cache.evictions == 0
    assert cache.peek("x") == 2 and cache.peek("y") == 3


def test_hit_miss_counters_unchanged():
    sim, cache = make_cache()
    cache.put("k", "v", ttl=5)
    assert cache.get("k") == "v"
    assert cache.get("missing") is None
    sim.now = 6.0
    assert cache.get("k") is None
    assert (cache.hits, cache.misses, cache.expirations) == (1, 2, 1)
    assert cache.hit_ratio == 1 / 3


def test_put_reports_false_when_new_entry_is_the_victim():
    sim, cache = make_cache(max_entries=1)
    assert cache.put("long", 1, ttl=100) is True
    # The new short-TTL entry is itself closest to expiry, so it loses.
    assert cache.put("short", 2, ttl=1) is False
    assert cache.peek("short") is None
    assert cache.peek("long") == 1
    assert cache.evictions == 1
