"""Regression tests for TtlCache: rejection contract, compaction, and a
seeded differential oracle against a plain dict."""

import math
import random

import pytest

from repro.dns.cache import TtlCache
from repro.sim import Simulator


def make_cache():
    sim = Simulator(seed=3)
    return sim, TtlCache(sim, name="test-cache")


def test_put_rejects_non_positive_ttl():
    sim, cache = make_cache()
    assert cache.put("k", "v", 0) is False
    assert cache.put("k", "v", -5) is False
    assert cache._entries == {}
    assert cache.get("k") is None
    events = sim.trace.of_kind("cache.put-rejected")
    assert len(events) == 2
    assert events[0].detail["key"] == "k"


def test_nan_ttl_is_rejected_and_inf_never_expires():
    sim, cache = make_cache()
    assert cache.put("k", "old", 10) is True
    # NaN is neither <= 0 nor expired at any time: it must be rejected.
    assert cache.put("k", "v", math.nan) is False
    assert cache._entries == {}
    assert [event.detail["key"] for event
            in sim.trace.of_kind("cache.put-rejected")] == ["k"]
    assert cache.put("forever", "v", math.inf) is True
    sim.now = 1e9
    assert cache.get("k") is None   # the stale entry went with the rejection
    assert cache.get("forever") == "v"


def test_put_rejection_drops_stale_entry():
    sim, cache = make_cache()
    assert cache.put("k", "old", 10) is True
    # A zero-TTL re-put must not leave the old value reachable.
    assert cache.put("k", "new", 0) is False
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
    assert cache.compact() == 0        # nothing left to sweep


def test_compaction_bounds_memory_under_churn():
    """Keys never re-touched must still be freed (weakness W1 churn)."""
    sim, cache = make_cache()
    for i in range(20_000):
        cache.put(i, i, ttl=0.5)
        sim.now += 0.1  # each entry dies 5 puts later, and is never read
    assert len(cache._entries) < 2 * TtlCache.COMPACT_THRESHOLD


def test_an_expired_read_misses_and_frees():
    sim, cache = make_cache()
    cache.put("k", "v", ttl=5)
    assert cache.get("k") == "v"
    assert cache.get("missing") is None
    sim.now = 6.0
    assert cache.get("k") is None      # expired: a miss, and freed
    assert cache._entries == {}


# --------------------------------------------------------------------- #
# TtlCache vs a plain dict, under seeded scripts
# --------------------------------------------------------------------- #

#: Every kind of TTL a caller can hand over: rejected (-1, 0, NaN), short,
#: long and never expiring.
_TTLS = (-1, 0, math.nan, 0.5, 1, 2, math.inf)
_KEYS = "abcdefgh"


class _ReferenceCache:
    """The contract of :class:`TtlCache`, written out over one dict.

    ``entries`` maps key -> (expires, value) in insertion order; a dead
    entry stays until a read finds it or a compaction sweeps it.  An
    insertion that brings the dict to *threshold* entries compacts it, and
    the next automatic compaction waits for twice what survived (never
    less than *threshold*).
    """

    def __init__(self, threshold):
        self.threshold = self.next_compact = threshold
        self.entries = {}
        self.rejected_puts = 0

    def put(self, now, key, value, ttl):
        if not (ttl > 0):
            self.entries.pop(key, None)
            self.rejected_puts += 1
            return False
        self.entries[key] = (now + ttl, value)
        if len(self.entries) >= self.next_compact:
            self.compact(now)
            self.next_compact = max(self.threshold, 2 * len(self.entries))
        return True

    def get(self, now, key):
        if key not in self.entries:
            return None
        expires, value = self.entries[key]
        if now >= expires:
            del self.entries[key]
            return None
        return value

    def compact(self, now):
        dead = [key for key, (expires, _value) in self.entries.items()
                if now >= expires]
        for key in dead:
            del self.entries[key]
        return len(dead)


@pytest.mark.parametrize("compact_threshold", (None, 3))
@pytest.mark.parametrize("seed", range(12))
def test_ttl_cache_matches_a_reference_dict(seed, compact_threshold,
                                            monkeypatch):
    """None keeps the shipped threshold, which eight keys never reach; 3
    makes nearly every insertion weigh an automatic compaction."""
    if compact_threshold is not None:
        monkeypatch.setattr(TtlCache, "COMPACT_THRESHOLD", compact_threshold)
    rng = random.Random(seed)
    sim, cache = make_cache()
    reference = _ReferenceCache(TtlCache.COMPACT_THRESHOLD)
    for step in range(400):
        key = rng.choice(_KEYS)
        action = rng.choice(("put", "put", "put", "get", "get",
                             "compact", "len", "advance"))
        if action == "put":
            ttl = rng.choice(_TTLS)
            assert cache.put(key, step, ttl) \
                == reference.put(sim.now, key, step, ttl), (step, ttl)
        elif action == "get":
            assert cache.get(key) == reference.get(sim.now, key), step
        elif action == "compact":
            assert cache.compact() == reference.compact(sim.now), step
        elif action == "len":
            reference.compact(sim.now)
            assert len(cache) == len(reference.entries), step
        else:
            sim.now += rng.choice((0.25, 0.5, 1.0, 3.0))
        # Dead entries linger exactly as long: compaction bounds memory.
        assert len(cache._entries) == len(reference.entries), (step, action)
    assert len(sim.trace.of_kind("cache.put-rejected")) \
        == reference.rejected_puts
