"""Tests for mappings, map-cache, headers and encap/decap."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lisp.headers import LispHeader, MapReply, MapRequest, decapsulate, encapsulate
from repro.lisp.map_cache import MapCache
from repro.lisp.mappings import MappingRecord, RlocEntry
from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.net.packet import udp_packet
from repro.sim import Simulator


def mapping(prefix="100.0.1.0/24", rlocs=(("10.1.1.1", 1, 50),), ttl=60.0, source=None):
    entries = tuple(RlocEntry(address, priority=p, weight=w) for address, p, w in rlocs)
    return MappingRecord(IPv4Prefix(prefix), entries, ttl=ttl, source_rloc=source)


def test_best_rloc_prefers_lowest_priority():
    record = mapping(rlocs=(("10.1.1.1", 2, 50), ("11.1.1.1", 1, 50)))
    assert record.best_rloc().address == IPv4Address("11.1.1.1")


def test_best_rloc_breaks_ties_by_weight():
    record = mapping(rlocs=(("10.1.1.1", 1, 10), ("11.1.1.1", 1, 90)))
    assert record.best_rloc().address == IPv4Address("11.1.1.1")


def test_best_rloc_skips_unreachable():
    record = MappingRecord("100.0.1.0/24",
                           (RlocEntry("10.1.1.1", 1, 50, reachable=False),
                            RlocEntry("11.1.1.1", 2, 50)))
    assert record.best_rloc().address == IPv4Address("11.1.1.1")


def test_best_rloc_none_when_all_down():
    record = MappingRecord("100.0.1.0/24",
                           (RlocEntry("10.1.1.1", 1, 50, reachable=False),))
    assert record.best_rloc() is None


def test_with_chosen_rloc():
    record = mapping(rlocs=(("10.1.1.1", 1, 50), ("11.1.1.1", 2, 50)))
    narrowed = record.with_chosen_rloc("11.1.1.1")
    assert [r.address for r in narrowed.rlocs] == [IPv4Address("11.1.1.1")]
    with pytest.raises(ValueError):
        record.with_chosen_rloc("12.1.1.1")


def test_with_source_rloc():
    record = mapping().with_source_rloc("10.9.9.9")
    assert record.source_rloc == IPv4Address("10.9.9.9")


def test_mapping_size_scales_with_rlocs():
    one = mapping(rlocs=(("10.1.1.1", 1, 50),))
    two = mapping(rlocs=(("10.1.1.1", 1, 50), ("11.1.1.1", 2, 50)))
    assert two.size_bytes == one.size_bytes + 12


def test_encap_decap_roundtrip():
    inner = udp_packet("100.0.0.10", "100.0.1.10", 5000, 80, payload_bytes=100)
    outer = encapsulate(inner, "10.1.1.1", "12.1.1.1")
    assert outer.ip.src == IPv4Address("10.1.1.1")
    assert outer.ip.dst == IPv4Address("12.1.1.1")
    assert outer.udp.dport == 4341
    got_inner, outer_ip, lisp = decapsulate(outer)
    assert got_inner is inner
    assert outer_ip.src == IPv4Address("10.1.1.1")
    assert isinstance(lisp, LispHeader)


def test_encap_adds_exactly_36_bytes():
    inner = udp_packet("100.0.0.10", "100.0.1.10", 1, 2, payload_bytes=64)
    outer = encapsulate(inner, "10.1.1.1", "12.1.1.1")
    assert outer.size_bytes == inner.size_bytes + 20 + 8 + 8


def test_decapsulate_requires_inner():
    plain = udp_packet("10.0.0.1", "10.0.0.2", 1, 2)
    with pytest.raises(ValueError):
        decapsulate(plain)


def test_control_message_sizes():
    request = MapRequest(nonce=1, eid="100.0.1.10", itr_rloc="10.1.1.1")
    reply = MapReply(nonce=1, mapping=mapping())
    assert request.size_bytes == 40
    assert reply.size_bytes == 12 + mapping().size_bytes


def test_map_cache_hit_and_miss():
    sim = Simulator()
    cache = MapCache(sim)
    assert cache.lookup("100.0.1.10") is None
    cache.install(mapping("100.0.1.0/24"))
    assert cache.lookup("100.0.1.10") is not None
    assert cache.lookup("100.0.2.10") is None
    assert cache.hits == 1 and cache.misses == 2


def test_map_cache_longest_prefix_wins():
    sim = Simulator()
    cache = MapCache(sim)
    cache.install(mapping("100.0.0.0/16", rlocs=(("10.0.0.1", 1, 50),)))
    cache.install(mapping("100.0.1.0/24", rlocs=(("11.0.0.1", 1, 50),)))
    hit = cache.lookup("100.0.1.5")
    assert hit.rlocs[0].address == IPv4Address("11.0.0.1")


def test_map_cache_ttl_expiry():
    sim = Simulator()
    cache = MapCache(sim)
    cache.install(mapping(ttl=10.0))
    sim.run(until=9.0)
    assert cache.lookup("100.0.1.10") is not None
    sim.run(until=10.5)
    assert cache.lookup("100.0.1.10") is None
    assert cache.expirations == 1


def test_map_cache_explicit_ttl_wins_over_the_record():
    sim = Simulator()
    cache = MapCache(sim)
    cache.install(mapping(ttl=1000.0), ttl=5.0)
    sim.run(until=4.0)
    assert cache.lookup("100.0.1.10") is not None
    sim.run(until=6.0)
    assert cache.lookup("100.0.1.10") is None


def test_map_cache_permanent_entry():
    sim = Simulator()
    cache = MapCache(sim)
    cache.install(mapping(), ttl=float("inf"))
    sim.run(until=1e9)
    assert cache.lookup("100.0.1.10") is not None


def test_map_cache_peek_does_not_count():
    sim = Simulator()
    cache = MapCache(sim)
    cache.peek("100.0.1.10")
    assert cache.misses == 0 and cache.hits == 0


def test_map_cache_entries_and_len():
    sim = Simulator()
    cache = MapCache(sim)
    cache.install(mapping("100.0.1.0/24", ttl=1.0))
    cache.install(mapping("100.0.2.0/24"))
    assert len(cache) == 2
    sim.run(until=2.0)  # the first entry's TTL has passed: it is not live
    assert [str(prefix) for prefix, _mapping in cache.entries()] \
        == ["100.0.2.0/24"]
    assert len(cache) == 1


@given(st.integers(min_value=0, max_value=255), st.integers(min_value=1, max_value=600))
def test_map_cache_never_returns_expired(third_octet, ttl):
    sim = Simulator()
    cache = MapCache(sim)
    prefix = f"100.0.{third_octet}.0/24"
    cache.install(mapping(prefix, ttl=float(ttl)))
    sim.run(until=ttl + 0.001)
    assert cache.lookup(f"100.0.{third_octet}.10") is None
