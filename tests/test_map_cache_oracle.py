"""Reference-model oracles for the longest-match structures that forget.

A :class:`~repro.lisp.map_cache.MapCache` expires entries lazily and a
:class:`~repro.net.fib.Fib` memoises lookups across removals.  Both must
answer "the longest *live* prefix covering this address", whatever the
history.  Each is driven here by generated sequences over one pool of
nested prefixes (/8 ⊃ /16 ⊃ /24 ⊃ /32 and their siblings), against a
model that keeps a plain list and answers by brute force.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lisp.map_cache import MapCache
from repro.lisp.mappings import MappingRecord, RlocEntry
from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.net.fib import Fib, FibEntry
from repro.sim import Simulator

#: Nested prefixes: every address below is covered by two to four of them.
PREFIXES = tuple(IPv4Prefix(text) for text in (
    "10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.1.2.3/32",
    "10.1.2.4/32", "10.1.3.0/24", "10.2.0.0/16", "10.2.0.1/32"))
ADDRESSES = tuple(IPv4Address(text) for text in (
    "10.1.2.3", "10.1.2.4", "10.1.2.9", "10.1.3.7", "10.2.0.1", "10.2.9.9",
    "10.9.9.9", "11.0.0.1"))
TTLS = (0.5, 1.0, 2.0, 5.0)
STEPS = (0.25, 0.5, 1.0, 2.0)

prefixes = st.sampled_from(PREFIXES)
addresses = st.sampled_from(ADDRESSES)


class _ReferenceMapCache:
    """The map-cache contract over a list of ``(prefix, mapping, expires)``.

    A read walks the entries covering the address from the longest prefix
    down: each expired one is removed and counted, and the first live one
    is the answer.  Expired entries shorter than the answer stay.
    """

    def __init__(self):
        self.entries = []
        self.hits = self.misses = self.expirations = 0

    def counters(self):
        return (self.hits, self.misses, self.expirations)

    def install(self, now, mapping, ttl):
        prefix = mapping.eid_prefix
        self.entries = [entry for entry in self.entries if entry[0] != prefix]
        self.entries.append((prefix, mapping, now + ttl))

    def _walk(self, now, address):
        covering = sorted((entry for entry in self.entries
                           if entry[0].contains(address)),
                          key=lambda entry: -entry[0].length)
        for entry in covering:
            if entry[2] > now:
                return entry[1]
            self.entries.remove(entry)
            self.expirations += 1
        return None

    def lookup(self, now, address):
        mapping = self._walk(now, address)
        if mapping is None:
            self.misses += 1
        else:
            self.hits += 1
        return mapping

    def peek(self, now, address):
        return self._walk(now, address)

    def live(self, now):
        return sorted(((prefix, mapping) for prefix, mapping, expires
                       in self.entries if expires > now),
                      key=lambda pair: (pair[0].network.value, pair[0].length))


def _mapping(prefix, serial):
    """A distinct record per install, so the oracle sees which one answers."""
    return MappingRecord(prefix, (RlocEntry(f"192.0.2.{serial % 250 + 1}"),))


map_cache_ops = st.lists(st.one_of(
    st.tuples(st.just("install"), prefixes, st.sampled_from(TTLS)),
    st.tuples(st.just("lookup"), addresses),
    st.tuples(st.just("peek"), addresses),
    st.tuples(st.just("entries")),
    st.tuples(st.just("advance"), st.sampled_from(STEPS))),
    min_size=1, max_size=60)


@settings(max_examples=300, deadline=None)
@given(map_cache_ops)
def test_map_cache_answers_the_longest_live_prefix(ops):
    sim = Simulator(seed=1)
    cache = MapCache(sim)
    reference = _ReferenceMapCache()
    for serial, op in enumerate(ops):
        kind = op[0]
        if kind == "install":
            _kind, prefix, ttl = op
            mapping = _mapping(prefix, serial)
            cache.install(mapping, ttl=ttl)
            reference.install(sim.now, mapping, ttl)
        elif kind == "lookup":
            assert cache.lookup(op[1]) is reference.lookup(sim.now, op[1]), op
        elif kind == "peek":
            assert cache.peek(op[1]) is reference.peek(sim.now, op[1]), op
        elif kind == "entries":
            assert cache.entries() == reference.live(sim.now)
            assert len(cache) == len(reference.live(sim.now))
        else:
            sim.now += op[1]
        assert (cache.hits, cache.misses, cache.expirations) \
            == reference.counters(), op


def test_an_expired_more_specific_falls_back_to_the_live_covering_prefix():
    """The PCE case: a /32 learned by reverse mapping ages out while the
    /24 a PCE pushed later is live; the lookup must find the /24."""
    sim = Simulator(seed=1)
    cache = MapCache(sim)
    host, site = IPv4Prefix("10.1.2.3/32"), IPv4Prefix("10.1.2.0/24")
    cache.install(_mapping(host, 1), ttl=2.0)
    sim.now = 1.5
    pushed = _mapping(site, 2)
    cache.install(pushed, ttl=2.0)
    sim.now = 2.5
    assert cache.lookup("10.1.2.3") is pushed
    assert (cache.hits, cache.misses, cache.expirations) == (1, 0, 1)
    assert cache.entries() == [(site, pushed)]


fib_ops = st.lists(st.one_of(
    st.tuples(st.just("insert"), prefixes),
    st.tuples(st.just("remove"), prefixes),
    st.tuples(st.just("lookup"), addresses),
    st.tuples(st.just("clear"))),
    min_size=1, max_size=60)


@settings(max_examples=300, deadline=None)
@given(fib_ops)
def test_fib_memo_answers_the_longest_present_prefix(ops):
    """The memo outlives lookups, not mutations: after any insert, remove
    or clear, every address gets what a brute-force scan gives."""
    fib = Fib()
    routes = {}
    for serial, op in enumerate(ops):
        kind = op[0]
        if kind == "insert":
            entry = FibEntry(op[1], f"if{serial}")
            fib.insert(entry)
            routes[op[1]] = entry
        elif kind == "remove":
            assert fib.remove(op[1]) is routes.pop(op[1], None)
        elif kind == "clear":
            for entry in fib.entries():  # empty the table
                fib.remove(entry.prefix)
            routes.clear()
        else:
            covering = [prefix for prefix in routes if prefix.contains(op[1])]
            expected = (routes[max(covering, key=lambda prefix: prefix.length)]
                        if covering else None)
            assert fib.lookup(op[1], default=None) is expected, op
        assert len(fib) == len(routes)
