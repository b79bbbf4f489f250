"""The ITR map-cache: TTL-aged mappings with longest-prefix match.

This is the cache whose misses cause the paper's weakness W1: "a hit might
not necessarily be found, either because the mapping has aged out, or simply
because it was never requested before" (§1).
"""

from repro.net.fib import Fib, FibEntry
from repro.sim.state import Checkpointed


class _CacheSlot:
    __slots__ = ("mapping", "expires")

    def __init__(self, mapping, expires):
        self.mapping = mapping
        self.expires = expires


class MapCache(Checkpointed):
    """EID-prefix keyed cache of :class:`~repro.lisp.mappings.MappingRecord`.

    Lookup is longest-prefix match, as an ITR's would be; entries expire
    after their TTL, and expiry is detected lazily.
    """

    def __init__(self, sim, name="map-cache", owner=None):
        self.sim = sim
        self.name = name
        #: The journaled component this cache is part of (its xTR),
        #: touched before every mutation — counting a lookup and lazily
        #: expiring an entry included.
        self._owner = owner
        self._fib = Fib()
        self.hits = 0
        self.misses = 0
        self.expirations = 0

    def install(self, mapping, ttl=None):
        """Insert/refresh *mapping* for *ttl* seconds (default: the
        record's own TTL); ``float('inf')`` makes the entry permanent
        (NERD's pushed database uses this)."""
        owner = self._owner
        if owner is not None and owner._journal is not None:
            owner._touch()
        if ttl is None:
            ttl = mapping.ttl
        slot = _CacheSlot(mapping, self.sim.now + ttl)
        self._fib.insert(FibEntry(mapping.eid_prefix, slot))

    def lookup(self, eid):
        """The live mapping covering *eid*, or None (counts hits/misses)."""
        owner = self._owner
        if owner is not None and owner._journal is not None:
            owner._touch()
        slot = self._live_slot(eid)
        if slot is None:
            self.misses += 1
            return None
        self.hits += 1
        return slot.mapping

    def peek(self, eid):
        """Like :meth:`lookup` but without counting."""
        slot = self._live_slot(eid)
        return slot.mapping if slot is not None else None

    def _live_slot(self, eid):
        """The longest *live* prefix's slot covering *eid*, or None.

        An expired entry is removed (and counted) on the way: a more
        specific one that aged out must not hide a covering one that is
        still live, so the lookup goes on until a live entry or a miss.
        """
        while True:
            entry = self._fib.lookup(eid, default=None)
            if entry is None:
                return None
            slot = entry.interface
            if slot.expires > self.sim.now:
                return slot
            owner = self._owner
            if owner is not None and owner._journal is not None:
                owner._touch()
            self._fib.remove(entry.prefix)
            self.expirations += 1

    def entries(self):
        """Live (prefix, mapping) pairs."""
        now = self.sim.now
        return [(entry.prefix, entry.interface.mapping)
                for entry in self._fib.entries() if entry.interface.expires > now]

    def __len__(self):
        return len(self.entries())

    #: Construction-time config (owning sim, trace label, owner).
    _SNAPSHOT_EXEMPT = ("sim", "name", "_owner")
