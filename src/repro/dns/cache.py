"""A TTL-expiring cache used by the resolver (and reusable elsewhere)."""


class TtlCache:
    """Maps keys to values with per-entry absolute expiry times.

    Expiry is evaluated lazily against the simulator clock on access, and a
    size-triggered compaction sweeps out entries that expired without ever
    being re-touched — so memory stays O(live entries) even under workloads
    that never revisit a key (the map-cache aging regime of weakness W1).

    Contract notes:

    - ``put`` with a TTL that is not ``> 0`` (zero, negative or NaN)
      REJECTS the entry: any existing entry for the key is invalidated,
      ``rejected_puts`` is incremented and a ``cache.put-rejected`` trace
      event is recorded.  It returns False.  An infinite TTL never expires.
    - ``len(cache)`` is exact: it compacts first, so dead entries are both
      freed and never counted.
    """

    #: Entry count at which the first automatic compaction triggers.
    COMPACT_THRESHOLD = 256

    def __init__(self, sim, name="cache"):
        self.sim = sim
        self.name = name
        self._entries = {}
        self._next_compact = self.COMPACT_THRESHOLD
        self.hits = 0
        self.misses = 0
        self.expirations = 0
        self.insertions = 0
        self.rejected_puts = 0

    def put(self, key, value, ttl):
        """Store *value* for *ttl* seconds of simulated time.

        Returns True once the entry is stored.  Non-positive and NaN TTLs
        are rejected (see class docstring): nothing is stored, any stale
        entry for *key* is dropped, and False is returned.
        """
        if not ttl > 0:  # NaN compares false both ways: it lands here too
            self._entries.pop(key, None)
            self.rejected_puts += 1
            self.sim.trace.record(self.sim.now, self.name, "cache.put-rejected",
                                  key=str(key), ttl=ttl)
            return False
        self._entries[key] = (self.sim.now + ttl, value)
        self.insertions += 1
        if len(self._entries) >= self._next_compact:
            self.compact()
            # Back off so compaction stays amortized O(1) per insertion.
            self._next_compact = max(self.COMPACT_THRESHOLD,
                                     2 * len(self._entries))
        return True

    def get(self, key):
        """Return the live value for *key*, or None (counting hit/miss)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        expires, value = entry
        if expires <= self.sim.now:
            del self._entries[key]
            self.expirations += 1
            self.misses += 1
            return None
        self.hits += 1
        return value

    def peek(self, key):
        """Like :meth:`get` but without touching the counters."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        expires, value = entry
        if expires <= self.sim.now:
            return None
        return value

    def compact(self):
        """Drop every expired entry now; returns how many were freed."""
        now = self.sim.now
        dead = [key for key, (expires, _value) in self._entries.items()
                if expires <= now]
        for key in dead:
            del self._entries[key]
        self.expirations += len(dead)
        return len(dead)

    def clear(self):
        self._entries.clear()

    def __len__(self):
        self.compact()
        return len(self._entries)

    @property
    def hit_ratio(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    #: Construction-time config (owning sim, trace label).
    _SNAPSHOT_EXEMPT = ("sim", "name")

    def snapshot_state(self):
        return (dict(self._entries), self._next_compact, self.hits,
                self.misses, self.expirations, self.insertions,
                self.rejected_puts)

    def restore_state(self, state):
        (entries, self._next_compact, self.hits, self.misses,
         self.expirations, self.insertions, self.rejected_puts) = state
        self._entries = dict(entries)
