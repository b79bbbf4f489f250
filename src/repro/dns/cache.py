"""A TTL-expiring cache used by the resolver (and reusable elsewhere)."""

from repro.sim.state import Checkpointed


class TtlCache(Checkpointed):
    """Maps keys to values with per-entry absolute expiry times.

    Expiry is evaluated lazily against the simulator clock on access, and a
    size-triggered compaction sweeps out entries that expired without ever
    being re-touched — so memory stays O(live entries) even under workloads
    that never revisit a key (the map-cache aging regime of weakness W1).

    Contract notes:

    - ``put`` with a TTL that is not ``> 0`` (zero, negative or NaN)
      REJECTS the entry: any existing entry for the key is invalidated
      and a ``cache.put-rejected`` trace event is recorded.  It returns
      False.  An infinite TTL never expires.
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

    def put(self, key, value, ttl):
        """Store *value* for *ttl* seconds of simulated time.

        Returns True once the entry is stored.  Non-positive and NaN TTLs
        are rejected (see class docstring): nothing is stored, any stale
        entry for *key* is dropped, and False is returned.
        """
        if not ttl > 0:  # NaN compares false both ways: it lands here too
            self._entries.pop(key, None)
            if self.sim.trace.enabled:
                self.sim.trace.record(self.sim.now, self.name,
                                      "cache.put-rejected", key=str(key),
                                      ttl=ttl)
            return False
        self._entries[key] = (self.sim.now + ttl, value)
        if len(self._entries) >= self._next_compact:
            self.compact()
            # Back off so compaction stays amortized O(1) per insertion.
            self._next_compact = max(self.COMPACT_THRESHOLD,
                                     2 * len(self._entries))
        return True

    def get(self, key):
        """Return the live value for *key*, or None."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        expires, value = entry
        if expires <= self.sim.now:
            del self._entries[key]
            return None
        return value

    def compact(self):
        """Drop every expired entry now; returns how many were freed."""
        now = self.sim.now
        dead = [key for key, (expires, _value) in self._entries.items()
                if expires <= now]
        for key in dead:
            del self._entries[key]
        return len(dead)

    def __len__(self):
        self.compact()
        return len(self._entries)

    #: Construction-time config (owning sim, trace label).
    _SNAPSHOT_EXEMPT = ("sim", "name")
