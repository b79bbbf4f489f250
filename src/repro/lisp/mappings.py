"""EID-to-RLOC mapping records.

A mapping binds an EID prefix to one or more routing locators, each with a
priority (lower preferred) and a weight (load share among equal priority),
mirroring draft-farinacci-lisp-08's Map-Reply record format.
"""

from dataclasses import dataclass

from repro.net.addresses import IPv4Address, IPv4Prefix


@dataclass(frozen=True)
class RlocEntry:
    """One locator inside a mapping."""

    address: IPv4Address
    priority: int = 1
    weight: int = 50
    reachable: bool = True

    def __post_init__(self):
        if type(self.address) is not IPv4Address:
            object.__setattr__(self, "address", IPv4Address(self.address))

    def __str__(self):
        return f"{self.address} p{self.priority}/w{self.weight}"


@dataclass(frozen=True)
class MappingRecord:
    """An EID prefix and its locator set."""

    eid_prefix: IPv4Prefix
    rlocs: tuple
    ttl: float = 60.0
    source_rloc: IPv4Address = None  # PCE CP: outer source to use (two one-way tunnels)

    def __post_init__(self):
        if type(self.eid_prefix) is not IPv4Prefix:
            object.__setattr__(self, "eid_prefix", IPv4Prefix(self.eid_prefix))
        if type(self.rlocs) is not tuple:
            object.__setattr__(self, "rlocs", tuple(self.rlocs))
        if self.source_rloc is not None:
            object.__setattr__(self, "source_rloc", IPv4Address(self.source_rloc))

    #: ``(liveness version, answer)`` of the last :meth:`best_rloc` call.
    _best = None

    def best_rloc(self, liveness=None):
        """The preferred usable locator: lowest priority, highest weight.

        *liveness*, when given, is a predicate (address -> bool) supplied by
        an RLOC prober; locators it reports down are skipped, which is how
        an ITR fails over to a backup locator (draft-08 reachability).
        Memoised per liveness ``version`` (a predicate without one is not).
        """
        version = 0 if liveness is None else getattr(liveness, "version", None)
        best = self._best
        if best is not None and best[0] == version:
            return best[1]
        usable = [r for r in self.rlocs if r.reachable
                  and (liveness is None or liveness(r.address))]
        choice = min(usable, key=lambda r: (r.priority, -r.weight, r.address._value),
                     default=None)
        if version is not None:
            object.__setattr__(self, "_best", (version, choice))
        return choice

    def with_chosen_rloc(self, address):
        """A copy whose locator set is narrowed to *address* only.

        The PCE control plane uses this to pin a specific ETR for a flow.
        """
        chosen = tuple(r for r in self.rlocs if r.address == IPv4Address(address))
        if not chosen:
            raise ValueError(f"{address} is not a locator of {self.eid_prefix}")
        return MappingRecord(self.eid_prefix, chosen, ttl=self.ttl,
                             source_rloc=self.source_rloc)

    def with_source_rloc(self, address):
        """A copy carrying an explicit outer-source locator."""
        return MappingRecord(self.eid_prefix, self.rlocs, ttl=self.ttl,
                             source_rloc=IPv4Address(address))

    def with_preferred_rloc(self, address):
        """A copy with *address* promoted to priority 0, others demoted.

        Unlike :meth:`with_chosen_rloc`, the remaining locators stay in the
        record as backups — the ITR steers traffic to the preferred one but
        can fail over if a prober reports it down.
        """
        address = IPv4Address(address)
        if all(r.address != address for r in self.rlocs):
            raise ValueError(f"{address} is not a locator of {self.eid_prefix}")
        reordered = tuple(
            RlocEntry(r.address, priority=0 if r.address == address
                      else max(1, r.priority), weight=r.weight,
                      reachable=r.reachable)
            for r in self.rlocs)
        return MappingRecord(self.eid_prefix, reordered, ttl=self.ttl,
                             source_rloc=self.source_rloc)

    @property
    def size_bytes(self):
        """Approximate Map-Reply record size: 12B fixed + 12B per locator."""
        return 12 + 12 * len(self.rlocs)

    def __str__(self):
        locators = ", ".join(str(r) for r in self.rlocs)
        src = f" src={self.source_rloc}" if self.source_rloc is not None else ""
        return f"{self.eid_prefix} -> [{locators}] ttl={self.ttl}{src}"


def site_mapping(site, ttl=60.0):
    """The authoritative mapping a site registers for its EID prefix.

    All of the site's RLOCs are included; the first one (its primary) gets
    the best priority, matching the static preferences a non-PCE site
    would publish.
    """
    rlocs = []
    for b in range(len(site.xtrs)):
        priority = 1 if b == 0 else 2
        rlocs.append(RlocEntry(site.rloc_of(b), priority=priority, weight=50))
    return MappingRecord(site.eid_prefix, tuple(rlocs), ttl=ttl)
