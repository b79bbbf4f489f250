"""Forwarding Information Base: per-prefix-length hash tables with longest-prefix match."""

from dataclasses import dataclass

from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.net.errors import NoRouteError
from repro.sim.state import Checkpointed


@dataclass(slots=True)
class FibEntry:
    """A routing entry: where packets matching *prefix* should go.

    ``interface`` is the egress :class:`~repro.net.node.Interface`;
    ``next_hop`` is informational (point-to-point links need no ARP).
    ``metric`` breaks ties when replacing entries for the same prefix.
    """

    prefix: IPv4Prefix
    interface: object
    next_hop: object = None
    metric: float = 0.0

    def __str__(self):
        via = f" via {self.next_hop}" if self.next_hop is not None else ""
        return f"{self.prefix} -> {getattr(self.interface, 'name', self.interface)}{via}"


#: Distinguishes "no default supplied" from an explicit ``default=None``
#: (callers such as the map-cache want None back on a miss).
_NO_DEFAULT = object()


def _prefix_order(entry):
    prefix = entry.prefix
    return (prefix._network, prefix._length)


class Fib(Checkpointed):
    """Longest-prefix-match table.

    One ``{network value: entry}`` dict per populated prefix length; a
    lookup masks the address to each populated length, longest first, and
    stops at the first hit.  Real tables hold a handful of distinct lengths
    (four in a flat world's 5,234 routes), so a miss costs a few dict probes
    and a table costs one dict per length — nothing per bit of prefix — and
    an insert or remove finds its length's dict by scanning those few.

    >>> fib = Fib()
    >>> fib.insert(FibEntry(IPv4Prefix('10.0.0.0/8'), 'if0'))
    >>> fib.insert(FibEntry(IPv4Prefix('10.1.0.0/16'), 'if1'))
    >>> fib.lookup('10.1.2.3').interface
    'if1'
    >>> fib.lookup('10.2.0.1').interface
    'if0'
    """

    __slots__ = ("_owner", "_probes", "version", "_memo")

    def __init__(self, owner=None):
        #: The journaled component this table is part of (a node's FIB
        #: knows its node), touched before every mutation so a route
        #: inserted from outside the node is still undone by a restore.
        self._owner = owner
        #: ``(mask, {network value: entry}, length)`` of every populated
        #: length, longest first: the order :meth:`lookup` probes in, and
        #: the table's only index.  Rebuilt when a length appears or its
        #: last route goes; no empty tables.
        self._probes = ()
        #: Bumped on every mutation; lets the restore of a dirty owner
        #: skip a table that never changed (a provider a packet crossed).
        self.version = 0
        #: ``address value -> entry`` (None for a miss) of every destination
        #: looked up since the last mutation.  Created on first lookup and
        #: dropped by every insert/remove/restore, so tables nobody
        #: forwards through carry no dict; it holds at most one key per
        #: distinct destination this table was asked about.
        self._memo = None

    def __len__(self):
        return sum(len(table) for _mask, table, _length in self._probes)

    def _table(self, length):
        """The populated table of prefix *length*, or None."""
        for _mask, table, probed in self._probes:
            if probed == length:
                return table
        return None

    def insert(self, entry):
        """Insert *entry*, replacing any existing entry for the same prefix."""
        owner = self._owner
        if owner is not None and owner._journal is not None:
            owner._touch()
        prefix = entry.prefix
        length = prefix._length
        for _mask, table, probed in self._probes:    # _table, inline
            if probed == length:
                break
        else:
            # A longer prefix has the larger mask and no two lengths share
            # one, so the probes sort by their first item alone.
            table = {}
            self._probes = tuple(sorted(
                (*self._probes, (IPv4Prefix._mask_for(length), table, length)),
                reverse=True))
        table[prefix._network] = entry
        self.version += 1
        self._memo = None

    def add(self, prefix, interface, next_hop=None, metric=0.0):
        """Shorthand for :meth:`insert`."""
        self.insert(FibEntry(IPv4Prefix(prefix), interface, next_hop, metric))

    def remove(self, prefix):
        """Remove the entry for exactly *prefix*; returns it (or None).

        A length whose last route goes leaves the probe order, so
        install/expire churn (map-cache TTL aging) never leaves lookups
        probing dead lengths.
        """
        prefix = IPv4Prefix(prefix)
        table = self._table(prefix._length)
        entry = table.get(prefix._network) if table is not None else None
        if entry is not None:
            owner = self._owner
            if owner is not None and owner._journal is not None:
                owner._touch()
            del table[prefix._network]
            if not table:
                self._probes = tuple(probe for probe in self._probes
                                     if probe[1] is not table)
            self.version += 1
            self._memo = None
        return entry

    def lookup(self, address, default=_NO_DEFAULT):
        """Most-specific entry matching *address*; *default* if none.

        Raises :class:`NoRouteError` when no entry matches and no default is
        provided.  An explicit ``default=None`` returns None on a miss.
        """
        value = (address if type(address) is IPv4Address
                 else IPv4Address(address))._value
        memo = self._memo
        if memo is None:
            memo = self._memo = {}
        try:
            best = memo[value]
        except KeyError:
            best = None
            for mask, table, _length in self._probes:
                best = table.get(value & mask)
                if best is not None:
                    break
            memo[value] = best
        if best is not None:
            return best
        if default is not _NO_DEFAULT:
            return default
        raise NoRouteError(f"no route to {IPv4Address(address)}")

    def entries(self):
        """All entries, in ``(network, length)`` order."""
        return sorted((entry for _mask, table, _length in self._probes
                       for entry in table.values()), key=_prefix_order)

    #: Construction-time wiring: whose state this table is part of.
    _SNAPSHOT_EXEMPT = ("_owner",)

    def snapshot_state(self):
        """Checkpoint: the mutation version plus the full entry list."""
        return (self.version, tuple(self.entries()))

    def restore_state(self, state):
        """Rebuild from a checkpoint; no-op when the table never changed."""
        version, entries = state
        self._memo = None
        if self.version == version:
            return
        self._probes = ()
        for entry in entries:
            self.insert(entry)
        self.version = version
