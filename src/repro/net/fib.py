"""Forwarding Information Base: a binary radix trie with longest-prefix match."""

from dataclasses import dataclass

from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.net.errors import NoRouteError


@dataclass
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


#: A trie node is the three-slot list ``[zero child, one child, entry]``: a
#: child is reached by indexing with the address bit.  Worlds build ~10^5
#: of these, and a list literal is half the cost (and two thirds the size)
#: of an object holding a child list.
_ENTRY = 2


class Fib:
    """Longest-prefix-match table.

    >>> fib = Fib()
    >>> fib.insert(FibEntry(IPv4Prefix('10.0.0.0/8'), 'if0'))
    >>> fib.insert(FibEntry(IPv4Prefix('10.1.0.0/16'), 'if1'))
    >>> fib.lookup('10.1.2.3').interface
    'if1'
    >>> fib.lookup('10.2.0.1').interface
    'if0'
    """

    def __init__(self):
        self._root = [None, None, None]
        self._size = 0
        #: Bumped on every mutation; lets checkpoint restores skip tables
        #: that were never touched (provider FIBs during a workload run).
        self.version = 0
        #: ``address value -> entry`` (None for a miss) of every destination
        #: looked up since the last mutation.  Created on first lookup and
        #: dropped by every insert/remove/clear/restore, so tables nobody
        #: forwards through carry no dict; it holds at most one key per
        #: distinct destination this table was asked about.
        self._memo = None

    def __len__(self):
        return self._size

    def insert(self, entry):
        """Insert *entry*, replacing any existing entry for the same prefix."""
        prefix = entry.prefix
        value = prefix._network
        node = self._root
        for shift in range(31, 31 - prefix._length, -1):
            parent = node
            bit = (value >> shift) & 1
            node = parent[bit]
            if node is None:
                node = parent[bit] = [None, None, None]
        if node[_ENTRY] is None:
            self._size += 1
        node[_ENTRY] = entry
        self.version += 1
        self._memo = None

    def add(self, prefix, interface, next_hop=None, metric=0.0):
        """Shorthand for :meth:`insert`."""
        self.insert(FibEntry(IPv4Prefix(prefix), interface, next_hop, metric))

    def remove(self, prefix):
        """Remove the entry for exactly *prefix*; returns it (or None).

        Branches left empty by the removal are pruned on the way back up, so
        repeated install/expire churn (map-cache TTL aging) keeps the trie at
        O(live entries) nodes instead of accumulating dead chains forever.
        """
        prefix = IPv4Prefix(prefix)
        value = prefix._network
        node = self._root
        path = []
        for shift in range(31, 31 - prefix._length, -1):
            bit = (value >> shift) & 1
            child = node[bit]
            if child is None:
                return None
            path.append((node, bit))
            node = child
        entry, node[_ENTRY] = node[_ENTRY], None
        if entry is not None:
            self._size -= 1
            self.version += 1
            self._memo = None
            for parent, bit in reversed(path):
                child = parent[bit]
                if child[0] is not None or child[1] is not None \
                        or child[_ENTRY] is not None:
                    break
                parent[bit] = None
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
            best = memo[value] = self._longest_match(value)
        if best is not None:
            return best
        if default is not _NO_DEFAULT:
            return default
        raise NoRouteError(f"no route to {IPv4Address(address)}")

    def _longest_match(self, value):
        """Trie walk: the most-specific entry covering *value*, or None."""
        node = self._root
        best = node[_ENTRY]
        for shift in range(31, -1, -1):
            node = node[(value >> shift) & 1]
            if node is None:
                break
            if node[_ENTRY] is not None:
                best = node[_ENTRY]
        return best

    def lookup_exact(self, prefix):
        """Entry stored for exactly *prefix*, or None."""
        prefix = IPv4Prefix(prefix)
        value = prefix._network
        node = self._root
        for shift in range(31, 31 - prefix._length, -1):
            node = node[(value >> shift) & 1]
            if node is None:
                return None
        return node[_ENTRY]

    def entries(self):
        """All entries, in prefix order."""
        collected = []
        stack = [self._root]
        while stack:
            zero, one, entry = stack.pop()
            if entry is not None:
                collected.append(entry)
            if zero is not None:
                stack.append(zero)
            if one is not None:
                stack.append(one)
        collected.sort(key=lambda entry: (entry.prefix.network.value, entry.prefix.length))
        return collected

    def node_count(self):
        """Number of allocated trie nodes (memory diagnostic; root included)."""
        count = 0
        stack = [self._root]
        while stack:
            zero, one, _entry = stack.pop()
            count += 1
            if zero is not None:
                stack.append(zero)
            if one is not None:
                stack.append(one)
        return count

    def clear(self):
        self._root = [None, None, None]
        self._size = 0
        self.version += 1
        self._memo = None

    def snapshot_state(self):
        """Checkpoint: the mutation version plus the full entry list."""
        return (self.version, tuple(self.entries()))

    def restore_state(self, state):
        """Rebuild from a checkpoint; no-op when the table never changed."""
        version, entries = state
        self._memo = None
        if self.version == version:
            return
        self._root = [None, None, None]
        self._size = 0
        for entry in entries:
            self.insert(entry)
        self.version = version
