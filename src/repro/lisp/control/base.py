"""Common machinery for mapping systems."""

from collections import defaultdict

from repro.lisp.headers import next_nonce
from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.net.fib import Fib, FibEntry
from repro.sim import EXPIRED, Event
from repro.sim.state import state_copy

#: Times an ITR re-sends an unanswered Map-Request (ALT and CONS).
MAP_REQUEST_RETRIES = 1


class ControlStats:
    """Message/byte/state accounting shared by all mapping systems."""

    def __init__(self):
        self.messages = 0
        self.bytes = 0
        self.by_type = defaultdict(int)
        #: Seconds each answered resolution took; the xTRs count the
        #: resolutions started and failed.
        self.resolution_latencies = []

    def count(self, message_type, size_bytes):
        self.messages += 1
        self.bytes += size_bytes
        self.by_type[message_type] += 1

    def snapshot_state(self):
        return (self.messages, self.bytes, state_copy(self.by_type),
                list(self.resolution_latencies))

    def restore_state(self, state):
        self.messages, self.bytes, by_type, latencies = state
        self.by_type = state_copy(by_type)
        self.resolution_latencies = list(latencies)


class MappingRegistry:
    """The authoritative EID-to-RLOC database, keyed by EID prefix.

    Longest-prefix lookup is served by a :class:`~repro.net.fib.Fib`, so a
    per-cache-miss query costs one dict probe per distinct prefix length
    even with hundreds of registered sites (the sweep engine's large-scale
    presets).
    """

    def __init__(self):
        self._by_prefix = {}
        self._fib = Fib()

    def register(self, mapping):
        self._by_prefix[mapping.eid_prefix] = mapping
        self._fib.insert(FibEntry(mapping.eid_prefix, mapping))
        return mapping

    def lookup(self, eid):
        """Most specific registered mapping covering *eid* (or None)."""
        entry = self._fib.lookup(IPv4Address(eid), default=None)
        return entry.interface if entry is not None else None

    def covering_prefix(self, eid):
        """The registered EID prefix covering *eid* (None if unregistered)."""
        mapping = self.lookup(eid)
        return mapping.eid_prefix if mapping is not None else None

    def lookup_prefix(self, prefix):
        return self._by_prefix.get(IPv4Prefix(prefix))

    def all_mappings(self):
        return list(self._by_prefix.values())

    def __len__(self):
        return len(self._by_prefix)

    def snapshot_state(self):
        return (dict(self._by_prefix), self._fib.snapshot_state())

    def restore_state(self, state):
        by_prefix, fib_state = state
        self._by_prefix = dict(by_prefix)
        self._fib.restore_state(fib_state)


class MappingSystem:
    """Interface all mapping systems implement."""

    name = "base"

    def __init__(self, sim):
        self.sim = sim
        self.stats = ControlStats()
        self.registry = MappingRegistry()
        self.xtrs = []

    def register_site(self, site, mapping):
        """Publish *site*'s authoritative mapping."""
        self.registry.register(mapping)

    def attach_xtr(self, xtr):
        """Called by each TunnelRouter binding itself to this system."""
        self.xtrs.append(xtr)

    def covering_prefix(self, eid):
        """The authoritative EID prefix covering *eid* (None if unknown).

        ITRs use this to key in-flight-resolution dedup at true site
        granularity rather than a hardcoded /24 guess.
        """
        return self.registry.covering_prefix(eid)

    def resolve(self, xtr, eid):
        """An event that succeeds with the mapping for *eid*, or None.

        The calling xTR appends its callback right away, so the event must
        not have been processed yet: a fresh one, succeeded or pending.
        This base has no request path — NERD's case: the database lacks
        the EID — so it answers None at once.  Systems that ask over the
        network override it.
        """
        return self.sim.event().succeed(None)

    def carry_data(self, xtr, packet, eid):
        """Ship a data packet over the control plane (CpDataPolicy).

        Returns True if the system accepted the packet.  Default: refuse.
        """
        return False

    def finalize(self):
        """Hook run after all sites are registered (overlay builds, pushes)."""

    # ------------------------------------------------------------------ #
    # World-reuse checkpointing
    # ------------------------------------------------------------------ #

    #: Extra mutable attributes subclasses want captured (shallow-copied
    #: containers; see repro.sim.state.state_copy).
    _state_attrs = ()

    #: Deploy-time wiring: the sim checkpoints itself, and ``xtrs`` only
    #: accumulates during topology construction, never during a run.
    _SNAPSHOT_EXEMPT = ("sim", "xtrs")

    def snapshot_state(self):
        return {
            "stats": self.stats.snapshot_state(),
            "registry": self.registry.snapshot_state(),
            "extra": {name: state_copy(getattr(self, name))
                      for name in self._state_attrs},
        }

    def restore_state(self, state):
        self.stats.restore_state(state["stats"])
        self.registry.restore_state(state["registry"])
        for name, value in state["extra"].items():
            setattr(self, name, state_copy(value))


class _MapRequestLoop(Event):
    """An ITR's Map-Request, re-sent until answered (ALT and CONS).

    Each attempt registers a fresh nonce in *system*'s ``_pending`` table,
    hands it to ``send(nonce)`` and waits *timeout* for the system's reply
    handler to pop the nonce and succeed its waiter.  Succeeds with the
    mapping, or with None once ``MAP_REQUEST_RETRIES + 1`` deadlines passed
    unanswered; either outcome is recorded in the system's stats with its
    latency.
    """

    __slots__ = ("system", "send", "timeout", "attempts", "started", "nonce")

    def __init__(self, system, send, timeout):
        Event.__init__(self, system.sim)
        self.system = system
        self.send = send
        self.timeout = timeout
        self.attempts = 1 + MAP_REQUEST_RETRIES
        self.started = system.sim.now
        self.nonce = None
        self._attempt()

    def _attempt(self):
        self.attempts -= 1
        self.nonce = nonce = next_nonce()
        waiter = self.system._pending[nonce] = Event(self.sim)
        self.send(nonce)
        waiter.expire_in(self.timeout).callbacks.append(self._outcome)

    def _outcome(self, waiter):
        system = self.system
        if waiter.value is not EXPIRED:
            system.stats.resolution_latencies.append(self.sim.now - self.started)
            self.succeed(waiter.value)
            return
        system._pending.pop(self.nonce, None)
        if self.attempts:
            self._attempt()
            return
        self.succeed(None)
