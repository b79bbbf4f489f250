"""Common machinery for mapping systems."""

from collections import defaultdict

from repro.lisp.headers import next_nonce
from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.net.fib import Fib, FibEntry
from repro.sim import Event
from repro.sim.state import Checkpointed

#: Times an ITR re-sends an unanswered Map-Request (ALT and CONS).
MAP_REQUEST_RETRIES = 1


class ControlStats(Checkpointed):
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


class MappingRegistry(Checkpointed):
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


class MappingSystem(Checkpointed):
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

    #: Deploy-time wiring: the sim checkpoints itself, and ``xtrs`` and the
    #: registry only fill during topology construction (``register_site``),
    #: never during a run.
    _SNAPSHOT_EXEMPT = ("sim", "xtrs", "registry")


class _MapRequestLoop(Event):
    """An ITR's Map-Request, re-sent until answered (ALT and CONS).

    Each attempt registers a fresh nonce in *system*'s ``_pending`` table
    under this loop and hands it to ``send(nonce)``.  The system's
    Map-Reply handler pops the nonce and calls :meth:`answer`, which
    records the resolution latency and succeeds with the mapping.  An
    attempt's deadline, *timeout* later, finds its nonce gone once
    answered and does nothing; otherwise it takes the nonce out and sends
    again, or succeeds with None once ``MAP_REQUEST_RETRIES + 1`` attempts
    went unanswered.
    """

    __slots__ = ("system", "send", "timeout", "attempts", "started")

    def __init__(self, system, send, timeout):
        Event.__init__(self, system.sim)
        self.system = system
        self.send = send
        self.timeout = timeout
        self.attempts = 1 + MAP_REQUEST_RETRIES
        self.started = system.sim.now
        self._attempt()

    def _attempt(self):
        self.attempts -= 1
        nonce = next_nonce()
        self.system._pending[nonce] = self
        self.send(nonce)
        self.sim.call_in(self.timeout, self._deadline, nonce)

    def answer(self, mapping):
        """The Map-Reply to the current attempt arrived with *mapping*."""
        self.system.stats.resolution_latencies.append(self.sim.now - self.started)
        self.succeed(mapping)

    def _deadline(self, nonce):
        if self.system._pending.pop(nonce, None) is None:
            return  # answered: this deadline fires into nothing
        if self.attempts:
            self._attempt()
        else:
            self.succeed(None)
