"""RLOC reachability probing (draft-08 locator reachability).

An ITR cannot tell from its map-cache whether a locator is still usable:
the destination site's access link may have failed.  Once per probe round
(the rounds belong to :class:`~repro.core.control_plane.PceControlPlane`)
the prober sends an echo probe to every remote locator present in the
map-cache, and it tracks replies.  After :data:`FAIL_THRESHOLD` consecutive
losses a locator is declared down — the ITR's
:attr:`~repro.lisp.xtr.TunnelRouter.rloc_liveness` predicate then steers
traffic to a backup locator in the mapping.  Probing
continues while a locator is down, so recovery is detected automatically.

This implements the substrate for the paper's future-work claim that the
PCE control plane can perform "upstream/downstream TE through the dynamic
management of the mappings": experiment E9 measures the blackhole window
with and without it.
"""

from dataclasses import dataclass

from repro.net.addresses import IPv4Address
from repro.sim.state import Checkpointed

#: Dedicated UDP port for RLOC echo probes (4342 belongs to Map-Request).
PROBE_PORT = 4347

#: Consecutive unanswered probes after which a locator is declared down.
FAIL_THRESHOLD = 2


@dataclass
class RlocProbe:
    """An echo probe or its reply."""

    nonce: int
    is_reply: bool = False

    @property
    def size_bytes(self):
        return 16


class RlocProber(Checkpointed):
    """Probes every remote locator cached by one tunnel router; it is the
    xTR's ``rloc_liveness`` predicate, its ``version`` new whenever ``down``
    changes.

    *versions* is the iterator of liveness versions the prober draws
    from, shared by every prober of a world (0 is "no liveness").  A probe
    is judged missed *timeout* after it was sent; the owner of the probe
    rounds (:class:`~repro.core.control_plane.PceControlPlane`) keeps it
    below the probe period.
    """

    def __init__(self, sim, xtr, versions, timeout=0.3):
        self.sim = sim
        self.xtr = xtr
        self.timeout = timeout
        self._versions = versions
        self.down = set()
        self.version = next(versions)
        self._consecutive_misses = {}
        #: Unanswered probes: nonce -> the locator probed.
        self._pending = {}
        self._nonce = 0
        xtr.node.bind_udp(PROBE_PORT, self._on_probe)
        xtr.rloc_liveness = self

    def __call__(self, address):
        return IPv4Address(address) not in self.down

    def targets(self):
        """Distinct remote locators currently in the map-cache."""
        addresses = set()
        for _prefix, mapping in self.xtr.map_cache.entries():
            for entry in mapping.rlocs:
                addresses.add(entry.address)
        # Keep probing locators already marked down (to detect recovery).
        addresses.update(self.down)
        return sorted(addresses)

    def probe_round(self):
        """Probe every target once (one round of the control plane's)."""
        for address in self.targets():
            self._probe(address)

    def _probe(self, address):
        """Send one echo probe; its reply or its deadline judges *address*."""
        self._nonce += 1
        nonce = self._nonce
        self._pending[nonce] = address
        self.xtr.node.send_udp(src=self.xtr.rloc, dst=address, sport=PROBE_PORT,
                               dport=PROBE_PORT, payload=RlocProbe(nonce=nonce))
        self.sim.call_in(self.timeout, self._deadline, nonce)

    def _deadline(self, nonce):
        address = self._pending.pop(nonce, None)
        if address is not None:  # else answered: this fires into nothing
            self._mark_missed(address)

    def _mark_alive(self, address):
        address = IPv4Address(address)
        self._consecutive_misses[address] = 0
        if address in self.down:
            self.down.discard(address)
            self.version = next(self._versions)
            if self.sim.trace.enabled:
                self.sim.trace.record(self.sim.now, self.xtr.node.name,
                                      "probe.rloc-up", rloc=str(address))

    def _mark_missed(self, address):
        address = IPv4Address(address)
        misses = self._consecutive_misses.get(address, 0) + 1
        self._consecutive_misses[address] = misses
        if misses >= FAIL_THRESHOLD and address not in self.down:
            self.down.add(address)
            self.version = next(self._versions)
            if self.sim.trace.enabled:
                self.sim.trace.record(self.sim.now, self.xtr.node.name,
                                      "probe.rloc-down", rloc=str(address))

    def _on_probe(self, packet, node):
        message = packet.payload
        if not isinstance(message, RlocProbe):
            return
        if message.is_reply:
            address = self._pending.pop(message.nonce, None)
            if address is not None:
                self._mark_alive(address)
            return
        reply = RlocProbe(nonce=message.nonce, is_reply=True)
        node.send_udp(src=packet.ip.dst, dst=packet.ip.src, sport=PROBE_PORT,
                      dport=PROBE_PORT, payload=reply)

    # ------------------------------------------------------------------ #
    # World-reuse checkpointing
    # ------------------------------------------------------------------ #

    #: Construction-time wiring and config, immutable after __init__: the
    #: owning sim/xtr, the probe timeout, and the world's version counter,
    #: which never rolls back (a restored prober keeps its pristine
    #: version, and its next change must draw one no run has used).
    _SNAPSHOT_EXEMPT = ("sim", "xtr", "timeout", "_versions")
