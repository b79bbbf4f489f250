"""RLOC reachability probing (draft-08 locator reachability).

An ITR cannot tell from its map-cache whether a locator is still usable:
the destination site's access link may have failed.  The prober sends
periodic echo probes to every remote locator present in the map-cache and
tracks replies.  After :data:`FAIL_THRESHOLD` consecutive losses a locator is
declared down — the ITR's :attr:`~repro.lisp.xtr.TunnelRouter.rloc_liveness`
predicate then steers traffic to a backup locator in the mapping.  Probing
continues while a locator is down, so recovery is detected automatically.

This implements the substrate for the paper's future-work claim that the
PCE control plane can perform "upstream/downstream TE through the dynamic
management of the mappings": experiment E9 measures the blackhole window
with and without it.
"""

from dataclasses import dataclass
from functools import partial
from itertools import count

from repro.net.addresses import IPv4Address
from repro.sim import EXPIRED

#: Dedicated UDP port for RLOC echo probes (4342 belongs to Map-Request).
PROBE_PORT = 4347

#: Consecutive unanswered probes after which a locator is declared down.
FAIL_THRESHOLD = 2

#: Liveness versions, unique in the process (0 is "no liveness").
_versions = count(1)


@dataclass
class RlocProbe:
    """An echo probe or its reply."""

    nonce: int
    is_reply: bool = False

    @property
    def size_bytes(self):
        return 16


class RlocProber:
    """Probes every remote locator cached by one tunnel router; it is the
    xTR's ``rloc_liveness`` predicate, its ``version`` new whenever ``down``
    changes."""

    def __init__(self, sim, xtr, period=0.5, timeout=0.3):
        if timeout >= period:
            # Overlapping rounds would make a full drain (sim.run() with no
            # until) self-sustaining: each tick's probe deadlines are
            # foreground work outliving the period, so the next tick always
            # finds work pending and fires, forever.
            raise ValueError(
                f"probe timeout ({timeout}) must be shorter than the probe "
                f"period ({period}): rounds must not overlap")
        self.sim = sim
        self.xtr = xtr
        self.timeout = timeout
        self.down = set()
        self.version = next(_versions)
        self._consecutive_misses = {}
        self._pending = {}
        self._nonce = 0
        self._task = sim.periodic(self._tick, period,
                                  name=f"prober-{xtr.node.name}")
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

    def start(self):
        """Arm the periodic probe tick (idempotent).

        The first tick fires one full period from now, not immediately: at
        deploy time the map-cache is empty, so a tick at t=0 would burn a
        probe round on nothing.  Targets are re-read from the map-cache at
        every tick, so mappings installed any time before a tick fires are
        probed by it.
        """
        self._task.start()

    def _tick(self):
        for address in self.targets():
            self._probe(address)

    def _probe(self, address):
        """Send one echo probe and judge *address* when it is answered or expires."""
        self._nonce += 1
        nonce = self._nonce
        waiter = self._pending[nonce] = self.sim.event()
        self.xtr.node.send_udp(src=self.xtr.rloc, dst=address, sport=PROBE_PORT,
                               dport=PROBE_PORT, payload=RlocProbe(nonce=nonce))
        waiter.expire_in(self.timeout).callbacks.append(
            partial(self._probed, address, nonce))

    def _probed(self, address, nonce, waiter):
        if waiter.value is not EXPIRED:
            self._mark_alive(address)
        else:
            self._pending.pop(nonce, None)
            self._mark_missed(address)

    def _mark_alive(self, address):
        address = IPv4Address(address)
        self._consecutive_misses[address] = 0
        if address in self.down:
            self.down.discard(address)
            self.version = next(_versions)
            self.sim.trace.record(self.sim.now, self.xtr.node.name, "probe.rloc-up",
                                  rloc=str(address))

    def _mark_missed(self, address):
        address = IPv4Address(address)
        misses = self._consecutive_misses.get(address, 0) + 1
        self._consecutive_misses[address] = misses
        if misses >= FAIL_THRESHOLD and address not in self.down:
            self.down.add(address)
            self.version = next(_versions)
            self.sim.trace.record(self.sim.now, self.xtr.node.name, "probe.rloc-down",
                                  rloc=str(address))

    def _on_probe(self, packet, node):
        message = packet.payload
        if not isinstance(message, RlocProbe):
            return
        if message.is_reply:
            waiter = self._pending.pop(message.nonce, None)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(packet.ip.src)
            return
        reply = RlocProbe(nonce=message.nonce, is_reply=True)
        node.send_udp(src=packet.ip.dst, dst=packet.ip.src, sport=PROBE_PORT,
                      dport=PROBE_PORT, payload=reply)

    # ------------------------------------------------------------------ #
    # World-reuse checkpointing
    # ------------------------------------------------------------------ #

    #: Construction-time wiring and config, immutable after __init__: the
    #: owning sim/xtr, probe timing knobs, and the periodic tick handle
    #: (its armed/next-fire state is engine state, captured by the
    #: simulator's own checkpoint).
    #: ``version`` keys memos only; restore_state takes a new one.
    _SNAPSHOT_EXEMPT = ("sim", "xtr", "timeout", "_task", "version")

    def snapshot_state(self):
        """Liveness verdicts, miss counters and the nonce.

        The periodic tick itself (armed / next-fire time) is engine state,
        captured by the simulator's own checkpoint.  In-flight probes hold
        live waiter events that cannot be replayed; the worldbuild layer
        settles the simulation first, which resolves every pending probe.
        """
        if self._pending:
            raise RuntimeError(
                f"cannot checkpoint prober {self.xtr.node.name} with "
                f"{len(self._pending)} in-flight probes")
        return (frozenset(self.down), dict(self._consecutive_misses),
                self._nonce)

    def restore_state(self, state):
        down, misses, self._nonce = state
        self.down = set(down)
        self.version = next(_versions)
        self._consecutive_misses = dict(misses)
        self._pending = {}
