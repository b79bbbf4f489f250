"""Deployment and site-level glue for the PCE-based control plane.

:class:`PceControlPlane` wires, for every site in a topology:

- a :class:`~repro.core.pce.Pce` on the PCE node,
- one :class:`~repro.lisp.xtr.TunnelRouter` per border router, with **no
  reactive mapping system** (mappings arrive only by push) and gleaning
  off (reverse mappings are distributed explicitly),
- UDP handlers for the mapping-push and reverse-multicast ports,
- an ETR decapsulation hook implementing the closing-paragraph sequence:
  first data packet -> reverse mapping -> multicast to sibling ETRs and
  the local PCE database.

It also owns the egress routing table (hub per-destination routes) for
the TE re-homing of :mod:`repro.core.te`: every push reaches every ITR
of the site (Step 7b's push-to-all), so a re-homed flow always finds its
mapping in place.

With probing on, each ITR has an :class:`~repro.lisp.probing.RlocProber`
and the control plane runs their probe rounds: one engine event per round
on a fixed grid (the deploy instant plus ``probe_period``, accumulated by
repeated addition), at which every prober probes its targets in
registration order.  A round re-arms itself first; a round that finds
nothing to probe anywhere queues no successor, and the next mapping
installed (a push, a reverse announce, an ETR's own reverse mapping) arms
the first grid instant after it.  A settled world therefore has nothing
queued.
"""

from itertools import count

from repro.core.messages import (
    PORT_MAPPING_PUSH,
    PORT_REVERSE,
    MappingPush,
    ReverseMappingAnnounce,
)
from repro.core.pce import Pce
from repro.core.te import FLOW_BYTES_ESTIMATE, plan_rebalance
from repro.lisp import EID_SPACE
from repro.lisp.control.base import MappingRegistry
from repro.lisp.mappings import MappingRecord, RlocEntry, site_mapping
from repro.lisp.probing import RlocProber
from repro.lisp.xtr import TunnelRouter
from repro.net.addresses import IPv4Prefix
from repro.net.fib import FibEntry
from repro.sim.state import Checkpointed


class PceControlPlane(Checkpointed):
    """All per-deployment state of the PCE control plane."""

    def __init__(self, sim, topology, dns_system, miss_policy, mapping_ttl,
                 irc_policy, computation_delay, enable_probing,
                 probe_period, probe_timeout):
        self.sim = sim
        self.topology = topology
        self.mapping_ttl = mapping_ttl
        registry = MappingRegistry()
        self.miss_policy = miss_policy
        if probe_timeout is None:
            # Keep the historical 0.3s timeout whenever it is valid; only
            # scale down for faster probing.
            probe_timeout = 0.3 if probe_period > 0.3 else 0.6 * probe_period
        if probe_timeout >= probe_period:
            # A round at T judges its probes at T + timeout, which then
            # falls before the next round (T + period) and never on its
            # instant: no deadline ties with a round.
            raise ValueError(
                f"probe timeout ({probe_timeout}) must be shorter than the "
                f"probe period ({probe_period}): rounds must not overlap")
        self.enable_probing = enable_probing
        self.probe_period = probe_period
        #: The grid instant of the latest probe round queued or run (the
        #: deploy instant before the first), and whether one is queued.
        self._round_at = sim.now
        self._round_armed = False
        #: The liveness versions this world's probers draw from: never
        #: rolled back (see "Snapshot completeness" in docs/contracts.md).
        versions = count(1)
        self.pces = {}
        self.probers = {}
        self.xtrs_by_site = {}
        self.egress_assignments = {}   # site index -> {prefix: itr index}
        #: ``(time, site index, prefix)`` of each reverse-mapping multicast,
        #: and the instants its announces were installed at sibling ETRs.
        self.reverse_announces = []
        self.reverse_installs = {}

        for site in topology.sites:
            registry.register(site_mapping(site, ttl=mapping_ttl))

        for site in topology.sites:
            resolver = dns_system.resolver_for(site)
            pce = Pce(sim, site, resolver, registry, irc_policy,
                      control_plane=self, computation_delay=computation_delay)
            self.pces[site.index] = pce
            site.pce_node.bind_udp(PORT_REVERSE, PceReverseHandler(pce))
            routers = []
            for node in site.xtrs:
                xtr = TunnelRouter(sim, node, site, miss_policy=self.miss_policy,
                                   mapping_system=None, gleaning=False)
                xtr.decap_listeners.append(EtrReverseHook(self, site, xtr))
                node.bind_udp(PORT_MAPPING_PUSH, self._on_mapping_push)
                node.bind_udp(PORT_REVERSE, self._on_reverse_announce)
                if enable_probing:
                    self.probers[node.name] = RlocProber(
                        sim, xtr, versions, timeout=probe_timeout)
                routers.append(xtr)
            self.xtrs_by_site[site.index] = routers
            self.egress_assignments[site.index] = {}

    # ------------------------------------------------------------------ #
    # RLOC probe rounds
    # ------------------------------------------------------------------ #

    def _arm_probe_round(self):
        """Queue a probe round at the first grid instant after now, unless
        one is queued or nothing probes."""
        if self._round_armed or not self.probers:
            return
        when = self._round_at
        while when <= self.sim.now:
            when += self.probe_period
        self._round_at = when
        self._round_armed = True
        self.sim.call_at(when, self._probe_round)

    def _probe_round(self):
        """Re-arm one period on, then let every prober probe its targets;
        with no target anywhere, stop (the next install re-arms)."""
        probers = self.probers.values()
        if not any(prober.targets() for prober in probers):
            self._round_armed = False
            return
        self._round_at += self.probe_period
        self.sim.call_at(self._round_at, self._probe_round)
        for prober in probers:
            prober.probe_round()

    # ------------------------------------------------------------------ #
    # Push distribution
    # ------------------------------------------------------------------ #

    def set_egress_route(self, site, prefix, egress_index):
        """Point the hub's route for *prefix* at the chosen egress ITR."""
        hub_iface = site.hub_links[egress_index]["hub_iface"]
        site.hub.fib.insert(FibEntry(IPv4Prefix(prefix), hub_iface))
        self.egress_assignments[site.index][IPv4Prefix(prefix)] = egress_index

    def _on_mapping_push(self, packet, node):
        message = packet.payload
        if not isinstance(message, MappingPush):
            return
        xtr = node.services.get("xtr-service")
        if xtr is None:
            return
        xtr.install_mapping(message.mapping, origin="pce-push", ttl=self.mapping_ttl)
        self._arm_probe_round()

    # ------------------------------------------------------------------ #
    # ETR reverse-mapping multicast
    # ------------------------------------------------------------------ #

    def _on_reverse_announce(self, packet, node):
        message = packet.payload
        if not isinstance(message, ReverseMappingAnnounce):
            return
        xtr = node.services.get("xtr-service")
        if xtr is not None:
            xtr.install_mapping(message.mapping, origin="reverse-multicast",
                                ttl=self.mapping_ttl)
            self.reverse_installs.setdefault(
                (xtr.site.index, message.mapping.eid_prefix), []).append(
                    self.sim.now)
            self._arm_probe_round()

    # ------------------------------------------------------------------ #
    # TE re-homing (uses repro.core.te)
    # ------------------------------------------------------------------ #

    def rebalance_site_egress(self, site, loads):
        """Re-home *site*'s hub routes under per-ITR *loads* (bytes);
        returns the moves.  The PCE's egress count is left as it was."""
        assignment = self.egress_assignments[site.index]
        flows_by_itr = {}
        for prefix, index in assignment.items():
            flows_by_itr.setdefault(index, []).append((prefix, FLOW_BYTES_ESTIMATE))
        moves = plan_rebalance(loads, flows_by_itr)
        for move in moves:
            self.set_egress_route(site, move.destination_prefix, move.to_itr)
            if self.sim.trace.enabled:
                self.sim.trace.record(self.sim.now, site.hub.name, "te.rehome",
                                      prefix=str(move.destination_prefix),
                                      frm=move.from_itr, to=move.to_itr)
        return moves

    # ------------------------------------------------------------------ #
    # World-reuse checkpointing
    # ------------------------------------------------------------------ #

    #: Deploy-time wiring and config, immutable after __init__.  The xTRs
    #: in ``xtrs_by_site`` are journaled components, and the miss policy,
    #: PCEs and probers singletons of the scenario's own inventory; only
    #: the tables naming them live here, and they never change.
    _SNAPSHOT_EXEMPT = ("sim", "topology", "mapping_ttl", "enable_probing",
                        "probe_period", "miss_policy", "pces", "probers",
                        "xtrs_by_site")


class EtrReverseHook:
    """ETR decapsulation hook: first data packet -> reverse-mapping multicast.

    xTRs hold these in ``decap_listeners``.
    """

    __slots__ = ("control_plane", "site", "xtr")

    def __init__(self, control_plane, site, xtr):
        self.control_plane = control_plane
        self.site = site
        self.xtr = xtr

    def __call__(self, _xtr, inner, outer_ip, first_packet):
        if not first_packet:
            return
        source = inner.ip.src
        if not EID_SPACE.contains(source):
            return
        control_plane, site, xtr = self.control_plane, self.site, self.xtr
        reverse = MappingRecord(IPv4Prefix(int(source), 32),
                                (RlocEntry(outer_ip.src),),
                                ttl=control_plane.mapping_ttl)
        # (ii) install locally so this xTR can carry the reverse flow...
        xtr.install_mapping(reverse, origin="reverse-local",
                            ttl=control_plane.mapping_ttl)
        control_plane._arm_probe_round()
        # (iii) ...then multicast to sibling ETRs and the PCE database.
        announce = ReverseMappingAnnounce(mapping=reverse)
        sim = control_plane.sim
        control_plane.reverse_announces.append(
            (sim.now, site.index, reverse.eid_prefix))
        source = site.xtr_control_address(site.xtrs.index(xtr.node))
        for b, sibling in enumerate(site.xtrs):
            if sibling is xtr.node:
                continue
            xtr.node.send_udp(src=source, dst=site.xtr_control_address(b),
                              sport=PORT_REVERSE, dport=PORT_REVERSE,
                              payload=announce)
        xtr.node.send_udp(src=source, dst=site.pce_address,
                          sport=PORT_REVERSE, dport=PORT_REVERSE,
                          payload=announce)
        if sim.trace.enabled:
            sim.trace.record(sim.now, xtr.node.name, "etr.reverse-multicast",
                             prefix=str(reverse.eid_prefix),
                             rloc=str(outer_ip.src))


class PceReverseHandler:
    """UDP handler feeding reverse-mapping announces into a PCE."""

    __slots__ = ("pce",)

    def __init__(self, pce):
        self.pce = pce

    def __call__(self, packet, _node):
        message = packet.payload
        if isinstance(message, ReverseMappingAnnounce):
            self.pce.learn_reverse_mapping(message.mapping)

