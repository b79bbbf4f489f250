"""Deployment and site-level glue for the PCE-based control plane.

:class:`PceControlPlane` wires, for every site in a topology:

- a :class:`~repro.core.irc.IrcEngine` (two selection counters),
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
"""

from repro.core.irc import IrcEngine
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
from repro.lisp.xtr import TunnelRouter
from repro.net.addresses import IPv4Prefix
from repro.net.fib import FibEntry
from repro.sim.state import state_copy


class PceControlPlane:
    """All per-deployment state of the PCE control plane."""

    def __init__(self, sim, topology, dns_system, miss_policy, mapping_ttl,
                 irc_policy, computation_delay, enable_probing,
                 probe_period, probe_timeout):
        self.sim = sim
        self.topology = topology
        self.mapping_ttl = mapping_ttl
        self.registry = MappingRegistry()
        self.miss_policy = miss_policy
        if probe_timeout is None:
            # Keep the historical 0.3s timeout whenever it is valid; only
            # scale down for faster probing (RlocProber requires
            # timeout < period so probe rounds never overlap).
            probe_timeout = 0.3 if probe_period > 0.3 else 0.6 * probe_period
        self.enable_probing = enable_probing
        self.pces = {}
        self.ircs = {}
        self.probers = {}
        self.xtrs_by_site = {}
        self.egress_assignments = {}   # site index -> {prefix: itr index}
        #: ``(time, site index, prefix)`` of each reverse-mapping multicast,
        #: and the instants its announces were installed at sibling ETRs.
        self.reverse_announces = []
        self.reverse_installs = {}

        for site in topology.sites:
            self.registry.register(site_mapping(site, ttl=mapping_ttl))

        for site in topology.sites:
            irc = IrcEngine(len(site.xtrs), policy=irc_policy)
            self.ircs[site.index] = irc
            resolver = dns_system.resolver_for(site)
            pce = Pce(sim, site, resolver, self.registry, irc,
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
                    from repro.lisp.probing import RlocProber

                    prober = RlocProber(sim, xtr, period=probe_period,
                                        timeout=probe_timeout)
                    prober.start()
                    self.probers[node.name] = prober
                routers.append(xtr)
            self.xtrs_by_site[site.index] = routers
            self.egress_assignments[site.index] = {}

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

    # ------------------------------------------------------------------ #
    # TE re-homing (uses repro.core.te)
    # ------------------------------------------------------------------ #

    def rebalance_site_egress(self, site, loads):
        """Re-home *site*'s hub routes under per-ITR *loads* (bytes);
        returns the moves.  The IRC egress count is left as it was."""
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

    #: Deploy-time wiring and config, immutable after __init__.  The xTRs in
    #: ``xtrs_by_site`` are independently checkpointed components; only the
    #: site->router table itself lives here, and it never changes.
    _SNAPSHOT_EXEMPT = ("sim", "topology", "mapping_ttl", "enable_probing",
                        "xtrs_by_site")

    def snapshot_state(self):
        return {
            "reverse": (list(self.reverse_announces),
                        state_copy(self.reverse_installs)),
            "egress": {index: dict(assignment)
                       for index, assignment in self.egress_assignments.items()},
            "registry": self.registry.snapshot_state(),
            "miss_policy": self.miss_policy.snapshot_state(),
            "pces": {index: pce.snapshot_state()
                     for index, pce in self.pces.items()},
            "ircs": {index: irc.snapshot_state()
                     for index, irc in self.ircs.items()},
            "probers": {name: prober.snapshot_state()
                        for name, prober in self.probers.items()},
        }

    def restore_state(self, state):
        announces, installs = state["reverse"]
        self.reverse_announces = list(announces)
        self.reverse_installs = state_copy(installs)
        self.egress_assignments = {index: dict(assignment)
                                   for index, assignment in state["egress"].items()}
        self.registry.restore_state(state["registry"])
        self.miss_policy.restore_state(state["miss_policy"])
        for index, pce_state in state["pces"].items():
            self.pces[index].restore_state(pce_state)
        for index, irc_state in state["ircs"].items():
            self.ircs[index].restore_state(irc_state)
        for name, prober_state in state["probers"].items():
            self.probers[name].restore_state(prober_state)


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

