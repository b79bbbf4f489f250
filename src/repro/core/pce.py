"""The per-site Path Computation Element.

One :class:`Pce` instance runs on each site's PCE node (which physically
sits between the site's DNS server and the rest of the world, see
:mod:`repro.net.topology`).  The same object plays both of the paper's
roles — PCE_S when its site sources a flow, PCE_D when its site is the
destination — because every site runs the same element.

Step mapping (Fig. 1):

=======  =====================================================================
Step     Where implemented
=======  =====================================================================
1        :meth:`Pce.on_local_query` (registered as resolver IPC listener)
2-5      :meth:`Pce._observe_dns` (transparent forward-tap observation)
6        :meth:`Pce._intercept_authoritative_reply` (PCE_D role)
7a       :meth:`Pce._handle_port_p` re-emitting the original DNS reply
7b       :meth:`Pce.push_mapping_to_itrs`
8        observed by the tap as the resolver answers the host (trace only)
ETR rev  :meth:`Pce.learn_reverse_mapping` via the control plane's ETR hook
=======  =====================================================================

Intelligent Route Control
-------------------------

The paper leans on IRC twice: PCE_S "computes the local RLOC to be used for
the reverse mapping based on TE constraints ... the algorithms used are
inherently the same used today by IRC techniques" (Step 1), and PCE_D's
"mapping selection is made by an online IRC engine running in background,
so the mapping is always known aforehand" (Step 6).

A PCE counts its site's locator selections per direction
(:meth:`Pce.select_ingress`, :meth:`Pce.select_egress`).  Policies:

- ``balance``  — round robin (selection ``n`` takes ``n % locators``),
  i.e. classic IRC load spreading;
- ``primary``  — always locator 0 (the static behaviour of a non-PCE
  site; a control in experiments).

Step 1 (:meth:`Pce.on_local_query`), Step 6 (:meth:`Pce._narrowed`) and
the Step-7 fallback (:meth:`Pce._match_step1_decision`) all choose the
locator inbound traffic uses, so they draw, in call order, from the one
inbound counter.  A choice is O(1) and adds no latency at interception
time: the paper's line-rate claim, which E6 checks.
"""

from repro.core.messages import (
    ENVELOPE_HEADER_BYTES,
    PORT_MAPPING_PUSH,
    PORT_PCE,
    EncapsulatedDnsReply,
    MappingPush,
)
from repro.dns.message import DNS_PORT, DnsMessage
from repro.lisp import EID_SPACE
from repro.sim.state import Checkpointed

#: Seconds after a push in which no refresh follows it (it is in flight).
PUSH_GUARD = 0.05

#: The IRC selection policies a :class:`Pce` takes (``ScenarioConfig``
#: refuses any other).
POLICIES = ("balance", "primary")


class PceStats(Checkpointed):
    """Per-PCE counters and the push timeline."""

    def __init__(self):
        self.replies_encapsulated = 0
        self.push_messages = 0
        self.push_bytes = 0
        #: What the Step-6 envelopes added to the replies they carried.
        self.envelope_bytes = 0
        #: The instants of the Step-7b pushes, ascending, by prefix pushed.
        self.push_times = {}


class Pce(Checkpointed):
    """A site's PCE: DNS-path interception plus mapping distribution."""

    def __init__(self, sim, site, resolver, registry, irc_policy,
                 control_plane, computation_delay):
        self.sim = sim
        self.site = site
        self.registry = registry
        #: The locators the IRC round robin cycles through: ``primary``
        #: keeps to locator 0.
        self.span = len(site.xtrs) if irc_policy == "balance" else 1
        #: IRC selections made so far, by direction.
        self.ingress_picks = 0
        self.egress_picks = 0
        self.control_plane = control_plane
        self.computation_delay = computation_delay
        self.node = site.pce_node
        self.address = site.pce_address
        self.stats = PceStats()
        #: Step-1 ingress decisions awaiting the matching port-P message.
        self.pending_ingress = {}
        #: Mappings learned from port-P messages (the PCE database).
        self.mapping_db = {}
        self.node.add_forward_tap(self._tap)
        resolver.query_listeners.append(self.on_local_query)
        self.node.register_service("pce", self)

    def __str__(self):
        return f"PCE({self.site.name})"

    def select_ingress(self):
        """IRC: locator index for *inbound* traffic (Steps 1 and 6)."""
        index = self.ingress_picks % self.span
        self.ingress_picks += 1
        return index

    def select_egress(self):
        """IRC: locator index for *outbound* traffic (local TE, Step 7b)."""
        index = self.egress_picks % self.span
        self.egress_picks += 1
        return index

    # ------------------------------------------------------------------ #
    # Step 1: IPC with the local DNS server
    # ------------------------------------------------------------------ #

    def on_local_query(self, client, qname, time):
        """A local host asked the resolver for *qname*: precompute ingress."""
        ingress_index = self.select_ingress()
        self.pending_ingress[qname] = ingress_index
        if self.sim.trace.enabled:
            self.sim.trace.record(
                time, self.node.name, "pce.step1-ipc", qname=qname,
                client=str(client),
                ingress_rloc=str(self.site.rloc_of(ingress_index)))

    # ------------------------------------------------------------------ #
    # The forward tap: everything crossing the DNS path
    # ------------------------------------------------------------------ #

    def _tap(self, packet, _node):
        udp = packet.udp
        if udp is None:
            return False
        if udp.dport == PORT_PCE and isinstance(packet.payload, EncapsulatedDnsReply):
            self._handle_port_p(packet)
            return True
        if udp.dport == DNS_PORT or udp.sport == DNS_PORT:
            return self._observe_dns(packet)
        return False

    def _observe_dns(self, packet):
        message = packet.payload
        if not isinstance(message, DnsMessage):
            return False
        trace = self.sim.trace
        if message.is_query:
            if trace.enabled:
                trace.record(self.sim.now, self.node.name, "pce.observe-query",
                             qname=message.qname, dst=str(packet.ip.dst))
            return False
        if self._is_local_authoritative_answer(packet, message):
            return self._intercept_authoritative_reply(packet, message)
        if self._is_reply_to_local_host(packet, message):
            if trace.enabled:
                trace.record(self.sim.now, self.node.name, "pce.step8-dns-reply",
                             qname=message.qname, client=str(packet.ip.dst))
            self._maybe_refresh_mapping(message)
            return False
        if trace.enabled:
            trace.record(self.sim.now, self.node.name, "pce.observe-reply",
                         qname=message.qname, src=str(packet.ip.src))
        return False

    def _is_local_authoritative_answer(self, packet, message):
        """Step 6 trigger: our DNS answering a remote resolver with a local EID."""
        if packet.ip.src != self.site.dns_address:
            return False
        if self.site.eid_prefix.contains(packet.ip.dst):
            return False  # answer to a local host, not a remote resolver
        return any(self.site.eid_prefix.contains(address)
                   for address in message.answer_addresses())

    def _is_reply_to_local_host(self, packet, message):
        return (packet.ip.src == self.site.dns_address
                and self.site.eid_prefix.contains(packet.ip.dst))

    # ------------------------------------------------------------------ #
    # Step 6: PCE_D encapsulates the authoritative reply
    # ------------------------------------------------------------------ #

    def _intercept_authoritative_reply(self, packet, message):
        registered = self.registry.lookup_prefix(self.site.eid_prefix)
        if registered is None:
            return False  # cannot select a locator: let the reply through untouched
        mapping = self._narrowed(registered)
        envelope = EncapsulatedDnsReply(
            dns_reply=message,
            mapping=mapping,
            original_src=packet.ip.src,
            original_sport=packet.udp.sport,
            original_dst=packet.ip.dst,
            original_dport=packet.udp.dport,
        )
        self.stats.replies_encapsulated += 1
        # What the envelope adds on the wire: the narrowed record (one
        # locator without probing) and the envelope's own header.
        self.stats.envelope_bytes += mapping.size_bytes + ENVELOPE_HEADER_BYTES
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, self.node.name, "pce.step6-encap",
                                  qname=message.qname, dst=str(packet.ip.dst),
                                  rloc=str(mapping.rlocs[0].address))

        def emit():
            self.node.send_udp(src=self.address, dst=envelope.original_dst,
                               sport=PORT_PCE, dport=PORT_PCE, payload=envelope)

        if self.computation_delay:
            self.sim.call_in(self.computation_delay, emit)
        else:
            emit()  # mapping known aforehand: line rate
        return True

    def _narrowed(self, base):
        """Our site's mapping *base* narrowed to the IRC-chosen inbound
        locator.

        With RLOC probing on, the site's other locators ride along as
        demoted backups, so a probing ITR can fail over to them; without
        probing nothing would ever steer traffic onto a backup.
        """
        chosen = self.site.rloc_of(self.select_ingress())
        if self.control_plane.enable_probing:
            return base.with_preferred_rloc(chosen)
        return base.with_chosen_rloc(chosen)

    # ------------------------------------------------------------------ #
    # Step 7: PCE_S handles the port-P message
    # ------------------------------------------------------------------ #

    def _handle_port_p(self, packet):
        envelope = packet.payload
        # 7a: re-emit the original DNS reply toward our resolver, unchanged.
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, self.node.name, "pce.step7a-forward",
                                  dst=str(envelope.original_dst))
        self.node.send_udp(src=envelope.original_src, dst=envelope.original_dst,
                           sport=envelope.original_sport, dport=envelope.original_dport,
                           payload=envelope.dns_reply)
        # 7b: complete the tuple and push it to all ITRs.
        mapping = envelope.mapping
        self.mapping_db[mapping.eid_prefix] = mapping
        ingress_index = self._match_step1_decision(envelope.dns_reply.qname)
        annotated = mapping.with_source_rloc(self.site.rloc_of(ingress_index))
        self.push_mapping_to_itrs(annotated)

    def _match_step1_decision(self, qname):
        """Pair a reply for *qname* with the Step-1 IPC record."""
        if qname is not None and qname in self.pending_ingress:
            return self.pending_ingress.pop(qname)
        # No pending record (e.g. a refresh): choose an ingress now.
        return self.select_ingress()

    def push_mapping_to_itrs(self, mapping, refresh=False):
        """Step 7b: install the mapping tuple on the site's ITRs.

        Also points the hub's per-destination route at the IRC-chosen
        egress ITR — the "local TE actions" the push-to-all design enables.
        """
        push = MappingPush(mapping=mapping)
        targets = range(len(self.site.xtrs))     # push to all (Step 7b)
        egress_index = self.select_egress()
        for b in targets:
            self.stats.push_messages += 1
            self.stats.push_bytes += push.size_bytes
            self.node.send_udp(src=self.address,
                               dst=self.site.xtr_control_address(b),
                               sport=PORT_MAPPING_PUSH, dport=PORT_MAPPING_PUSH,
                               payload=push)
        self.stats.push_times.setdefault(mapping.eid_prefix, []).append(
            self.sim.now)
        self.control_plane.set_egress_route(self.site, mapping.eid_prefix, egress_index)
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, self.node.name, "pce.step7b-push",
                                  prefix=str(mapping.eid_prefix),
                                  src_rloc=str(mapping.source_rloc),
                                  dst_rloc=str(mapping.rlocs[0].address),
                                  targets=len(targets), egress=egress_index,
                                  refresh=refresh)

    def _maybe_refresh_mapping(self, message):
        """Re-push a known mapping when the resolver answers from cache.

        Without this, a DNS-cache hit would leave the ITRs without a fresh
        mapping (the port-P message only travels on real resolutions).  The
        PCE database makes the refresh purely site-local.
        """
        for address in message.answer_addresses():
            if not EID_SPACE.contains(address) or self.site.eid_prefix.contains(address):
                continue
            prefix = self._db_prefix_for(address)
            if prefix is None:
                continue
            pushed = self.stats.push_times.get(prefix)
            if pushed and self.sim.now - pushed[-1] < PUSH_GUARD:
                continue  # a push is already in flight
            if all(router.map_cache.peek(address) is not None for router
                   in self.control_plane.xtrs_by_site[self.site.index]):
                continue  # every ITR holds a live mapping
            ingress_index = self._match_step1_decision(message.qname)
            annotated = self.mapping_db[prefix].with_source_rloc(
                self.site.rloc_of(ingress_index))
            self.push_mapping_to_itrs(annotated, refresh=True)

    def _db_prefix_for(self, address):
        for prefix in self.mapping_db:
            if prefix.contains(address):
                return prefix
        return None

    # ------------------------------------------------------------------ #
    # Reverse mappings (two-way resolution completion)
    # ------------------------------------------------------------------ #

    def learn_reverse_mapping(self, mapping):
        """ETR multicast reached the PCE database (closing paragraph, (iii))."""
        self.mapping_db[mapping.eid_prefix] = mapping
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, self.node.name,
                                  "pce.reverse-learned",
                                  prefix=str(mapping.eid_prefix))

    # ------------------------------------------------------------------ #
    # World-reuse checkpointing
    # ------------------------------------------------------------------ #

    #: Wiring and config fixed at deploy time: the registry every site's
    #: mapping is registered in before any run, the IRC span, and the
    #: control plane, which is checkpointed on its own.
    _SNAPSHOT_EXEMPT = ("sim", "site", "registry", "span", "control_plane",
                        "computation_delay", "node", "address")
