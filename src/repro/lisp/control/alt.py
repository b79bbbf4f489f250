"""LISP+ALT: a BGP-like overlay that routes Map-Requests hop by hop.

Each site's first border router (xtr0) doubles as its ALT router.  ALT
routers form a ring with chord shortcuts; every site's EID prefix is
announced into the overlay, and each ALT router holds a next-hop table
toward every prefix (hop-count shortest paths, like BGP over the GRE mesh
the ALT draft describes).

A Map-Request from an ITR enters the overlay at its own site's ALT router
and is forwarded *as real UDP packets* across the WAN until it reaches the
destination site, whose router answers with a Map-Reply sent natively
(outside the overlay) straight to the requesting ITR's RLOC — exactly ALT's
asymmetric request/reply pattern.  Resolution latency therefore emerges
from overlay stretch, which is what makes ALT the paper's slowest baseline.
"""

from collections import deque
from functools import partial

from repro.lisp.control.base import MappingSystem, _MapRequestLoop
from repro.lisp.headers import LISP_CONTROL_PORT, MapReply, MapRequest
from repro.net.addresses import IPv4Address
from repro.net.fib import Fib, FibEntry

#: Seconds an ALT router spends on a Map-Request or data envelope before
#: forwarding or answering it.
HOP_PROCESSING_DELAY = 0.0005
#: Seconds an ITR waits for a Map-Reply before it re-sends the request.
REQUEST_TIMEOUT = 1.0
#: Overlay hops after which a request or data envelope is dropped.
MAX_OVERLAY_HOPS = 64


class _AltDataEnvelope:
    """A data packet carried over the ALT overlay (CpDataPolicy)."""

    __slots__ = ("inner", "eid")

    def __init__(self, inner, eid):
        self.inner = inner
        self.eid = IPv4Address(eid)

    @property
    def size_bytes(self):
        return 8 + self.inner.size_bytes


class AltMappingSystem(MappingSystem):
    """The ALT overlay mapping system."""

    name = "alt"
    _state_attrs = ("_pending",)

    def __init__(self, sim):
        super().__init__(sim)
        self.sites = []
        self._pending = {}
        self._alt_nodes = {}      # site index -> alt node (xtr0's Node)
        self._alt_address = {}    # site index -> control address of alt node
        self._rib = {}            # node name -> Fib of prefix -> next-hop address
        self._site_of_node = {}   # node name -> site
        self._xtr_of_node = {}    # node name -> TunnelRouter
        self.overlay_edges = []

    # -- wiring ---------------------------------------------------------- #

    def register_site(self, site, mapping):
        super().register_site(site, mapping)
        self.sites.append(site)

    def attach_xtr(self, xtr):
        super().attach_xtr(xtr)
        self._xtr_of_node[xtr.node.name] = xtr
        xtr.node.bind_udp(LISP_CONTROL_PORT, self._on_control)

    def finalize(self):
        """Build the overlay ring + chords and compute per-prefix next hops."""
        order = sorted(self.sites, key=lambda site: site.index)
        n = len(order)
        if n == 0:
            return
        for site in order:
            self._alt_nodes[site.index] = site.xtrs[0]
            self._alt_address[site.index] = site.xtr_control_address(0)
            self._site_of_node[site.xtrs[0].name] = site
        stride = max(2, int(n ** 0.5))
        adjacency = {site.index: set() for site in order}
        for position, site in enumerate(order):
            successor = order[(position + 1) % n]
            if successor.index != site.index:
                adjacency[site.index].add(successor.index)
                adjacency[successor.index].add(site.index)
            if n > 3:
                chord = order[(position + stride) % n]
                if chord.index != site.index:
                    adjacency[site.index].add(chord.index)
                    adjacency[chord.index].add(site.index)
        self.overlay_edges = sorted(
            {tuple(sorted((a, b))) for a, neighbours in adjacency.items()
             for b in neighbours})

        # Hop-count shortest paths from every node toward every origin site.
        ribs = {site.index: self._rib.setdefault(
            self._alt_nodes[site.index].name, Fib()) for site in order}
        for origin in order:
            parents = self._bfs_parents(adjacency, origin.index)
            prefix = origin.eid_prefix
            for index, rib in ribs.items():
                next_index = parents.get(index)
                if next_index is not None:
                    rib.insert(FibEntry(prefix, self._alt_address[next_index]))

    @staticmethod
    def _bfs_parents(adjacency, origin):
        """BFS tree rooted at *origin*: {node: its parent}.

        Forwarding from a node toward the origin goes to its parent.
        """
        toward = {}
        visited = {origin}
        frontier = deque([origin])
        while frontier:
            current = frontier.popleft()
            for neighbour in sorted(adjacency[current]):
                if neighbour not in visited:
                    visited.add(neighbour)
                    toward[neighbour] = current
                    frontier.append(neighbour)
        return toward

    # -- resolution ------------------------------------------------------ #

    def resolve(self, xtr, eid):
        entry_address = self._alt_address.get(xtr.site.index)
        if entry_address is None:
            return super().resolve(xtr, eid)
        return _MapRequestLoop(self, partial(self._send_request, xtr, eid, entry_address),
                               REQUEST_TIMEOUT)

    def _send_request(self, xtr, eid, entry_address, nonce):
        request = MapRequest(nonce=nonce, eid=eid, itr_rloc=xtr.rloc)
        self.stats.count("map-request", request.size_bytes)
        xtr.node.send_udp(src=xtr.rloc, dst=entry_address,
                          sport=LISP_CONTROL_PORT, dport=LISP_CONTROL_PORT,
                          payload=request, meta={"alt_hops": 0})

    # -- control-plane packet handling ------------------------------------ #

    def _on_control(self, packet, node):
        payload = packet.payload
        if isinstance(payload, MapRequest):
            self._forward_or_answer(packet, payload, node)
        elif isinstance(payload, MapReply):
            waiter = self._pending.pop(payload.nonce, None)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(payload.mapping)
        elif isinstance(payload, _AltDataEnvelope):
            self._forward_or_deliver_data(packet, payload, node)

    def _forward_or_answer(self, packet, request, node):
        site = self._site_of_node.get(node.name)
        if site is not None and site.eid_prefix.contains(request.eid):
            mapping = self.registry.lookup(request.eid)
            if mapping is None:
                return
            reply = MapReply(nonce=request.nonce, mapping=mapping)
            self.stats.count("map-reply", reply.size_bytes)

            def answer():
                node.send_udp(src=self._alt_address[site.index], dst=request.itr_rloc,
                              sport=LISP_CONTROL_PORT, dport=LISP_CONTROL_PORT,
                              payload=reply)

            self.sim.call_in(HOP_PROCESSING_DELAY, answer)
            return
        self._forward_over_overlay(packet, request.eid, node, request,
                                   message_type="map-request-hop")

    def _forward_or_deliver_data(self, packet, envelope, node):
        site = self._site_of_node.get(node.name)
        if site is not None and site.eid_prefix.contains(envelope.eid):
            xtr = self._xtr_of_node.get(node.name)
            if xtr is not None:
                self.sim.call_in(HOP_PROCESSING_DELAY,
                                 xtr.deliver_into_site, envelope.inner)
            return
        self._forward_over_overlay(packet, envelope.eid, node, envelope,
                                   message_type="cp-data-hop")

    def _forward_over_overlay(self, packet, eid, node, payload, message_type):
        hops = packet.meta.get("alt_hops", 0)
        if hops >= MAX_OVERLAY_HOPS:
            return
        rib = self._rib.get(node.name)
        entry = rib.lookup(eid, default=None) if rib is not None else None
        if entry is None:
            return
        next_address = entry.interface
        self.stats.count(message_type, payload.size_bytes)

        def forward():
            node.send_udp(src=packet.ip.dst, dst=next_address,
                          sport=LISP_CONTROL_PORT, dport=LISP_CONTROL_PORT,
                          payload=payload, meta={"alt_hops": hops + 1})

        self.sim.call_in(HOP_PROCESSING_DELAY, forward)

    # -- CP data carriage -------------------------------------------------- #

    def carry_data(self, xtr, packet, eid):
        entry_address = self._alt_address.get(xtr.site.index)
        if entry_address is None:
            return False
        envelope = _AltDataEnvelope(packet, eid)
        self.stats.count("cp-data", envelope.size_bytes)
        xtr.node.send_udp(src=xtr.rloc, dst=entry_address, sport=LISP_CONTROL_PORT,
                          dport=LISP_CONTROL_PORT, payload=envelope,
                          meta={"alt_hops": 0})
        return True

    # -- reporting ---------------------------------------------------------- #

    def state_entries_per_router(self):
        return {name: len(rib) for name, rib in self._rib.items()}
