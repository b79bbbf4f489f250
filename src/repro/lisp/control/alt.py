"""LISP+ALT: a BGP-like overlay that routes Map-Requests hop by hop.

Each site's first border router (xtr0) doubles as its ALT router.  ALT
routers form a ring with chord shortcuts; every site's EID prefix is
announced into the overlay, and each ALT router has a next hop toward
every prefix (hop-count shortest paths, like BGP over the GRE mesh the ALT
draft describes).  The system does not materialise those routes per
router: it keeps the overlay adjacency and one table from EID prefix to
origin site, and computes the hop-count tree toward an origin the first
time a message is forwarded toward it.  A world of n sites holds n prefix
entries instead of n² routes; the per-router route counts E5 reports come
from the overlay's connected components.

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
    #: The overlay, fixed by :meth:`finalize`, and the next-hop trees
    #: derived from it: no run changes what they say.
    _SNAPSHOT_EXEMPT = ("sites", "_alt_nodes", "_alt_address", "_adjacency",
                        "_origins", "_site_of_node", "_xtr_of_node",
                        "_toward")

    def __init__(self, sim):
        super().__init__(sim)
        self.sites = []
        self._pending = {}
        self._alt_nodes = {}      # site index -> alt node (xtr0's Node)
        self._alt_address = {}    # site index -> control address of alt node
        self._adjacency = {}      # site index -> sorted neighbour indices
        self._origins = Fib()     # EID prefix -> origin site index
        self._site_of_node = {}   # node name -> site
        self._xtr_of_node = {}    # node name -> TunnelRouter
        #: origin site index -> {site index: next-hop control address}, the
        #: hop-count tree toward that origin's prefix.  A derived cache,
        #: filled on the first forward toward each origin; exempt from the
        #: checkpoint (the overlay does not change after :meth:`finalize`).
        self._toward = {}

    # -- wiring ---------------------------------------------------------- #

    def register_site(self, site, mapping):
        super().register_site(site, mapping)
        self.sites.append(site)

    def attach_xtr(self, xtr):
        super().attach_xtr(xtr)
        self._xtr_of_node[xtr.node.name] = xtr
        xtr.node.bind_udp(LISP_CONTROL_PORT, self._on_control)

    def finalize(self):
        """Build the overlay ring + chords and the prefix -> origin table."""
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
        self._adjacency = {index: tuple(sorted(neighbours))
                           for index, neighbours in adjacency.items()}
        for site in order:
            self._origins.insert(FibEntry(site.eid_prefix, site.index))

    def _next_hop(self, index, eid):
        """Control address the ALT router of site *index* forwards a
        message for *eid* to (None: no overlay route)."""
        entry = self._origins.lookup(eid, default=None)
        if entry is None:
            return None
        origin = entry.interface
        toward = self._toward.get(origin)
        if toward is None:
            address = self._alt_address
            toward = self._toward[origin] = {
                node: address[parent]
                for node, parent in self._bfs_parents(origin).items()}
        return toward.get(index)

    def _bfs_parents(self, origin):
        """BFS tree rooted at *origin*: {node: its parent}.

        Forwarding from a node toward the origin goes to its parent.
        """
        adjacency = self._adjacency
        toward = {}
        visited = {origin}
        frontier = deque([origin])
        while frontier:
            current = frontier.popleft()
            for neighbour in adjacency[current]:
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
            loop = self._pending.pop(payload.nonce, None)
            if loop is not None:
                loop.answer(payload.mapping)
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
        self._forward_over_overlay(packet, request.eid, node, site, request,
                                   message_type="map-request-hop")

    def _forward_or_deliver_data(self, packet, envelope, node):
        site = self._site_of_node.get(node.name)
        if site is not None and site.eid_prefix.contains(envelope.eid):
            xtr = self._xtr_of_node.get(node.name)
            if xtr is not None:
                self.sim.call_in(HOP_PROCESSING_DELAY,
                                 xtr.deliver_into_site, envelope.inner)
            return
        self._forward_over_overlay(packet, envelope.eid, node, site, envelope,
                                   message_type="cp-data-hop")

    def _forward_over_overlay(self, packet, eid, node, site, payload,
                              message_type):
        hops = packet.meta.get("alt_hops", 0)
        if hops >= MAX_OVERLAY_HOPS:
            return
        if site is None:  # not an ALT router
            return
        next_address = self._next_hop(site.index, eid)
        if next_address is None:
            return
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
        """Each ALT router's route count, by router name: the origins it
        reaches (every other member of its overlay component)."""
        adjacency = self._adjacency
        component_size = {}
        for start in adjacency:
            if start in component_size:
                continue
            members = [start, *self._bfs_parents(start)]
            for index in members:
                component_size[index] = len(members)
        return {self._alt_nodes[index].name: component_size[index] - 1
                for index in adjacency}
