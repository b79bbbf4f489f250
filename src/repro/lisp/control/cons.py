"""CONS: a hierarchical content-distribution-like mapping overlay.

Content distribution Overlay Network Service for LISP (draft-meyer-lisp-cons)
organises the mapping space as a tree: CARs (Content Access Routers) sit at
the edge — here, each site's first border router — and CDRs (Content
Distribution Routers) form the interior.  A Map-Request climbs the tree
until an ancestor covers the target EID, descends to the authoritative CAR,
and — unlike ALT — the *reply retraces the overlay path* back to the
requester (CONS keeps both directions inside the secured overlay).

CDRs are real hosts attached to provider routers, so every tree hop crosses
the simulated WAN.
"""

from dataclasses import dataclass, field
from functools import partial

from repro.lisp.control.base import MappingSystem, _MapRequestLoop
from repro.lisp.headers import LISP_CONTROL_PORT, MapReply, MapRequest
from repro.net.addresses import IPv4Address
from repro.net.fib import Fib, FibEntry


#: CDRs are numbered by integer offset from here: every tree level starts
#: on a fresh /24, ten addresses in.
_CDR_BLOCK = int(IPv4Address("203.0.114.0"))

#: Seconds a CAR or CDR spends on an envelope before sending it on.
HOP_PROCESSING_DELAY = 0.0005
#: Seconds an ITR waits for a Map-Reply before it re-sends the request.
REQUEST_TIMEOUT = 2.0
#: Children per CDR: each tree level groups this many nodes of the one below.
BRANCHING = 4


@dataclass
class _ConsEnvelope:
    """A Map-Request or Map-Reply travelling the CONS tree."""

    kind: str                  # "request" | "reply"
    request: MapRequest
    path: list = field(default_factory=list)  # addresses ascended so far
    mapping: object = None

    @property
    def size_bytes(self):
        base = self.request.size_bytes + 4 + 8 * len(self.path)
        if self.mapping is not None:
            base += self.mapping.size_bytes
        return base


class _TreeNode:
    """One CAR or CDR of the tree.

    A node names its parent and children by address: parent and
    children pointing at each other would be a reference cycle outside
    every component a world is torn down through.
    """

    __slots__ = ("name", "address", "node", "parent_address", "children",
                 "site")

    def __init__(self, name, address, node, site=None):
        self.name = name
        self.address = address
        self.node = node
        self.parent_address = None
        self.children = []
        self.site = site


class ConsMappingSystem(MappingSystem):
    """The CONS tree mapping system."""

    name = "cons"
    _state_attrs = ("_pending",)

    def __init__(self, sim, topology):
        super().__init__(sim)
        self.topology = topology
        self.sites = []
        self._pending = {}
        self._tree_by_address = {}
        self._cars = Fib()  # EID prefix -> its CAR's address
        self._car_of_site = {}
        self._cdr_count = 0

    def register_site(self, site, mapping):
        super().register_site(site, mapping)
        self.sites.append(site)

    def attach_xtr(self, xtr):
        super().attach_xtr(xtr)
        xtr.node.bind_udp(LISP_CONTROL_PORT, self._on_control)

    # -- tree construction -------------------------------------------------- #

    def finalize(self):
        order = sorted(self.sites, key=lambda site: site.index)
        if not order:
            return
        level = []
        for site in order:
            car = _TreeNode(name=f"car-{site.name}", address=site.xtr_control_address(0),
                            node=site.xtrs[0], site=site)
            self._car_of_site[site.index] = car
            self._tree_by_address[car.address] = car
            self._cars.insert(FibEntry(site.eid_prefix, car.address))
            level.append(car)
        depth = 0
        block = _CDR_BLOCK
        num_providers = len(self.topology.providers)
        while len(level) > 1:
            depth += 1
            next_level = []
            for start in range(0, len(level), BRANCHING):
                group = level[start:start + BRANCHING]
                address = IPv4Address(block + 10 + len(next_level))
                host = self.topology.attach_infra_host(
                    self._cdr_count % num_providers, f"cdr-d{depth}-{len(next_level)}",
                    address)
                self._cdr_count += 1
                host.bind_udp(LISP_CONTROL_PORT, self._on_control)
                cdr = _TreeNode(name=host.name, address=address, node=host)
                for child in group:
                    child.parent_address = address
                    cdr.children.append(child.address)
                self._tree_by_address[address] = cdr
                next_level.append(cdr)
            # The next level starts on the /24 after this one's last CDR:
            # 203.0.{113+depth}.{10+i} while a level has at most 246 CDRs
            # (984 sites at BRANCHING 4), and a level wider
            # than that simply runs on into the following /24s.
            block += -(-(10 + len(next_level)) // 256) * 256
            level = next_level
        self.topology.install_global_routes()

    def _descent(self, tree_node, eid):
        """(covers *eid*?, covering child's address)."""
        # Climbs from the CAR of *eid*'s site toward the root: O(depth).
        entry = self._cars.lookup(eid, default=None)
        below = None
        address = entry.interface if entry is not None else None
        while address is not None:
            if address == tree_node.address:
                return True, below
            below = address
            address = self._tree_by_address[address].parent_address
        return False, None

    # -- resolution ----------------------------------------------------------- #

    def resolve(self, xtr, eid):
        car = self._car_of_site.get(xtr.site.index)
        if car is None:
            return super().resolve(xtr, eid)
        return _MapRequestLoop(self, partial(self._send_request, xtr, eid, car.address),
                               REQUEST_TIMEOUT)

    def _send_request(self, xtr, eid, car_address, nonce):
        request = MapRequest(nonce=nonce, eid=eid, itr_rloc=xtr.rloc)
        envelope = _ConsEnvelope(kind="request", request=request, path=[xtr.rloc])
        self.stats.count("map-request", envelope.size_bytes)
        xtr.node.send_udp(src=xtr.rloc, dst=car_address,
                          sport=LISP_CONTROL_PORT, dport=LISP_CONTROL_PORT,
                          payload=envelope)

    # -- overlay message handling ----------------------------------------------- #

    def _on_control(self, packet, node):
        payload = packet.payload
        if isinstance(payload, _ConsEnvelope):
            if payload.kind == "request":
                self._handle_request(packet, payload, node)
            else:
                self._handle_reply(packet, payload, node)
        elif isinstance(payload, MapReply):
            waiter = self._pending.pop(payload.nonce, None)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(payload.mapping)

    def _handle_request(self, packet, envelope, node):
        me = self._tree_by_address.get(packet.ip.dst)
        if me is None:
            return
        eid = envelope.request.eid
        if me.site is not None and me.site.eid_prefix.contains(eid):
            # Authoritative CAR: answer back along the recorded path.
            mapping = self.registry.lookup(eid)
            if mapping is None:
                return
            reply = _ConsEnvelope(kind="reply", request=envelope.request,
                                  path=list(envelope.path), mapping=mapping)
            self._send_back(node, me.address, reply)
            return
        covers, child = self._descent(me, eid)
        target = child if covers else me.parent_address
        if target is None:
            return
        forward = _ConsEnvelope(kind="request", request=envelope.request,
                                path=[*envelope.path, me.address])
        self.stats.count("map-request-hop", forward.size_bytes)
        self.sim.call_in(HOP_PROCESSING_DELAY, node.send_udp,
                         me.address, target, LISP_CONTROL_PORT,
                         LISP_CONTROL_PORT, forward)

    def _handle_reply(self, packet, envelope, node):
        me = self._tree_by_address.get(packet.ip.dst)
        if me is None:
            return
        self._send_back(node, me.address, envelope)

    def _send_back(self, node, own_address, envelope):
        """Send the reply envelope one step back along its recorded path."""
        if not envelope.path:
            return
        next_address = envelope.path[-1]
        remaining = _ConsEnvelope(kind="reply", request=envelope.request,
                                  path=envelope.path[:-1], mapping=envelope.mapping)
        if not remaining.path:
            # Final hop: deliver a plain MapReply to the waiting ITR.
            reply = MapReply(nonce=envelope.request.nonce, mapping=envelope.mapping)
            self.stats.count("map-reply", reply.size_bytes)
            self.sim.call_in(HOP_PROCESSING_DELAY, node.send_udp,
                             own_address, next_address, LISP_CONTROL_PORT,
                             LISP_CONTROL_PORT, reply)
            return
        self.stats.count("map-reply-hop", remaining.size_bytes)
        self.sim.call_in(HOP_PROCESSING_DELAY, node.send_udp,
                         own_address, next_address, LISP_CONTROL_PORT,
                         LISP_CONTROL_PORT, remaining)

    # -- reporting ----------------------------------------------------------- #

    def state_entries_per_router(self):
        entries = {}
        for tree_node in self._tree_by_address.values():
            up = tree_node.parent_address is not None
            if tree_node.site is not None:
                entries[tree_node.node.name] = 1 + up
            else:
                entries[tree_node.node.name] = len(tree_node.children) + up
        return entries
