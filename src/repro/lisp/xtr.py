"""The tunnel router (xTR): ITR and ETR roles on a border router.

ITR role — a forward tap on the border node intercepts packets whose
destination is a *remote* EID, looks the EID up in the map-cache, and either
encapsulates (hit) or invokes the miss policy and triggers resolution
through the attached mapping system (miss).

ETR role — datagrams on UDP 4341 are decapsulated and the inner packet is
forwarded into the site.  Optional *gleaning* learns the reverse mapping
(inner source EID -> outer source RLOC) from arriving packets, which is how
plain LISP avoids a two-way resolution (paper §1, weakness W3).
``decap_listeners`` fire on every decapsulation with a ``first_packet``
flag — the PCE control plane's Step "first data packet reaches the ETR"
hooks in there.
"""

from functools import partial

from repro.lisp.headers import decapsulate, encapsulate
from repro.lisp.map_cache import MapCache
from repro.lisp.policies import mark_fate
from repro.net.addresses import IPv4Prefix
from repro.sim.state import Journaled

from repro.lisp import EID_SPACE, LISP_DATA_PORT

#: TTL for gleaned reverse mappings (short; refreshed by traffic).
GLEANING_TTL = 60.0

#: ``EID_SPACE`` as the int pair the per-packet tests compare.
_EID_NETWORK, _EID_MASK = EID_SPACE._network, EID_SPACE._mask


class TunnelRouter(Journaled):
    """xTR service bound to a border-router node."""

    def __init__(self, sim, node, site, miss_policy, mapping_system,
                 gleaning):
        self.sim = sim
        self.node = node
        self.site = site
        self.miss_policy = miss_policy
        self.mapping_system = mapping_system
        self.gleaning = gleaning
        self.rloc = node.services["rloc"]
        #: Optional predicate (address -> bool) from an RLOC prober; dead
        #: locators are skipped at encapsulation time (failover).
        self.rloc_liveness = None
        self.map_cache = MapCache(sim, name=f"{node.name}-map-cache",
                                  owner=self)
        self.decap_listeners = []
        self.encapsulated = 0
        self.decapsulated = 0
        self.no_rloc_drops = 0
        self.resolutions_started = 0
        self.resolutions_failed = 0
        #: ``(time, EID)`` of every resolution that installed a mapping.
        self.mappings_resolved = []
        self._pending = {}
        self._seen_inner_sources = set()
        node.add_forward_tap(self._itr_tap)
        node.bind_udp(LISP_DATA_PORT, self._on_lisp_data)
        node.register_service("xtr-service", self)
        if mapping_system is not None:
            mapping_system.attach_xtr(self)

    def __str__(self):
        return f"xTR({self.node.name} rloc={self.rloc})"

    # ------------------------------------------------------------------ #
    # ITR role
    # ------------------------------------------------------------------ #

    def _itr_tap(self, packet, _node):
        destination = packet.ip.dst
        value = destination._value
        if value & _EID_MASK != _EID_NETWORK:
            return False
        own = self.site.eid_prefix
        if value & own._mask == own._network:
            return False  # inbound to our own EIDs: normal intra-site forwarding
        self.handle_outbound(packet, destination)
        return True

    def handle_outbound(self, packet, eid):
        """Encapsulate toward *eid*, or apply the miss policy."""
        mapping = self.map_cache.lookup(eid)
        if mapping is not None:
            self.encapsulate_and_send(packet, mapping)
            return
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, self.node.name, "itr.cache-miss",
                                  eid=str(eid), uid=packet.uid)
        self.miss_policy.on_miss(self, packet, eid)
        self._maybe_resolve(eid)

    def encapsulate_and_send(self, packet, mapping):
        if self._journal is not None:
            self._touch()
        rloc_entry = mapping.best_rloc(liveness=self.rloc_liveness)
        if rloc_entry is None:
            self.no_rloc_drops += 1
            mark_fate(packet, "dropped-no-rloc")
            return
        source = mapping.source_rloc if mapping.source_rloc is not None else self.rloc
        outer = encapsulate(packet, source, rloc_entry.address)
        self.encapsulated += 1
        mark_fate(packet, "encapsulated")
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, self.node.name, "itr.encap",
                                  eid=str(packet.ip.dst), rloc=str(rloc_entry.address),
                                  src_rloc=str(source), uid=packet.uid)
        self.node.send(outer)

    def _resolution_key(self, eid):
        """Dedup key for an in-flight resolution: the covering site prefix.

        Asking the mapping system for the authoritative prefix keeps one
        resolution in flight per *site*, whatever its prefix length — a
        hardcoded /24 would duplicate Map-Requests for coarser sites and
        wrongly suppress them for finer ones.  Unregistered EIDs fall back
        to per-EID (/32) granularity so a doomed resolution for one address
        never masks a resolvable neighbour.
        """
        prefix = self.mapping_system.covering_prefix(eid)
        if prefix is not None:
            return prefix
        return IPv4Prefix(int(eid), 32)

    def _maybe_resolve(self, eid):
        if self.mapping_system is None:
            return
        key = self._resolution_key(eid)
        if key in self._pending:
            return
        if self._journal is not None:
            self._touch()
        self._pending[key] = True
        self.resolutions_started += 1
        self.mapping_system.resolve(self, eid).callbacks.append(
            partial(self._resolved, key, eid))

    def _resolved(self, key, eid, resolution):
        """Install what the mapping system answered (``None``: nothing).

        Either way the site prefix is free for the next miss to resolve.
        """
        # _maybe_resolve touched the journal before this resolution started.
        self._pending.pop(key, None)  # repro: allow=SNAP03
        mapping = resolution.value
        if mapping is None:
            self.resolutions_failed += 1
            return
        self.map_cache.install(mapping)
        self.mappings_resolved.append((self.sim.now, eid))
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, self.node.name,
                                  "itr.mapping-resolved", eid=str(eid),
                                  prefix=str(mapping.eid_prefix))
        self.miss_policy.on_resolved(self, eid, mapping)

    def install_mapping(self, mapping, origin="pushed", ttl=None):
        """Install a mapping delivered by push (PCE Step 7b, NERD database)."""
        self.map_cache.install(mapping, ttl=ttl)
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, self.node.name,
                                  "itr.mapping-installed",
                                  prefix=str(mapping.eid_prefix), origin=origin)
        self.miss_policy.on_resolved(self, None, mapping)

    # ------------------------------------------------------------------ #
    # ETR role
    # ------------------------------------------------------------------ #

    def _on_lisp_data(self, packet, _node):
        try:
            inner, outer_ip, _lisp = decapsulate(packet)
        except ValueError:
            return
        if self._journal is not None:
            self._touch()
        self.decapsulated += 1
        inner_ip = inner.ip
        destination = inner_ip.dst
        value = destination._value
        own = self.site.eid_prefix
        if value & own._mask != own._network:
            if self.sim.trace.enabled:
                self.sim.trace.record(self.sim.now, self.node.name,
                                      "etr.misdelivered", dst=str(destination),
                                      uid=packet.uid)
            return
        inner_source = inner_ip.src
        source = inner_source._value
        first_packet = False
        if source & _EID_MASK == _EID_NETWORK:
            flow_key = (source, value)
            if flow_key not in self._seen_inner_sources:
                self._seen_inner_sources.add(flow_key)
                first_packet = True
            if self.gleaning and self.map_cache.peek(inner_source) is None:
                gleaned = _gleaned_mapping(inner_source, outer_ip.src)
                self.map_cache.install(gleaned, ttl=GLEANING_TTL)
                if self.sim.trace.enabled:
                    self.sim.trace.record(self.sim.now, self.node.name, "etr.gleaned",
                                          eid=str(inner_source), rloc=str(outer_ip.src))
        mark_fate(inner, "decapsulated")
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, self.node.name, "etr.decap",
                                  dst=str(destination), uid=packet.uid)
        for listener in self.decap_listeners:
            listener(self, inner, outer_ip, first_packet)
        self.node.send(inner)

    def deliver_into_site(self, inner):
        """Deliver a raw inner packet into the site (CP-carried data path)."""
        mark_fate(inner, "delivered-via-cp")
        self.node.send(inner)

    # ------------------------------------------------------------------ #
    # World-reuse checkpointing
    # ------------------------------------------------------------------ #

    #: Deploy-time wiring, immutable after __init__; the miss policy,
    #: mapping system and RLOC prober (``rloc_liveness``) are checkpointed
    #: on their own.
    _SNAPSHOT_EXEMPT = ("sim", "node", "site", "miss_policy",
                        "mapping_system", "gleaning", "rloc", "rloc_liveness")


def _gleaned_mapping(inner_source, outer_source):
    """A /32 reverse mapping learned from one data packet."""
    from repro.lisp.mappings import MappingRecord, RlocEntry

    return MappingRecord(IPv4Prefix(inner_source._value, 32),
                         (RlocEntry(outer_source),), ttl=GLEANING_TTL)
