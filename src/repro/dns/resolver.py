"""Recursive (site) resolver and the end-host stub resolver.

The site resolver is the paper's ``DNS_S``: hosts send it recursive queries
(Step 1), it walks the hierarchy iteratively (Steps 2-5), and its replies to
hosts close the loop (Step 8).  It can simultaneously act as the
authoritative server for the site's own zone — that is the paper's
``DNS_D`` role (Step 6).

The resolver exposes ``query_listeners``: callbacks fired when a recursive
query arrives from a host.  The co-located PCE registers here, which is the
paper's "PCE_S obtains E_S by IPC with the DNS" (Step 1).
"""

from functools import partial

from repro.dns.cache import TtlCache
from repro.dns.message import (DNS_PORT, DnsMessage, FLAG_RD, Question, make_query,
                               make_reply)
from repro.dns.records import RCODE_NXDOMAIN, RCODE_SERVFAIL, TYPE_A
from repro.dns.server import PROCESSING_DELAY, authoritative_reply
from repro.sim.events import Event
from repro.sim.state import Journaled

MAX_REFERRALS = 16
#: Seconds an NXDOMAIN outcome stays in the negative cache.
NEGATIVE_TTL = 5.0
#: Times a stub re-sends an unanswered query to its site resolver.
LOOKUP_RETRIES = 1


class RecursiveResolver(Journaled):
    """Iterative resolver with referral and answer caches."""

    def __init__(self, sim, node, root_hints, authoritative_zone=None,
                 use_cache=True):
        self.sim = sim
        self.node = node
        self.root_hints = list(root_hints)
        self.zone = authoritative_zone
        self.use_cache = use_cache
        self.answer_cache = TtlCache(sim, name=f"{node.name}-dns-answers")
        self.negative_cache = TtlCache(sim, name=f"{node.name}-dns-negative")
        self.referral_cache = TtlCache(sim, name=f"{node.name}-dns-referrals")
        self.query_listeners = []
        self._in_flight = {}
        self._ident = 1
        node.bind_udp(DNS_PORT, self._on_datagram)
        node.register_service("dns-resolver", self)

    # ------------------------------------------------------------------ #
    # Inbound datagram handling
    # ------------------------------------------------------------------ #

    def _on_datagram(self, packet, _node):
        message = packet.payload
        if not isinstance(message, DnsMessage):
            return
        if not message.is_query or message.question is None:
            return
        wants_recursion = bool(message.flags & FLAG_RD)
        in_bailiwick = self.zone is not None and self.zone.covers(message.question.qname)
        if wants_recursion and not in_bailiwick:
            self._serve_recursive(message, packet)
        else:
            self._serve_authoritative(message, packet)

    def _serve_authoritative(self, query, packet):
        if self.zone is None:
            reply = make_reply(query, rcode=RCODE_SERVFAIL)
        else:
            reply = authoritative_reply(self.zone, query)
        self._reply_to(packet, reply)

    def _serve_recursive(self, query, packet):
        for listener in self.query_listeners:
            listener(client=packet.ip.src, qname=query.question.qname, time=self.sim.now)

        resolution = self.resolve(query.question.qname, query.question.qtype)
        resolution.callbacks.append(partial(self._answer_recursive, query, packet))

    def _answer_recursive(self, query, packet, resolution):
        outcome = resolution.value
        reply = make_reply(query, answers=outcome.answers,
                           rcode=outcome.rcode, recursion_available=True)
        self._send_reply(packet, reply)

    def _reply_to(self, packet, reply):
        self.sim.call_in(PROCESSING_DELAY, self._send_reply, packet, reply)

    def _send_reply(self, packet, reply):
        self.node.send_udp(src=packet.ip.dst, dst=packet.ip.src, sport=DNS_PORT,
                           dport=packet.udp.sport, payload=reply)

    #: Construction-time config; root hints and the zone are immutable data,
    #: the node and sim checkpoint themselves.
    _SNAPSHOT_EXEMPT = ("sim", "node", "root_hints", "zone", "use_cache")

    # ------------------------------------------------------------------ #
    # Iterative resolution
    # ------------------------------------------------------------------ #

    def _next_ident(self):
        # resolve() touched the journal before any walk draws an ident.
        self._ident = (self._ident + 1) % 65536 or 1  # repro: allow=SNAP03
        return self._ident

    def _cached_servers(self, qname):
        """Deepest cached referral covering *qname*; falls back to roots."""
        if self.use_cache:
            # Each suffix at a label boundary, longest first; not the root.
            cut = 0
            while cut < len(qname):
                servers = self.referral_cache.get(("ns", qname[cut:]))
                if servers:
                    return list(servers)
                cut = qname.index(".", cut) + 1
        return list(self.root_hints)

    def resolve(self, qname, qtype=TYPE_A):
        """Iteratively resolve; returns an event carrying the final DnsMessage.

        A live answer-cache entry is the whole resolution: the event comes
        back already succeeded (one engine event).  A query identical to a
        walk in flight is coalesced onto it: its event succeeds with a copy
        of the walk's outcome, one engine event after it.  Anything else
        starts a :class:`_Walk`.  NXDOMAIN outcomes are negatively cached
        for :data:`NEGATIVE_TTL`.  The message's ``answers``/``rcode``
        reflect the outcome; SERVFAIL is used for loops and timeouts.
        """
        # Ident, caches and the in-flight table all move below.
        if self._journal is not None:
            self._touch()
        key = (qname, qtype)
        if key in self._in_flight:
            # The leader leaves the table in its first callback, so a
            # leader still in it has not run its callbacks: ours will.
            follower = self.sim.event()
            self._in_flight[key].callbacks.append(
                lambda leader: follower.succeed(leader.value.copy()))
            return follower
        if self.use_cache:
            # The query's one answer-cache read (the counters see one).
            cached = self.answer_cache.get(key)
            if cached is not None:
                synthetic = DnsMessage(ident=0, flags=0, answers=list(cached))
                return self.sim.event().succeed(synthetic)
        walk = self._in_flight[key] = _Walk(self, qname, qtype)
        walk.callbacks.append(lambda _event: self._in_flight.pop(key, None))
        return walk


class _Walk(Event):
    """One iterative resolution in flight, referral by referral.

    Each step sends one query from a fresh socket and continues in the
    request's callback: a timeout or a non-DNS reply moves on to the next
    server, a referral to the servers it names (caching them), an answer
    ends the walk.  Succeeds with the final DnsMessage.
    """

    __slots__ = ("resolver", "qname", "qtype", "question", "servers",
                 "steps_left", "socket")

    def __init__(self, resolver, qname, qtype):
        Event.__init__(self, resolver.sim)
        self.resolver = resolver
        self.qname = qname
        self.qtype = qtype
        self.question = None
        self.servers = None
        self.steps_left = MAX_REFERRALS
        self.socket = None
        if resolver.use_cache:
            negative = resolver.negative_cache.get((qname, qtype))
            if negative is not None:
                self.succeed(DnsMessage(ident=0, flags=0).with_rcode(negative))
                return
        self.sim.call_in(PROCESSING_DELAY, self._begin)

    def _begin(self):
        self.question = Question(self.qname, self.qtype)  # every step asks it
        self.servers = self.resolver._cached_servers(self.qname)
        self._query()

    def _query(self):
        if not self.steps_left or not self.servers:
            self._fail(RCODE_SERVFAIL)
            return
        self.steps_left -= 1
        resolver = self.resolver
        query = DnsMessage(resolver._next_ident(), 0, self.question)
        self.socket = resolver.node.open_udp()
        request = self.socket.request(self.servers[0], DNS_PORT, payload=query)
        request.callbacks.append(self._answered)

    def _answered(self, request):
        self.socket.close()
        packet = request.value
        reply = packet.payload if packet is not None else None
        if not isinstance(reply, DnsMessage):  # timed out, or not DNS
            self.servers = self.servers[1:]
            self._query()
            return
        if reply.rcode == RCODE_NXDOMAIN:
            self._fail(RCODE_NXDOMAIN)
            return
        if reply.answers:
            self._answer(reply)
            return
        referral = reply.referral_servers()
        glue = [address for _name, address in referral if address is not None]
        if not glue:
            self._fail(RCODE_SERVFAIL)
            return
        resolver = self.resolver
        if resolver.use_cache and reply.authorities:
            child = reply.authorities[0].name
            ttl = min(r.ttl for r in reply.authorities)
            resolver.referral_cache.put(("ns", child), list(glue), ttl)
        self.servers = glue
        self._query()

    def _answer(self, reply):
        resolver = self.resolver
        if resolver.use_cache:
            ttl = min(r.ttl for r in reply.answers)
            resolver.answer_cache.put((self.qname, self.qtype),
                                      list(reply.answers), ttl)
        self.succeed(reply)

    def _fail(self, rcode):
        resolver = self.resolver
        if resolver.use_cache and rcode == RCODE_NXDOMAIN:
            resolver.negative_cache.put((self.qname, self.qtype), RCODE_NXDOMAIN,
                                        NEGATIVE_TTL)
        self.succeed(DnsMessage(ident=0, flags=0).with_rcode(rcode))


class StubResolver:
    """The end-host side: one recursive query to the site resolver."""

    def __init__(self, sim, host, resolver_address):
        self.sim = sim
        self.host = host
        self.resolver_address = resolver_address
        self.lookups = 0

    def lookup(self, qname, timeout=5.0):
        """Resolve *qname*; returns an event for (address_or_None, elapsed).

        The query leaves inside this call and the event is completed from
        a callback on the socket's request.
        """
        self.lookups += 1
        query = make_query(ident=self.lookups % 65536, qname=qname,
                           recursion_desired=True)
        lookup = _Lookup(self.sim, self.host.open_udp())
        request = lookup.socket.request(self.resolver_address, DNS_PORT,
                                        payload=query, timeout=timeout,
                                        retries=LOOKUP_RETRIES)
        request.callbacks.append(lookup._answered)
        return lookup


class _Lookup(Event):
    """A stub lookup in flight; succeeds with ``(address_or_None, elapsed)``."""

    __slots__ = ("socket", "started")

    def __init__(self, sim, socket):
        Event.__init__(self, sim)
        self.socket = socket
        self.started = sim.now

    def _answered(self, request):
        self.socket.close()
        address = None
        packet = request.value
        if packet is not None:  # else nobody answered
            reply = packet.payload
            if isinstance(reply, DnsMessage):
                addresses = reply.answer_addresses()
                if addresses:
                    address = addresses[0]
        self.succeed((address, self.sim.now - self.started))
