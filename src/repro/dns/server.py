"""Authoritative DNS server service.

A *service* object: it binds UDP port 53 on an existing node rather than
subclassing it, so the same node could also host a PCE or other roles
(mirroring the paper's co-located elements).
"""

from repro.dns.message import DNS_PORT, DnsMessage, make_reply

#: Seconds a DNS server (authoritative or recursive) spends on a query
#: before its answer or its first upstream query leaves.
PROCESSING_DELAY = 0.0002


def authoritative_reply(zone, query):
    """The reply *zone* gives *query*: answer, referral or NXDOMAIN (a pure
    function of the zone; an authoritative server and a resolver serving
    its own zone both answer with it)."""
    result = zone.lookup(query.question.qname, query.question.qtype)
    return make_reply(query, answers=result.answers, authorities=result.authorities,
                      additionals=result.additionals,
                      authoritative=not result.is_referral, rcode=result.rcode)


class AuthoritativeServer:
    """Answers queries for one zone: answer, referral, or NXDOMAIN."""

    def __init__(self, sim, node, zone):
        self.sim = sim
        self.node = node
        self.zone = zone
        node.bind_udp(DNS_PORT, self._on_datagram)
        node.register_service("dns-auth", self)

    def _on_datagram(self, packet, _node):
        query = packet.payload
        if not isinstance(query, DnsMessage):
            return
        if not query.is_query or query.question is None:
            return
        self.sim.call_in(PROCESSING_DELAY, self._send_reply, packet,
                         authoritative_reply(self.zone, query))

    def _send_reply(self, packet, reply):
        self.node.send_udp(src=packet.ip.dst, dst=packet.ip.src, sport=DNS_PORT,
                           dport=packet.udp.sport, payload=reply)
