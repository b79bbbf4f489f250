"""Packet model: header stacks, encapsulation, sizing.

Packets carry a list of headers (outermost first) plus a payload, which may
be raw ``bytes``, an application-level message object (e.g. a DNS message),
or another :class:`Packet` — the latter is how IP-in-IP / LISP encapsulation
is modelled.  Sizes are tracked in bytes so links can compute serialisation
delay and queues can account occupancy.

Immutability contract: a packet's header *list* and its payload are fixed at
construction — encapsulation wraps a packet in a new one, decapsulation
hands back the inner one, and only header *fields* (TTL) change in flight.
That is what lets :attr:`Packet.size_bytes` be computed once per packet and
reused on every hop; see "Packet immutability & forwarding fast path" in
``docs/contracts.md``.
"""

from dataclasses import dataclass, replace
from itertools import count

from repro.net.addresses import IPv4Address

PROTO_ICMP = 1
PROTO_IPIP = 4
PROTO_TCP = 6
PROTO_UDP = 17

IPV4_HEADER_BYTES = 20
UDP_HEADER_BYTES = 8
TCP_HEADER_BYTES = 20

_packet_ids = count(1)


@dataclass(slots=True)
class IPv4Header:
    """The fields of an IPv4 header the simulator cares about."""

    src: IPv4Address
    dst: IPv4Address
    proto: int
    ttl: int = 64
    tos: int = 0

    size_bytes = IPV4_HEADER_BYTES

    def __post_init__(self):
        if type(self.src) is not IPv4Address:
            self.src = IPv4Address(self.src)
        if type(self.dst) is not IPv4Address:
            self.dst = IPv4Address(self.dst)

    def __str__(self):
        return f"IP({self.src}->{self.dst} proto={self.proto} ttl={self.ttl})"


@dataclass(slots=True)
class UDPHeader:
    """UDP source/destination ports."""

    sport: int
    dport: int

    size_bytes = UDP_HEADER_BYTES

    def __str__(self):
        return f"UDP({self.sport}->{self.dport})"


# TCP flag bits.
TCP_SYN = 0x02
TCP_ACK = 0x10
TCP_FIN = 0x01
TCP_RST = 0x04


@dataclass(slots=True)
class TCPHeader:
    """A minimal TCP header: ports, flags, sequence numbers."""

    sport: int
    dport: int
    flags: int = 0
    seq: int = 0
    ack: int = 0

    size_bytes = TCP_HEADER_BYTES

    @property
    def is_syn(self):
        return bool(self.flags & TCP_SYN) and not self.flags & TCP_ACK

    @property
    def is_synack(self):
        return bool(self.flags & TCP_SYN) and bool(self.flags & TCP_ACK)

    def __str__(self):
        names = []
        for bit, name in ((TCP_SYN, "SYN"), (TCP_ACK, "ACK"), (TCP_FIN, "FIN"), (TCP_RST, "RST")):
            if self.flags & bit:
                names.append(name)
        return f"TCP({self.sport}->{self.dport} {'|'.join(names) or '-'})"


class Packet:
    """A packet in flight.

    Attributes
    ----------
    headers:
        Outermost-first list of header objects (each exposing ``size_bytes``).
    payload:
        ``bytes``, an application message (exposing ``size_bytes`` or
        encodable), or another :class:`Packet` (encapsulation).
    payload_bytes:
        Explicit payload size; required when the payload object does not
        expose one.
    meta:
        Free-form annotations (flow id, creation time, hop count...).  Meta
        survives :meth:`copy` so experiments can follow a packet end-to-end.

    ``headers`` (the list), ``payload`` and ``payload_bytes`` must not be
    reassigned or mutated once the packet exists, nor the innermost
    packet's flow id and probe once sent: the size and :meth:`hop_ledger`
    are computed once and kept (:func:`udp_packet`, :func:`tcp_packet` and
    LISP encapsulation fix both at construction).
    """

    __slots__ = ("headers", "payload", "payload_bytes", "meta", "uid",
                 "_size", "_hop")

    def __init__(self, headers, payload=None, payload_bytes=0, meta=None):
        self.headers = headers
        self.payload = payload
        self.payload_bytes = payload_bytes
        self.meta = {} if meta is None else meta
        self.uid = next(_packet_ids)
        self._size = None
        self._hop = None

    def __repr__(self):
        return f"Packet(uid={self.uid}, {self})"

    @property
    def size_bytes(self):
        """Total on-wire size: all header bytes plus the payload size."""
        size = self._size
        if size is None:
            size = self._payload_size()
            for header in self.headers:
                size += header.size_bytes
            self._size = size
        return size

    def hop_ledger(self):
        """What a link books: ``(size_bytes, flow_id, fluid_probe)``, the
        last two from the innermost packet's meta."""
        hop = self._hop
        if hop is None:
            payload = self.payload
            if isinstance(payload, Packet):
                _size, flow_id, probe = payload.hop_ledger()
            else:
                meta = self.meta
                flow_id, probe = meta.get("flow_id"), meta.get("fluid_probe")
            hop = self._hop = (self.size_bytes, flow_id, probe)
        return hop

    def _payload_size(self):
        payload = self.payload
        if payload is None:
            return self.payload_bytes
        if isinstance(payload, (bytes, bytearray)):
            return len(payload)
        # An inner Packet answers from its own cached size.
        size = getattr(payload, "size_bytes", None)
        if size is not None:
            return size
        return self.payload_bytes

    @property
    def ip(self):
        """The outermost IPv4 header (or None)."""
        headers = self.headers
        if headers and type(headers[0]) is IPv4Header:
            return headers[0]
        return self.find(IPv4Header)

    @property
    def udp(self):
        """The outermost UDP header (or None)."""
        headers = self.headers
        if len(headers) > 1 and type(headers[1]) is UDPHeader \
                and type(headers[0]) is IPv4Header:
            return headers[1]
        return self.find(UDPHeader)

    @property
    def tcp(self):
        """The outermost TCP header (or None)."""
        return self.find(TCPHeader)

    def find(self, header_type):
        """First header of *header_type* in this packet's own stack."""
        for header in self.headers:
            if isinstance(header, header_type):
                return header
        return None

    @property
    def inner(self):
        """The encapsulated packet, if the payload is a packet."""
        return self.payload if isinstance(self.payload, Packet) else None

    def copy(self):
        """Deep-enough copy: headers and meta copied, payload shared.

        Header objects are replaced (dataclass ``replace``) so in-flight TTL
        mutation on one copy never affects another.
        """
        cloned_payload = self.payload.copy() if isinstance(self.payload, Packet) else self.payload
        clone = Packet(
            headers=[replace(header) for header in self.headers],
            payload=cloned_payload,
            payload_bytes=self.payload_bytes,
            meta=dict(self.meta),
        )
        clone._size = self._size
        clone._hop = self._hop
        return clone

    def __str__(self):
        stack = " / ".join(str(header) for header in self.headers)
        if self.inner is not None:
            return f"[{stack} | {self.inner}]"
        return f"[{stack} len={self.size_bytes}]"


def udp_packet(src, dst, sport, dport, payload=None, payload_bytes=0, ttl=64, meta=None):
    """Convenience constructor for a UDP datagram, sized and ledgered."""
    packet = Packet([IPv4Header(src, dst, PROTO_UDP, ttl), UDPHeader(sport, dport)],
                    payload, payload_bytes, meta or None)
    return _sealed(packet, IPV4_HEADER_BYTES + UDP_HEADER_BYTES)


def tcp_packet(src, dst, sport, dport, flags=0, seq=0, ack=0, payload_bytes=0, ttl=64, meta=None):
    """Convenience constructor for a TCP segment, sized and ledgered."""
    packet = Packet([IPv4Header(src, dst, PROTO_TCP, ttl),
                     TCPHeader(sport, dport, flags, seq, ack)],
                    None, payload_bytes, meta or None)
    return _sealed(packet, IPV4_HEADER_BYTES + TCP_HEADER_BYTES)


def _sealed(packet, header_bytes):
    """*packet* (*header_bytes* of headers, payload not a packet) with its
    size and hop ledger fixed."""
    meta = packet.meta
    size = packet._size = header_bytes + packet._payload_size()
    packet._hop = (size, meta.get("flow_id"), meta.get("fluid_probe"))
    return packet
