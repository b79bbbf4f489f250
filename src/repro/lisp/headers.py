"""LISP headers and control messages.

The data-plane encapsulation follows draft-farinacci-lisp-08: the inner
packet is wrapped in ``outer IP | UDP(dport 4341) | 8-byte LISP header``.
Control messages (Map-Request / Map-Reply) are modelled as objects with
accurate wire sizes; the experiments account their bytes but never need to
bit-pack them.
"""

from dataclasses import dataclass
from itertools import count

from repro.net.addresses import IPv4Address
from repro.net.packet import (IPV4_HEADER_BYTES, PROTO_UDP, UDP_HEADER_BYTES,
                              IPv4Header, Packet, UDPHeader)

LISP_DATA_PORT = 4341
LISP_CONTROL_PORT = 4342
LISP_HEADER_BYTES = 8

#: What the data-plane envelope adds to the packet it wraps.
_ENVELOPE_BYTES = IPV4_HEADER_BYTES + UDP_HEADER_BYTES + LISP_HEADER_BYTES

_nonces = count(1)


def next_nonce():
    return next(_nonces)


@dataclass(slots=True)
class LispHeader:
    """The 8-byte LISP data-plane shim header."""

    nonce: int = 0
    instance_id: int = 0
    locator_status_bits: int = 0

    size_bytes = LISP_HEADER_BYTES

    def __str__(self):
        return f"LISP(nonce={self.nonce})"


@dataclass(slots=True)
class MapRequest:
    """A Map-Request for *eid*, answered toward *itr_rloc*."""

    nonce: int
    eid: IPv4Address
    itr_rloc: IPv4Address

    def __post_init__(self):
        self.eid = IPv4Address(self.eid)
        self.itr_rloc = IPv4Address(self.itr_rloc)

    @property
    def size_bytes(self):
        # draft-08 Map-Request: 24B fixed + ITR-RLOC + EID record.
        return 24 + 8 + 8

    def __str__(self):
        return f"MapRequest(eid={self.eid} nonce={self.nonce})"


@dataclass(slots=True)
class MapReply:
    """A Map-Reply carrying one mapping record."""

    nonce: int
    mapping: object

    @property
    def size_bytes(self):
        return 12 + self.mapping.size_bytes

    def __str__(self):
        return f"MapReply(nonce={self.nonce} {self.mapping})"


def encapsulate(inner, source_rloc, destination_rloc, nonce=None):
    """Wrap *inner* in a LISP data-plane envelope, sized and ledgered from
    *inner*'s hop ledger (the outer meta starts empty)."""
    outer = Packet([IPv4Header(source_rloc, destination_rloc, PROTO_UDP),
                    UDPHeader(LISP_DATA_PORT, LISP_DATA_PORT),
                    LispHeader(next(_nonces) if nonce is None else nonce)],
                   inner)
    size, flow_id, probe = inner._hop
    size = outer._size = size + _ENVELOPE_BYTES
    outer._hop = (size, flow_id, probe)
    return outer


def decapsulate(packet):
    """Return (inner_packet, outer_ip_header, lisp_header) of a LISP packet."""
    inner = packet.inner
    if inner is None:
        raise ValueError("not a LISP data packet: no inner packet")
    lisp = packet.find(LispHeader)
    return inner, packet.ip, lisp
