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
from repro.net.packet import IPv4Header, Packet, PROTO_UDP, UDPHeader

LISP_DATA_PORT = 4341
LISP_CONTROL_PORT = 4342
LISP_HEADER_BYTES = 8

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
    source_eid: IPv4Address = None

    def __post_init__(self):
        self.eid = IPv4Address(self.eid)
        self.itr_rloc = IPv4Address(self.itr_rloc)
        if self.source_eid is not None:
            self.source_eid = IPv4Address(self.source_eid)

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
    """Wrap *inner* in a LISP data-plane envelope."""
    header = LispHeader(nonce=next_nonce() if nonce is None else nonce)
    return Packet(
        headers=[
            IPv4Header(src=source_rloc, dst=destination_rloc, proto=PROTO_UDP),
            UDPHeader(sport=LISP_DATA_PORT, dport=LISP_DATA_PORT),
            header,
        ],
        payload=inner,
        meta=dict(inner.meta),
    )


def decapsulate(packet):
    """Return (inner_packet, outer_ip_header, lisp_header) of a LISP packet."""
    inner = packet.inner
    if inner is None:
        raise ValueError("not a LISP data packet: no inner packet")
    lisp = packet.find(LispHeader)
    return inner, packet.ip, lisp
