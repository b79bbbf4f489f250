"""Control-plane messages exchanged by PCEs, ITRs and ETRs."""

from dataclasses import dataclass

from repro.dns.message import DnsMessage
from repro.net.addresses import IPv4Address

#: The paper's "special transport port P" listened on by PCE_S (Step 6).
PORT_PCE = 4343
#: PCE -> ITR mapping installation (Step 7b).
PORT_MAPPING_PUSH = 4344
#: ETR -> sibling-ETRs / PCE reverse-mapping multicast (closing paragraph).
PORT_REVERSE = 4345
#: Bookkeeping a Step-6 envelope adds besides its mapping record.
ENVELOPE_HEADER_BYTES = 12


@dataclass
class EncapsulatedDnsReply:
    """Step 6: the DNS reply wrapped in a new UDP message.

    Carries the original reply verbatim (the message plus the addressing
    needed to re-emit it unchanged at the source side) and, in the outer
    payload, the EID-to-RLOC mapping selected by PCE_D's IRC engine.
    """

    dns_reply: DnsMessage
    mapping: object
    original_src: IPv4Address
    original_sport: int
    original_dst: IPv4Address
    original_dport: int

    @property
    def size_bytes(self):
        return (self.dns_reply.size_bytes + self.mapping.size_bytes
                + ENVELOPE_HEADER_BYTES)


@dataclass
class MappingPush:
    """Step 7b: the tuple (E_S, E_D, RLOC_S, RLOC_D) pushed to every ITR.

    ``mapping`` is the destination mapping narrowed to RLOC_D and annotated
    with RLOC_S as the outer-source locator — i.e. the two one-way tunnels.
    """

    mapping: object

    @property
    def size_bytes(self):
        # The 16 bytes still count E_S, which the wire tuple carries though
        # no receiver reads it.
        return 16 + self.mapping.size_bytes


@dataclass
class ReverseMappingAnnounce:
    """ETR multicast: the (E_S -> RLOC_S) mapping gleaned from packet one."""

    mapping: object

    @property
    def size_bytes(self):
        return 8 + self.mapping.size_bytes
