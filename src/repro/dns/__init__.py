"""DNS substrate: wire-format messages, zones, servers, iterative resolution.

The paper's control plane rides on DNS: PCEs sit in the data path of the
site DNS servers and parse the queries and replies flowing through them
(Fig. 1, Steps 2-6).  This package therefore implements a real — if
simplified — DNS: messages have a binary wire encoding, authoritative
servers answer or refer, and the site resolver walks the hierarchy
iteratively (root, TLD, authoritative), exactly the sequence the paper's
T_DNS measures.
"""

from repro.dns.cache import TtlCache
from repro.dns.message import (
    DNS_PORT,
    FLAG_AA,
    FLAG_QR,
    FLAG_RA,
    FLAG_RD,
    DnsMessage,
    Question,
)
from repro.dns.records import RCODE_NOERROR, RCODE_NXDOMAIN, TYPE_A, TYPE_NS, ResourceRecord
from repro.dns.resolver import RecursiveResolver, StubResolver
from repro.dns.server import AuthoritativeServer
from repro.dns.zone import Zone

__all__ = [
    "AuthoritativeServer",
    "DNS_PORT",
    "DnsMessage",
    "FLAG_AA",
    "FLAG_QR",
    "FLAG_RA",
    "FLAG_RD",
    "Question",
    "RCODE_NOERROR",
    "RCODE_NXDOMAIN",
    "RecursiveResolver",
    "ResourceRecord",
    "StubResolver",
    "TtlCache",
    "TYPE_A",
    "TYPE_NS",
    "Zone",
]
