"""Network substrate: addresses, packets, links, nodes, forwarding, topology.

This package models the IP layer the paper's architecture runs over.  It is a
packet-level model: every packet traverses links with configurable delay,
bandwidth and finite FIFO queues, and every node forwards via a hash-table
FIB with longest-prefix-match semantics.

The LISP split between identifiers and locators is expressed here purely in
terms of *which prefixes are installed in which FIBs*: EID prefixes live only
in site-internal FIBs, RLOC and infrastructure prefixes are installed
globally (see :mod:`repro.net.routing` and :mod:`repro.net.topology`).
"""

from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.net.fib import Fib, FibEntry
from repro.net.link import Link
from repro.net.node import Interface, Node
from repro.net.packet import (
    PROTO_ICMP,
    PROTO_IPIP,
    PROTO_TCP,
    PROTO_UDP,
    IPv4Header,
    Packet,
    TCPHeader,
    UDPHeader,
)
from repro.net.router import Router
from repro.net.host import Host

__all__ = [
    "Fib",
    "FibEntry",
    "Host",
    "IPv4Address",
    "IPv4Header",
    "IPv4Prefix",
    "Interface",
    "Link",
    "Node",
    "PROTO_ICMP",
    "PROTO_IPIP",
    "PROTO_TCP",
    "PROTO_UDP",
    "Packet",
    "Router",
    "TCPHeader",
    "UDPHeader",
]
