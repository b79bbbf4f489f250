"""DNS message objects and their binary wire format.

The format mirrors RFC 1035's layout (12-byte header, question, then
answer/authority/additional RR sections, length-prefixed labels) but omits
name compression — the PCE's parser and the size accounting don't need it,
and leaving it out keeps encode/decode obviously correct.
"""

import struct

from repro.dns.records import (TYPE_A, TYPE_CNAME, TYPE_NS, ResourceRecord, name_labels,
                               normalise_name)
from repro.net.addresses import IPv4Address

FLAG_QR = 0x8000  # reply (vs query)
FLAG_AA = 0x0400  # authoritative answer
FLAG_TC = 0x0200  # truncated
FLAG_RD = 0x0100  # recursion desired
FLAG_RA = 0x0080  # recursion available

_HEADER = struct.Struct("!HHHHHH")
_RR_FIXED = struct.Struct("!HHIH")

CLASS_IN = 1

DNS_PORT = 53


class DnsWireError(ValueError):
    """Malformed DNS wire data."""


def encode_name(name):
    encoded = bytearray()
    for label in normalise_name(name).split("."):
        if not label:
            continue
        raw = label.encode("ascii")
        if len(raw) > 63:
            raise DnsWireError(f"label too long: {label!r}")
        encoded.append(len(raw))
        encoded.extend(raw)
    encoded.append(0)
    return bytes(encoded)


def name_size(name):
    """``len(encode_name(name))`` without building the bytes.

    One length byte per label plus the terminating zero; a non-ASCII name
    is handed to the codec, so it raises here exactly as there.
    """
    if not name.isascii():
        return len(encode_name(name))
    size = 1
    for label in name_labels(name):
        if len(label) > 63:
            raise DnsWireError(f"label too long: {label!r}")
        size += 1 + len(label)
    return size


def _rr_size(record):
    # Wire size of *record* (name, 10 fixed bytes, rdata), fixed on first ask.
    size = name_size(record.name) + _RR_FIXED.size
    if record.rtype == TYPE_A:
        size += 4
    elif record.rtype in (TYPE_NS, TYPE_CNAME):
        size += name_size(record.data)
    else:
        size += len(_opaque_rdata(record.data))
    object.__setattr__(record, "_size", size)  # a frozen record
    return size


def _opaque_rdata(data):
    """Rdata of a record type the codec does not interpret."""
    if isinstance(data, (bytes, bytearray)):
        return bytes(data)
    return str(data).encode("ascii")


def decode_name(data, offset):
    labels = []
    while True:
        if offset >= len(data):
            raise DnsWireError("truncated name")
        length = data[offset]
        offset += 1
        if length == 0:
            break
        if length > 63:
            raise DnsWireError(f"bad label length {length}")
        if offset + length > len(data):
            raise DnsWireError("truncated label")
        labels.append(data[offset:offset + length].decode("ascii"))
        offset += length
    return (".".join(labels) + "." if labels else "."), offset


class Question:
    """A DNS question; immutable once built."""

    __slots__ = ("qname", "qtype", "_size")

    def __init__(self, qname, qtype):
        self.qname = normalise_name(qname)
        self.qtype = qtype
        self._size = None  # wire size, fixed when first asked

    def __eq__(self, other):
        if other.__class__ is not Question:
            return NotImplemented
        return self.qname == other.qname and self.qtype == other.qtype

    def __repr__(self):
        return f"Question(qname={self.qname!r}, qtype={self.qtype!r})"


class DnsMessage:
    """A DNS query or response."""

    __slots__ = ("ident", "flags", "question", "answers", "authorities",
                 "additionals")

    def __init__(self, ident=0, flags=0, question=None, answers=None,
                 authorities=None, additionals=None):
        self.ident = ident
        self.flags = flags
        self.question = question
        self.answers = [] if answers is None else answers
        self.authorities = [] if authorities is None else authorities
        self.additionals = [] if additionals is None else additionals

    def _fields(self):
        return (self.ident, self.flags, self.question, self.answers,
                self.authorities, self.additionals)

    def __eq__(self, other):
        if other.__class__ is not DnsMessage:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self):
        return (f"DnsMessage(ident={self.ident!r}, flags={self.flags!r}, "
                f"question={self.question!r}, answers={self.answers!r}, "
                f"authorities={self.authorities!r}, "
                f"additionals={self.additionals!r})")

    # -- convenience predicates ---------------------------------------- #

    @property
    def is_reply(self):
        return bool(self.flags & FLAG_QR)

    @property
    def is_query(self):
        return not self.flags & FLAG_QR

    @property
    def rcode(self):
        return self.flags & 0x000F

    def with_rcode(self, rcode):
        self.flags = (self.flags & ~0x000F) | (rcode & 0x000F)
        return self

    @property
    def qname(self):
        return self.question.qname if self.question is not None else None

    def answer_addresses(self):
        """All A-record addresses in the answer section."""
        return [record.data for record in self.answers if record.rtype == TYPE_A]

    def referral_servers(self):
        """(ns_name, glue_address_or_None) pairs from a referral."""
        glue = {record.name: record.data for record in self.additionals
                if record.rtype == TYPE_A}
        servers = []
        for record in self.authorities:
            if record.rtype == TYPE_NS:
                servers.append((record.data, glue.get(record.data)))
        return servers

    # -- wire format ---------------------------------------------------- #

    def encode(self):
        counts = (1 if self.question else 0, len(self.answers),
                  len(self.authorities), len(self.additionals))
        out = bytearray(_HEADER.pack(self.ident, self.flags, *counts))
        if self.question:
            out += encode_name(self.question.qname)
            out += struct.pack("!HH", self.question.qtype, CLASS_IN)
        for section in (self.answers, self.authorities, self.additionals):
            for record in section:
                out += self._encode_rr(record)
        return bytes(out)

    @staticmethod
    def _encode_rr(record):
        if record.rtype == TYPE_A:
            rdata = IPv4Address(record.data).to_bytes()
        elif record.rtype in (TYPE_NS, TYPE_CNAME):
            rdata = encode_name(record.data)
        else:
            rdata = _opaque_rdata(record.data)
        out = bytearray(encode_name(record.name))
        out += _RR_FIXED.pack(record.rtype, CLASS_IN, int(record.ttl), len(rdata))
        out += rdata
        return bytes(out)

    @classmethod
    def decode(cls, data):
        if len(data) < _HEADER.size:
            raise DnsWireError("truncated header")
        ident, flags, qd, an, ns, ar = _HEADER.unpack_from(data, 0)
        offset = _HEADER.size
        question = None
        if qd > 1:
            raise DnsWireError("multiple questions unsupported")
        if qd == 1:
            qname, offset = decode_name(data, offset)
            if offset + 4 > len(data):
                raise DnsWireError("truncated question")
            qtype, _qclass = struct.unpack_from("!HH", data, offset)
            offset += 4
            question = Question(qname, qtype)
        message = cls(ident=ident, flags=flags, question=question)
        for section, count in ((message.answers, an), (message.authorities, ns),
                               (message.additionals, ar)):
            for _ in range(count):
                record, offset = cls._decode_rr(data, offset)
                section.append(record)
        return message

    @staticmethod
    def _decode_rr(data, offset):
        name, offset = decode_name(data, offset)
        if offset + _RR_FIXED.size > len(data):
            raise DnsWireError("truncated RR")
        rtype, _rclass, ttl, rdlength = _RR_FIXED.unpack_from(data, offset)
        offset += _RR_FIXED.size
        if offset + rdlength > len(data):
            raise DnsWireError("truncated rdata")
        raw = data[offset:offset + rdlength]
        offset += rdlength
        if rtype == TYPE_A:
            rdata = IPv4Address.from_bytes(raw)
        elif rtype in (TYPE_NS, TYPE_CNAME):
            rdata, _ = decode_name(raw, 0)
        else:
            rdata = raw
        return ResourceRecord(name, rtype, ttl, rdata), offset

    @property
    def size_bytes(self):
        """On-wire size; lets DNS messages ride directly as packet payloads.

        ``len(self.encode())`` by arithmetic: the header plus the question's
        and each record's size, each fixed on first ask.  The codec stays
        the definition: tests hold the two equal.
        """
        size = _HEADER.size
        question = self.question
        if question is not None:
            qsize = question._size
            if qsize is None:
                qsize = question._size = name_size(question.qname) + 4
            size += qsize
        for section in (self.answers, self.authorities, self.additionals):
            for record in section:
                rsize = record._size
                size += rsize if rsize is not None else _rr_size(record)
        return size

    def copy(self):
        return DnsMessage(ident=self.ident, flags=self.flags, question=self.question,
                          answers=list(self.answers), authorities=list(self.authorities),
                          additionals=list(self.additionals))

    def __str__(self):
        kind = "reply" if self.is_reply else "query"
        parts = [f"DNS {kind} id={self.ident} q={self.qname}"]
        if self.answers:
            parts.append(f"ans={[str(r.data) for r in self.answers]}")
        if self.authorities:
            parts.append(f"auth={len(self.authorities)}")
        return " ".join(parts)


def make_query(ident, qname, qtype=TYPE_A, recursion_desired=False):
    flags = FLAG_RD if recursion_desired else 0
    return DnsMessage(ident=ident, flags=flags, question=Question(qname, qtype))


def make_reply(query, answers=(), authorities=(), additionals=(), authoritative=False,
               rcode=0, recursion_available=False):
    flags = FLAG_QR | (query.flags & FLAG_RD)
    if authoritative:
        flags |= FLAG_AA
    if recursion_available:
        flags |= FLAG_RA
    reply = DnsMessage(ident=query.ident, flags=flags, question=query.question,
                       answers=list(answers), authorities=list(authorities),
                       additionals=list(additionals))
    return reply.with_rcode(rcode)
