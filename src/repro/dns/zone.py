"""Authoritative zone data and lookup logic."""

from repro.dns.records import (
    RCODE_NOERROR,
    RCODE_NXDOMAIN,
    TYPE_A,
    TYPE_NS,
    ResourceRecord,
    is_subdomain,
    normalise_name,
)


class ZoneAnswer:
    """The outcome of an authoritative lookup."""

    __slots__ = ("rcode", "answers", "authorities", "additionals", "is_referral")

    # The sections may be the zone's own lists: a reader copies them, as
    # ``make_reply`` does, and never edits them.
    def __init__(self, rcode=RCODE_NOERROR, answers=(), authorities=(), additionals=(),
                 is_referral=False):
        self.rcode = rcode
        self.answers = answers
        self.authorities = authorities
        self.additionals = additionals
        self.is_referral = is_referral


class Zone:
    """One zone: an origin, its records, and its delegations.

    A delegation is expressed as NS records for a child name plus glue A
    records for the nameserver names.
    """

    def __init__(self, origin):
        self.origin = normalise_name(origin)
        self._records = {}
        self._delegations = {}

    def add_record(self, record):
        self._records.setdefault((record.name, record.rtype), []).append(record)
        return record

    def add_a(self, name, address, ttl=60.0):
        return self.add_record(ResourceRecord(name, TYPE_A, ttl, address))

    def delegate(self, child_origin, ns_name, glue_address, ttl=3600.0):
        """Delegate *child_origin* to a nameserver with a glue address."""
        child = normalise_name(child_origin)
        # child -> (NS records, glue records): a referral's two sections.
        authorities, additionals = self._delegations.setdefault(child, ([], []))
        authorities.append(ResourceRecord(child, TYPE_NS, ttl, ns_name))
        additionals.append(ResourceRecord(ns_name, TYPE_A, ttl, glue_address))

    def covers(self, name):
        return is_subdomain(name, self.origin)

    def _find_delegation(self, name):
        """The most specific delegation at or above *name*, or None.

        Every delegation *name* is at or below is a suffix of it cut at a
        label boundary, so the suffixes are looked up longest first (the
        name itself, then after each dot, the root last) and the first hit
        is the most specific: O(labels), however many delegations the zone
        holds.  A delegation of the zone's own origin is found like any
        other; :meth:`lookup` ignores it.
        """
        delegations = self._delegations
        cut = 0
        while cut < len(name):
            suffix = name[cut:]
            if suffix in delegations:
                return suffix
            cut = name.index(".", cut) + 1
        return "." if "." in delegations else None

    def lookup(self, qname, qtype=TYPE_A):
        """Authoritative resolution of (*qname*, *qtype*) within this zone."""
        # Names reach a zone normalised (a Question's), as covers() and
        # _find_delegation() take them.
        if not self.covers(qname):
            # Out-of-bailiwick question: refuse via NXDOMAIN (simplified).
            return ZoneAnswer(rcode=RCODE_NXDOMAIN)
        exact = self._records.get((qname, qtype))
        if exact:
            return ZoneAnswer(answers=exact)
        delegation = self._find_delegation(qname)
        if delegation is not None and delegation != self.origin:
            authorities, additionals = self._delegations[delegation]
            return ZoneAnswer(authorities=authorities, additionals=additionals,
                              is_referral=True)
        return ZoneAnswer(rcode=RCODE_NXDOMAIN)

    def __str__(self):
        return f"Zone({self.origin} records={len(self._records)} delegations={len(self._delegations)})"
