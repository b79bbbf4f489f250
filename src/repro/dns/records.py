"""Resource records and DNS constants."""

from dataclasses import dataclass, field

from repro.net.addresses import IPv4Address

TYPE_A = 1
TYPE_NS = 2
TYPE_CNAME = 5
TYPE_SOA = 6

RCODE_NOERROR = 0
RCODE_SERVFAIL = 2
RCODE_NXDOMAIN = 3

_TYPE_NAMES = {TYPE_A: "A", TYPE_NS: "NS", TYPE_CNAME: "CNAME", TYPE_SOA: "SOA"}


def type_name(rtype):
    return _TYPE_NAMES.get(rtype, str(rtype))


def normalise_name(name):
    """Lower-cased, with a trailing dot (fully-qualified form)."""
    # An ASCII name already in that form is returned as it is.
    if name[-1:] == "." and name.isascii() and name.islower():
        return name
    name = name.lower()
    if not name.endswith("."):
        name += "."
    return name


def name_labels(name):
    """Split a normalised name into labels, dropping the root label."""
    return [label for label in normalise_name(name).split(".") if label]


def check_ttl(field, ttl):
    """Reject a TTL the wire's unsigned 32-bit seconds field cannot carry."""
    if not (0 <= ttl < 2**32 and ttl == int(ttl)):
        raise ValueError(f"{field} must be whole seconds in [0, 2**32), got {ttl!r}")


def is_subdomain(name, zone_origin):
    """True if *name* is at or below *zone_origin*."""
    # Both are normalised already (a Question's name, a Zone's origin).
    return (zone_origin == "." or name == zone_origin
            or name.endswith("." + zone_origin))


@dataclass(frozen=True, slots=True)
class ResourceRecord:
    """One DNS resource record.

    ``data`` is an :class:`~repro.net.addresses.IPv4Address` for A records
    and a domain-name string for NS/CNAME records.
    """

    name: str
    rtype: int
    ttl: float
    data: object
    # Wire size: fixed by the codec when first asked (``message._rr_size``).
    _size: int = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_ttl("ResourceRecord.ttl", self.ttl)
        object.__setattr__(self, "name", normalise_name(self.name))
        if self.rtype == TYPE_A:
            if type(self.data) is not IPv4Address:
                object.__setattr__(self, "data", IPv4Address(self.data))
        elif self.rtype in (TYPE_NS, TYPE_CNAME):
            object.__setattr__(self, "data", normalise_name(str(self.data)))

    def __str__(self):
        return f"{self.name} {int(self.ttl)} {type_name(self.rtype)} {self.data}"
