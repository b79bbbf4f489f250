"""IPv4 addresses and prefixes, implemented from scratch.

The simulator uses its own integer-backed address types rather than the
stdlib ``ipaddress`` module so the FIB tables and the LISP mapping records can
operate directly on (value, mask-length) integers, and so address arithmetic
stays explicit and cheap.
"""

from functools import total_ordering

from repro.net.errors import AddressError

_MAX32 = (1 << 32) - 1

#: The netmask of each prefix length, 0-32: one int per length, shared by
#: every prefix of that length.
_MASKS = tuple((_MAX32 << (32 - length)) & _MAX32 for length in range(33))

_new = object.__new__


def _parse_dotted_quad(text):
    parts = text.split(".")
    if len(parts) != 4:
        raise AddressError(f"bad IPv4 address {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise AddressError(f"bad IPv4 address {text!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"bad IPv4 address {text!r}")
        value = (value << 8) | octet
    return value


@total_ordering
class IPv4Address:
    """A single IPv4 address (immutable, hashable, totally ordered)."""

    __slots__ = ("_value",)

    def __init__(self, value):
        if isinstance(value, IPv4Address):
            self._value = value._value
        elif isinstance(value, int):
            if not 0 <= value <= _MAX32:
                raise AddressError(f"address out of range: {value}")
            self._value = value
        elif isinstance(value, str):
            self._value = _parse_dotted_quad(value)
        else:
            raise AddressError(f"cannot build IPv4Address from {value!r}")

    @staticmethod
    def _trusted(value):
        """Unchecked: see "Addresses" in ``docs/contracts.md``."""
        address = _new(IPv4Address)
        address._value = value
        return address

    def __int__(self):
        return self._value

    def __str__(self):
        value = self._value
        return f"{value >> 24 & 255}.{value >> 16 & 255}.{value >> 8 & 255}.{value & 255}"

    def __repr__(self):
        return f"IPv4Address('{self}')"

    def __eq__(self, other):
        if isinstance(other, IPv4Address):
            return self._value == other._value
        if isinstance(other, int):
            return self._value == other
        if isinstance(other, str):
            try:
                return self._value == _parse_dotted_quad(other)
            except AddressError:
                return False
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, IPv4Address):
            return self._value < other._value
        return NotImplemented

    def __hash__(self):
        # The integer's own hash: no tuple per call, and consistent with
        # ``address == int``.
        return hash(self._value)

    @property
    def value(self):
        """The 32-bit integer value."""
        return self._value

    def to_bytes(self):
        """Big-endian 4-byte encoding (used by the wire formats)."""
        return self._value.to_bytes(4, "big")

    @classmethod
    def from_bytes(cls, data):
        if len(data) != 4:
            raise AddressError(f"need 4 bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))


class IPv4Prefix:
    """An IPv4 network prefix (address + mask length).

    The host bits of the supplied address must be zero; use
    :meth:`containing` to derive the enclosing prefix of an arbitrary
    address instead.  The prefix carries its mask (``_mask``), so
    :meth:`contains` is one AND and one compare.
    """

    __slots__ = ("_network", "_length", "_mask")

    def __init__(self, network, length=None):
        if isinstance(network, IPv4Prefix):
            self._network, self._length, self._mask = \
                network._network, network._length, network._mask
            return
        if isinstance(network, str) and length is None:
            if "/" not in network:
                raise AddressError(f"prefix needs a /length: {network!r}")
            addr_text, _, length_text = network.partition("/")
            network = addr_text
            try:
                length = int(length_text)
            except ValueError:
                raise AddressError(f"bad prefix length in {network!r}") from None
        if length is None:
            raise AddressError("prefix length required")
        if not 0 <= length <= 32:
            raise AddressError(f"prefix length out of range: {length}")
        base = IPv4Address(network).value
        mask = _MASKS[length]
        if base & ~mask & _MAX32:
            raise AddressError(
                f"host bits set in prefix {IPv4Address(base)}/{length}"
            )
        self._network = base
        self._length = length
        self._mask = mask

    @staticmethod
    def _trusted(network, length):
        """Unchecked: see "Addresses" in ``docs/contracts.md``."""
        prefix = _new(IPv4Prefix)
        prefix._network, prefix._length, prefix._mask = network, length, _MASKS[length]
        return prefix

    @staticmethod
    def _mask_for(length):
        return _MASKS[length]

    @classmethod
    def containing(cls, address, length):
        """The /*length* prefix that contains *address*."""
        base = IPv4Address(address).value & cls._mask_for(length)
        return cls(base, length)

    @property
    def network(self):
        """The network address as :class:`IPv4Address`."""
        return IPv4Address._trusted(self._network)

    @property
    def length(self):
        """The mask length (0-32)."""
        return self._length

    @property
    def num_addresses(self):
        """Number of addresses covered."""
        return 1 << (32 - self._length)

    def __str__(self):
        return f"{self.network}/{self._length}"

    def __repr__(self):
        return f"IPv4Prefix('{self}')"

    def __eq__(self, other):
        if isinstance(other, IPv4Prefix):
            return (self._network, self._length) == (other._network, other._length)
        if isinstance(other, str):
            try:
                return self == IPv4Prefix(other)
            except AddressError:
                return False
        return NotImplemented

    def __hash__(self):
        return hash(("IPv4Prefix", self._network, self._length))

    def contains(self, address):
        """True if *address* (or the whole prefix *address*) lies within self."""
        if isinstance(address, IPv4Prefix):
            return (address._length >= self._length
                    and address._network & self._mask == self._network)
        value = (address if type(address) is IPv4Address
                 else IPv4Address(address))._value
        return value & self._mask == self._network

    def address_at(self, offset):
        """The address *offset* positions into the prefix (bounds-checked)."""
        if not 0 <= offset < self.num_addresses:
            raise AddressError(f"offset {offset} outside {self}")
        return IPv4Address._trusted(self._network + offset)
