"""Tests for IPv4 address and prefix types, including hypothesis properties."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.net.errors import AddressError

addresses = st.integers(min_value=0, max_value=(1 << 32) - 1)
prefix_lengths = st.integers(min_value=0, max_value=32)


def test_parse_and_format_roundtrip():
    assert str(IPv4Address("10.1.2.3")) == "10.1.2.3"
    assert int(IPv4Address("0.0.0.0")) == 0
    assert int(IPv4Address("255.255.255.255")) == (1 << 32) - 1


@pytest.mark.parametrize("bad", ["", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "1..2.3"])
def test_bad_addresses_rejected(bad):
    with pytest.raises(AddressError):
        IPv4Address(bad)


def test_address_out_of_range_rejected():
    with pytest.raises(AddressError):
        IPv4Address(1 << 32)
    with pytest.raises(AddressError):
        IPv4Address(-1)


def test_address_equality_and_ordering():
    assert IPv4Address("10.0.0.1") == IPv4Address(0x0A000001)
    assert IPv4Address("10.0.0.1") == "10.0.0.1"
    assert IPv4Address("10.0.0.1") < IPv4Address("10.0.0.2")
    assert IPv4Address("9.255.255.255") < IPv4Address("10.0.0.0")


def test_address_compares_unequal_to_unparsable_operands():
    """Regression: ``==`` used to raise AddressError out of ``__eq__``."""
    address = IPv4Address("10.0.0.1")
    assert not address == "not-an-address"
    assert address != "not-an-address"
    assert address != "10.0.0"
    assert address != "10.0.0.256"
    assert address != ""
    assert address != -1
    assert address != 1 << 32
    assert address == 0x0A000001
    assert address != 0x0A000002
    assert address != None  # noqa: E711 - exercising __eq__'s NotImplemented path
    assert "not-an-address" not in {address}
    assert address not in ["10.0.0", "junk"]
    assert IPv4Prefix("10.0.0.0/8") != "10.0.0.0"
    assert IPv4Prefix("10.0.0.0/8") != "10.0.0.1/8"
    assert IPv4Prefix("10.0.0.0/8") == "10.0.0.0/8"


def test_address_hashable_and_copyable():
    a = IPv4Address("1.2.3.4")
    assert len({a, IPv4Address("1.2.3.4")}) == 1
    assert IPv4Address(a) == a
    # Equal to its integer value, so it must hash like it.
    assert hash(a) == hash(int(a))
    assert {int(a): "route"}[a] == "route"


def test_address_arithmetic():
    assert IPv4Address("10.0.0.1") + 5 == IPv4Address("10.0.0.6")


def test_address_bytes_roundtrip():
    a = IPv4Address("192.168.1.42")
    assert IPv4Address.from_bytes(a.to_bytes()) == a


@given(addresses)
def test_address_int_str_roundtrip(value):
    address = IPv4Address(value)
    assert IPv4Address(str(address)) == address
    assert int(IPv4Address(str(address))) == value


def test_prefix_parsing():
    p = IPv4Prefix("10.0.0.0/8")
    assert p.length == 8
    assert str(p) == "10.0.0.0/8"
    assert p.num_addresses == 1 << 24


def test_prefix_host_bits_rejected():
    with pytest.raises(AddressError):
        IPv4Prefix("10.0.0.1/8")


def test_prefix_containing_masks_host_bits():
    p = IPv4Prefix.containing("10.1.2.3", 8)
    assert p == IPv4Prefix("10.0.0.0/8")


def test_prefix_contains_address_and_prefix():
    p = IPv4Prefix("10.0.0.0/8")
    assert p.contains("10.255.0.1")
    assert not p.contains("11.0.0.0")
    assert p.contains(IPv4Prefix("10.1.0.0/16"))
    assert not IPv4Prefix("10.1.0.0/16").contains(p)


def overlaps(a, b):
    """True if prefixes *a* and *b* share any address."""
    return a.contains(b) or b.contains(a)


def test_prefix_overlaps():
    assert overlaps(IPv4Prefix("10.0.0.0/8"), IPv4Prefix("10.1.0.0/16"))
    assert overlaps(IPv4Prefix("10.1.0.0/16"), IPv4Prefix("10.0.0.0/8"))
    assert not overlaps(IPv4Prefix("10.0.0.0/8"), IPv4Prefix("11.0.0.0/8"))


def test_prefix_address_at_bounds():
    p = IPv4Prefix("192.168.0.0/24")
    assert p.address_at(0) == IPv4Address("192.168.0.0")
    assert p.address_at(255) == IPv4Address("192.168.0.255")
    with pytest.raises(AddressError):
        p.address_at(256)


def test_default_prefix_contains_everything():
    default = IPv4Prefix("0.0.0.0/0")
    assert default.contains("1.2.3.4")
    assert default.contains("255.255.255.255")


@given(addresses, prefix_lengths)
def test_prefix_contains_its_base(value, length):
    prefix = IPv4Prefix.containing(value, length)
    assert prefix.contains(IPv4Address(value))


@given(addresses, prefix_lengths)
def test_prefix_roundtrip_via_str(value, length):
    prefix = IPv4Prefix.containing(value, length)
    assert IPv4Prefix(str(prefix)) == prefix


@given(addresses, st.integers(min_value=1, max_value=32))
def test_subprefix_is_contained(value, length):
    prefix = IPv4Prefix.containing(value, length - 1)
    sub = IPv4Prefix.containing(value, length)
    assert prefix.contains(sub)
