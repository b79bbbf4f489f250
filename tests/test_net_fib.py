"""Tests for the radix-trie FIB: LPM correctness, updates, properties."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.net.errors import NoRouteError
from repro.net.fib import Fib, FibEntry


def make_fib(*routes):
    fib = Fib()
    for prefix, tag in routes:
        fib.add(prefix, tag)
    return fib


def test_longest_prefix_wins():
    fib = make_fib(("10.0.0.0/8", "coarse"), ("10.1.0.0/16", "mid"), ("10.1.2.0/24", "fine"))
    assert fib.lookup("10.1.2.3").interface == "fine"
    assert fib.lookup("10.1.9.9").interface == "mid"
    assert fib.lookup("10.9.9.9").interface == "coarse"


def test_default_route_matches_all():
    fib = make_fib(("0.0.0.0/0", "default"), ("10.0.0.0/8", "ten"))
    assert fib.lookup("11.0.0.1").interface == "default"
    assert fib.lookup("10.0.0.1").interface == "ten"


def test_no_route_raises():
    fib = make_fib(("10.0.0.0/8", "ten"))
    with pytest.raises(NoRouteError):
        fib.lookup("11.0.0.1")


def test_lookup_default_argument():
    fib = Fib()
    sentinel = FibEntry(IPv4Prefix("0.0.0.0/0"), "fallback")
    assert fib.lookup("1.2.3.4", default=sentinel) is sentinel


def test_host_route():
    fib = make_fib(("10.0.0.0/8", "net"), ("10.0.0.5/32", "host"))
    assert fib.lookup("10.0.0.5").interface == "host"
    assert fib.lookup("10.0.0.6").interface == "net"


def test_insert_replaces_same_prefix():
    fib = make_fib(("10.0.0.0/8", "old"))
    fib.add("10.0.0.0/8", "new")
    assert fib.lookup("10.1.1.1").interface == "new"
    assert len(fib) == 1


def test_remove():
    fib = make_fib(("10.0.0.0/8", "coarse"), ("10.1.0.0/16", "fine"))
    removed = fib.remove("10.1.0.0/16")
    assert removed.interface == "fine"
    assert fib.lookup("10.1.2.3").interface == "coarse"
    assert fib.remove("10.1.0.0/16") is None
    assert len(fib) == 1


def test_entries_sorted():
    fib = make_fib(("11.0.0.0/8", "b"), ("10.0.0.0/8", "a"), ("10.1.0.0/16", "a16"))
    prefixes = [str(entry.prefix) for entry in fib.entries()]
    assert prefixes == ["10.0.0.0/8", "10.1.0.0/16", "11.0.0.0/8"]


def test_zero_length_prefix_only():
    fib = make_fib(("0.0.0.0/0", "any"))
    assert fib.lookup("0.0.0.0").interface == "any"
    assert fib.lookup("255.255.255.255").interface == "any"


addresses = st.integers(min_value=0, max_value=(1 << 32) - 1)


@given(st.lists(st.tuples(addresses, st.integers(min_value=0, max_value=32)),
                min_size=1, max_size=30), addresses)
def test_lpm_matches_linear_scan(route_specs, probe):
    """The trie must agree with a brute-force longest-match scan."""
    fib = Fib()
    table = {}
    for value, length in route_specs:
        prefix = IPv4Prefix.containing(value, length)
        table[prefix] = str(prefix)
        fib.add(prefix, str(prefix))

    expected = None
    for prefix in table:
        if prefix.contains(IPv4Address(probe)):
            if expected is None or prefix.length > expected.length:
                expected = prefix
    if expected is None:
        with pytest.raises(NoRouteError):
            fib.lookup(probe)
    else:
        assert fib.lookup(probe).interface == str(expected)


@given(st.lists(st.tuples(addresses, st.integers(min_value=0, max_value=32)),
                min_size=1, max_size=20))
def test_inserted_prefixes_are_found_exactly(route_specs):
    fib = Fib()
    expected = set()
    for value, length in route_specs:
        prefix = IPv4Prefix.containing(value, length)
        expected.add(prefix)
        fib.add(prefix, "tag")
    assert {entry.prefix for entry in fib.entries()} == expected
    assert len(fib) == len(expected)


# --------------------------------------------------------------------- #
# Regressions: lookup's explicit default, removal pruning, memory growth
# --------------------------------------------------------------------- #

def test_lookup_explicit_none_default_returns_none():
    """default=None must mean "return None", not "raise" (sentinel fix)."""
    fib = make_fib(("10.0.0.0/8", "ten"))
    assert fib.lookup("11.0.0.1", default=None) is None
    assert fib.lookup("10.0.0.1", default=None).interface == "ten"


def test_remove_prunes_empty_branches():
    fib = Fib()
    assert len(fib) == 0 and fib.entries() == []
    fib.add("10.1.2.0/24", "a")
    assert len(fib) == 1 and fib._probes
    fib.remove("10.1.2.0/24")
    # Nothing of the route is left: no entry, no length to probe.
    assert len(fib) == 0 and fib.entries() == [] and fib._probes == ()
    assert fib.lookup("10.1.2.3", default=None) is None


def test_remove_keeps_shared_branch_alive():
    fib = make_fib(("10.0.0.0/8", "coarse"), ("10.1.0.0/16", "fine"))
    fib.remove("10.1.0.0/16")
    # The covering /8 survives; only the /16 is gone.
    assert [str(entry.prefix) for entry in fib.entries()] == ["10.0.0.0/8"]
    assert fib.lookup("10.1.2.3").interface == "coarse"
    fib.add("10.1.0.0/16", "again")
    assert fib.lookup("10.1.2.3").interface == "again"


def test_remove_prunes_only_up_to_branching_point():
    fib = make_fib(("10.1.0.0/16", "left"), ("10.1.128.0/17", "deep"))
    fib.remove("10.1.128.0/17")
    assert fib.lookup("10.1.128.1").interface == "left"
    assert [str(entry.prefix) for entry in fib.entries()] == ["10.1.0.0/16"]


def test_install_expire_churn_is_constant_memory():
    """N install->remove cycles of disjoint prefixes: O(live), not O(N) --
    from empty, and against a resident working set."""
    for resident in (0, 128):
        fib = Fib()
        for i in range(resident):
            fib.add(IPv4Prefix.containing((i << 8) + (101 << 24), 24), "keep")
        settled = fib.entries()
        for i in range(1024):
            prefix = IPv4Prefix.containing((i << 8) + (100 << 24), 24)
            fib.add(prefix, "tag")
            assert fib.remove(prefix) is not None
        assert len(fib) == resident
        assert fib.entries() == settled
        # ... and the churned prefixes left no table or probe behind.
        tables = [table for _mask, table, _length in fib._probes]
        assert sum(map(len, tables)) == resident and all(tables)
        assert len(tables) == (1 if resident else 0)


@given(st.lists(st.tuples(addresses, st.integers(min_value=0, max_value=32)),
                min_size=1, max_size=20))
def test_remove_all_returns_to_root_only(route_specs):
    fib = Fib()
    prefixes = set()
    for value, length in route_specs:
        prefix = IPv4Prefix.containing(value, length)
        prefixes.add(prefix)
        fib.add(prefix, "tag")
    for prefix in prefixes:
        assert fib.remove(prefix) is not None
    assert len(fib) == 0 and fib.entries() == []
    assert fib._probes == ()
    for prefix in prefixes:
        assert fib.lookup(prefix.network, default=None) is None
