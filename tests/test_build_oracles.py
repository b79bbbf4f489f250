"""World-build shortcuts against the eager constructions they replace.

A world computes only what it uses: ALT next hops toward an origin on the
first forward toward it and transmit queues only on rated links.  Each
test here keeps the old eager construction as a reference and asserts the
shortcut answers exactly what it answered, plus count guards (no timing)
that the work stays gone.
"""

import hashlib
import json
import pathlib
from collections import deque

import pytest

from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.experiments.worldbuild import build_world
from repro.net.fib import Fib, FibEntry
from repro.net.routing import RoutingPlan

# --------------------------------------------------------------------- #
# ALT: on-demand next hops vs the all-pairs RIBs
# --------------------------------------------------------------------- #


def _reference_overlay(order):
    """The ALT overlay as ``{site index: set of neighbour indices}``: a
    ring over *order* with chord shortcuts above three sites."""
    n = len(order)
    stride = max(2, int(n ** 0.5))
    adjacency = {site.index: set() for site in order}
    for position, site in enumerate(order):
        successor = order[(position + 1) % n]
        if successor.index != site.index:
            adjacency[site.index].add(successor.index)
            adjacency[successor.index].add(site.index)
        if n > 3:
            chord = order[(position + stride) % n]
            if chord.index != site.index:
                adjacency[site.index].add(chord.index)
                adjacency[chord.index].add(site.index)
    return adjacency


def _reference_parents(adjacency, origin):
    toward = {}
    visited = {origin}
    frontier = deque([origin])
    while frontier:
        current = frontier.popleft()
        for neighbour in sorted(adjacency[current]):
            if neighbour not in visited:
                visited.add(neighbour)
                toward[neighbour] = current
                frontier.append(neighbour)
    return toward


def _reference_ribs(system, adjacency):
    """Every ALT router's materialised RIB: ``{router name: Fib}`` of each
    origin's EID prefix -> the next hop's control address, in site order."""
    order = sorted(system.sites, key=lambda site: site.index)
    ribs = {site.index: Fib() for site in order}
    for origin in order:
        parents = _reference_parents(adjacency, origin.index)
        for index, rib in ribs.items():
            next_index = parents.get(index)
            if next_index is not None:
                rib.insert(FibEntry(origin.eid_prefix,
                                    system._alt_address[next_index]))
    return {system._alt_nodes[index].name: (index, rib)
            for index, rib in ribs.items()}


def _assert_matches_reference(system, adjacency):
    ribs = _reference_ribs(system, adjacency)
    for index, rib in ribs.values():
        for site in system.sites:
            eid = site.eid_prefix.network
            entry = rib.lookup(eid, default=None)
            expected = entry.interface if entry is not None else None
            assert system._next_hop(index, eid) == expected, (index, site.index)
    assert list(system.state_entries_per_router().items()) == \
        [(name, len(rib)) for name, (_index, rib) in ribs.items()]


def _alt_system(topology, sites):
    scenario = build_scenario(ScenarioConfig(
        control_plane="alt", topology=topology, num_sites=sites,
        tracing=False))
    return scenario.mapping_system


@pytest.mark.parametrize("sites", (2, 3, 4, 7, 12, 30))
@pytest.mark.parametrize("topology", ("flat", "tiered"))
def test_alt_next_hops_equal_the_all_pairs_ribs(topology, sites):
    system = _alt_system(topology, sites)
    adjacency = _reference_overlay(
        sorted(system.sites, key=lambda site: site.index))
    assert system._adjacency == {index: tuple(sorted(neighbours))
                                 for index, neighbours in adjacency.items()}
    _assert_matches_reference(system, adjacency)


def test_alt_counts_follow_a_split_overlay():
    """Counts come from the overlay's components, not from a ring: cut a
    12-site overlay into two halves and both sides agree again."""
    system = _alt_system("flat", 12)
    order = sorted(site.index for site in system.sites)
    half = set(order[:5])
    adjacency = {index: {other for other in neighbours
                         if (other in half) == (index in half)}
                 for index, neighbours in _reference_overlay(
                     sorted(system.sites, key=lambda site: site.index)).items()}
    system._adjacency = {index: tuple(sorted(neighbours))
                         for index, neighbours in adjacency.items()}
    system._toward = {}
    _assert_matches_reference(system, adjacency)
    assert sorted(set(system.state_entries_per_router().values())) == [4, 6]


# --------------------------------------------------------------------- #
# Count guards: the work stays gone
# --------------------------------------------------------------------- #


def _counting(monkeypatch, cls, name):
    calls = [0]
    original = getattr(cls, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_alt_build_inserts_grow_with_sites_not_their_square(monkeypatch):
    """All-pairs ALT RIBs made Fib inserts grow ~3x per doubling of the
    sites (2 822 at 40 flat sites, 8 822 at 80); without them the growth
    is linear (1 302 and 2 582)."""
    inserts = _counting(monkeypatch, Fib, "insert")
    counts = []
    for sites in (40, 80):
        inserts[0] = 0
        build_world(ScenarioConfig(control_plane="alt", num_sites=sites,
                                   tracing=False))
        counts.append(inserts[0])
    assert counts[1] <= 2.1 * counts[0], counts


def test_pce_build_queries_each_provider_pair_at_most_once(monkeypatch):
    """The IRC engine picks locators from its pledges, so a PCE build asks
    the plan for no ``delay()`` at all, however many providers it has."""
    delays = _counting(monkeypatch, RoutingPlan, "delay")
    build_scenario(ScenarioConfig(control_plane="pce", topology="tiered",
                                  num_sites=200, tracing=False))
    assert delays[0] == 0


def test_only_rated_links_have_a_transmit_queue():
    scenario = build_scenario(ScenarioConfig(
        control_plane="pce", num_sites=4, access_rate_bps=10e6,
        tracing=False))
    rated = [link for link in scenario.links if link.rate_bps is not None]
    rateless = [link for link in scenario.links if link.rate_bps is None]
    assert rated and rateless
    assert all(link._queue is None for link in rateless)
    assert all(isinstance(link._queue, deque) for link in rated)


# --------------------------------------------------------------------- #
# The address plan: integer arithmetic vs the string parse it replaced
# --------------------------------------------------------------------- #


def _parsed_prefix(text):
    from repro.net.addresses import IPv4Prefix
    return IPv4Prefix(text)


def _reference_eid_prefix(s):
    return _parsed_prefix(f"100.{s >> 8}.{s & 255}.0/24")


def _reference_infra_prefix(s):
    return _parsed_prefix(f"198.{18 + (s >> 8)}.{s & 255}.0/24")


def _reference_provider_prefix(p):
    return _parsed_prefix(f"{10 + p}.0.0.0/8")


def _reference_rloc(p, s, b):
    from repro.net.addresses import IPv4Address
    return IPv4Address(f"{10 + p}.{1 + (s >> 8)}.{s & 255}.{b + 1}")


def _outcome(function, *args):
    """``(value, None)`` or ``(None, error message)``: what a call gives."""
    from repro.net.errors import AddressError
    try:
        value = function(*args)
    except AddressError as error:
        return None, str(error)
    return (str(value), int(value.network if hasattr(value, "network")
                            else value)), None


def _assert_same_plan(function, reference, argument_lists):
    raised = 0
    for args in argument_lists:
        got, expected = _outcome(function, *args), _outcome(reference, *args)
        assert got == expected, (function.__name__, args)
        raised += expected[1] is not None
    return raised


def test_site_prefixes_equal_the_string_parse():
    from repro.net.topology import eid_prefix_for, infra_prefix_for
    indices = [(s,) for s in range(-300, 65536 + 300)]
    # Both plans run out where the string parse does: the EID plan past
    # site 65 535, the infrastructure plan past 60 927 (and below -4 608).
    assert _assert_same_plan(eid_prefix_for, _reference_eid_prefix,
                             indices) == 600
    assert _assert_same_plan(infra_prefix_for, _reference_infra_prefix,
                             indices) == 65836 - 60928 + 0
    assert _outcome(infra_prefix_for, 60927)[1] is None
    assert _outcome(infra_prefix_for, 60928)[1] is not None


def test_provider_prefixes_and_rlocs_equal_the_string_parse():
    from repro.net.topology import provider_prefix_for, rloc_for
    providers = range(-20, 300)
    assert _assert_same_plan(provider_prefix_for, _reference_provider_prefix,
                             [(p,) for p in providers]) == 10 + 54
    cases = ([(p, s, b) for p in providers for s in (0, 1, 300) for b in (0, 1)]
             + [(p, s, b) for p in (0, 3, 245) for s in range(-300, 65536 + 300, 7)
                for b in (0, 2)]
             + [(p, s, b) for p in (0, 245) for s in (0, 5000, 65535)
                for b in range(-5, 300)])
    assert _assert_same_plan(rloc_for, _reference_rloc, cases) > 0


def test_the_sizing_limits_are_where_the_plan_runs_out():
    """``check_sizing``'s site limits are the plan's last addresses: the
    last allowed site, host and xTR are addressable, one more is not."""
    from repro.net.errors import AddressError
    from repro.net.topogen import SITE_LIMITS
    from repro.net.topology import eid_prefix_for, infra_prefix_for, rloc_for
    limits = dict(SITE_LIMITS)
    derive = {
        "num_sites": lambda count: infra_prefix_for(count - 1),
        "hosts_per_site": lambda count: eid_prefix_for(0).address_at(9 + count),
        "providers_per_site": lambda count: (
            infra_prefix_for(0).address_at(29 + count),
            rloc_for(0, limits["num_sites"] - 1, count - 1)),
    }
    for name, last in limits.items():
        derive[name](last)
        with pytest.raises(AddressError):
            derive[name](last + 1)


# --------------------------------------------------------------------- #
# Structural world fingerprints, pinned in tests/golden
# --------------------------------------------------------------------- #

#: ``name -> ScenarioConfig fields`` of every fingerprinted world: each
#: family at two sizes (the larger with a third provider home, three
#: hosts, one extra DNS level and rated access links), on every plane.
FINGERPRINT_SIZES = {
    "flat": ({"num_sites": 6}, {"num_sites": 40, "num_providers": 8,
                                "providers_per_site": 3, "hosts_per_site": 3,
                                "dns_extra_levels": 1,
                                "access_rate_bps": 10e6}),
    "fig1": ({"num_providers": 4}, {"num_providers": 7, "hosts_per_site": 3,
                                    "dns_extra_levels": 1,
                                    "access_rate_bps": 10e6}),
    "tiered": ({"num_sites": 8}, {"num_sites": 60, "providers_per_site": 3,
                                  "hosts_per_site": 3, "dns_extra_levels": 1,
                                  "access_rate_bps": 10e6}),
    "caida": ({"num_sites": 8}, {"num_sites": 60, "providers_per_site": 3,
                                 "hosts_per_site": 3, "dns_extra_levels": 1,
                                 "access_rate_bps": 10e6}),
}
FINGERPRINT_PLANES = ("pce", "alt", "cons", "nerd", "plain")
FINGERPRINT_GOLDEN = (pathlib.Path(__file__).parent / "golden"
                      / "world_fingerprints.json")


def _fingerprint_configs():
    for family, sizes in FINGERPRINT_SIZES.items():
        for size, fields in enumerate(sizes):
            for plane in FINGERPRINT_PLANES:
                yield (f"{family}-{size}-{plane}",
                       ScenarioConfig(control_plane=plane, topology=family,
                                      tracing=False, **fields))


def _label(value):
    if value is None or isinstance(value, (int, float, str)):
        return repr(value)
    name = getattr(value, "name", None)
    if isinstance(name, str):
        return f"{type(value).__name__}:{name}"
    if type(value).__name__ in ("IPv4Address", "IPv4Prefix", "Site"):
        return f"{type(value).__name__}:{value}"
    return type(value).__name__


def _zone_lines(zone):
    lines = [f"zone {zone.origin}"]
    for (name, rtype), records in zone._records.items():
        for record in records:
            lines.append(f"  rr {name} {rtype} {record.ttl!r} {record.data}")
    for child, (authorities, additionals) in zone._delegations.items():
        for record in (*authorities, *additionals):
            lines.append(f"  delegation {child} {record.name} {record.rtype} "
                         f"{record.ttl!r} {record.data}")
    return lines


def _node_lines(node):
    lines = [f"node {type(node).__name__} {node.name} "
             f"extra={[str(a) for a in node.extra_addresses]} "
             f"local={list(node._local_values)} "
             f"primary={getattr(node, 'address', None)}"]
    for key, iface in node.interfaces.items():
        link = iface.link
        wire = ("unlinked" if link is None else
                f"{link.delay!r} {link.rate_bps!r} {link.dst_interface.name} "
                f"up={link.up} queue={link._queue is not None}")
        lines.append(f"  iface {key} {iface.address} {wire}")
    for entry in node.fib.entries():
        lines.append(f"  fib {entry.prefix} {_label(entry.interface)} "
                     f"{entry.next_hop} {entry.metric!r}")
    for name, service in node.services.items():
        lines.append(f"  service {name} {_label(service)}")
    lines.append(f"  udp {list(node._udp_ports)} proto "
                 f"{list(node._proto_handlers)} taps "
                 f"{[tap.__qualname__ for tap in node.forward_taps]}")
    for service in node.services.values():
        zone = getattr(service, "zone", None)
        if zone is not None:
            lines.extend(_zone_lines(zone))
    return lines


def world_fingerprint(scenario):
    """Every line of structure a build makes, one string."""
    topology, sim = scenario.topology, scenario.sim
    lines = []
    for node in topology.all_nodes():
        lines.extend(_node_lines(node))
    for prefix, provider, iface in topology.attachments:
        lines.append(f"attach {prefix} {provider.name} {_label(iface)}")
    for site in topology.sites:
        lines.append(f"site {site.index} {site.name} {site.eid_prefix} "
                     f"{site.infra_prefix} {site.dns_address} "
                     f"{site.pce_address} {site.provider_ids} "
                     f"{site.access_delays!r} "
                     f"{[str(site.rloc_of(b)) for b in range(len(site.xtrs))]}")
    for xtr in scenario.iter_xtrs():
        lines.append(f"map-cache {xtr.node.name} "
                     f"{[str(m) for _p, m in xtr.map_cache.entries()]}")
    lines.append(f"control {scenario.control_overhead()} "
                 f"{scenario.control_state()}")
    lines.append(f"sim {sim.now!r} {sim._sequence} {sim.processed_events} "
                 f"{len(sim._queue)}")
    for name, stream in sorted(sim.rng._streams.items()):
        lines.append(f"rng {name} {hashlib.sha256(repr(stream.getstate()).encode()).hexdigest()}")
    return "\n".join(lines)


def fingerprints():
    """``{world name: sha256 of its fingerprint}`` of every pinned world."""
    digests = {}
    for name, config in _fingerprint_configs():
        scenario = build_scenario(config)
        digests[name] = hashlib.sha256(
            world_fingerprint(scenario).encode()).hexdigest()
        scenario.teardown()
    return digests


def test_world_fingerprints_equal_the_pinned_builds():
    pinned = json.loads(FINGERPRINT_GOLDEN.read_text())
    assert fingerprints() == pinned


if __name__ == "__main__":
    # Re-pin: PYTHONPATH=src python tests/test_build_oracles.py
    FINGERPRINT_GOLDEN.write_text(json.dumps(fingerprints(), indent=1,
                                             sort_keys=True) + "\n")
