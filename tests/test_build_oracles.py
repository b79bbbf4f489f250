"""World-build shortcuts against the eager constructions they replace.

A world computes only what it uses: ALT next hops toward an origin on the
first forward toward it, each provider's mean WAN delay once per plan, and
transmit queues only on rated links.  Each test here keeps the old eager
construction as a reference and asserts the shortcut answers exactly what
it answered, plus count guards (no timing) that the work stays gone.
"""

import math
from collections import deque

import pytest

from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.experiments.worldbuild import build_world
from repro.net.fib import Fib, FibEntry
from repro.net.routing import RoutingPlan
from repro.net.topogen import FAMILIES

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
# IRC: the plan's per-provider WAN mean vs the per-call loop
# --------------------------------------------------------------------- #


def _reference_path_delay(engine, b):
    """Access delay plus the mean delay to every other reachable provider,
    recomputed by walking the plan on every call."""
    site, topology = engine.site, engine.topology
    access = site.access_delays[b]
    provider = topology.providers[site.provider_ids[b]]
    plan = topology.routing_plan
    mesh_delays = []
    for other in topology.providers:
        if other is provider:
            continue
        delay = plan.delay(provider, other)
        if delay is not None:
            mesh_delays.append(delay)
    wan = math.fsum(mesh_delays) / len(mesh_delays) if mesh_delays else 0.0
    return access + wan


@pytest.mark.parametrize("topology", FAMILIES)
def test_irc_path_delay_equals_the_per_call_loop(topology):
    scenario = build_scenario(ScenarioConfig(
        control_plane="pce", topology=topology, num_sites=12,
        num_providers=8, tracing=False))
    ircs = scenario.control_plane.ircs.values()
    assert ircs
    for engine in ircs:
        for b in range(len(engine.site.xtrs)):
            assert engine._path_delay_estimate(b) == \
                _reference_path_delay(engine, b)


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
    delays = _counting(monkeypatch, RoutingPlan, "delay")
    scenario = build_scenario(ScenarioConfig(
        control_plane="pce", topology="tiered", num_sites=200,
        tracing=False))
    providers = len(scenario.topology.providers)
    assert 0 < delays[0] <= providers * (providers - 1), (delays[0], providers)


def test_only_rated_links_have_a_transmit_queue():
    scenario = build_scenario(ScenarioConfig(
        control_plane="pce", num_sites=4, access_rate_bps=10e6,
        tracing=False))
    rated = [link for link in scenario.links if link.rate_bps is not None]
    rateless = [link for link in scenario.links if link.rate_bps is None]
    assert rated and rateless
    assert all(link._queue is None for link in rateless)
    assert all(isinstance(link._queue, deque) for link in rated)
