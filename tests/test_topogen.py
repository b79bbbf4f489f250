"""Tests for topology families: TopologySpec, tiered generation, addressing."""

import pytest

from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.net.routing import HierarchicalRoutingPlan, RoutingPlan
from repro.net import topogen
from repro.net.topogen import IX_PREFIX, MAX_PROVIDERS, TopologySpec, build
from repro.sim import Simulator


def _fib_snapshot(router):
    return [(str(entry.prefix), entry.interface.name,
             getattr(entry.next_hop, "name", None), entry.metric)
            for entry in router.fib.entries()]


def _world_snapshot(topology):
    return [(node.name, _fib_snapshot(node)) for node in topology.all_nodes()]


def _tiered(seed=11, **spec_kwargs):
    sim = Simulator(seed=seed, tracing=False)
    spec_kwargs.setdefault("family", "tiered")
    spec_kwargs.setdefault("num_sites", 10)
    return build(sim, TopologySpec(**spec_kwargs))


# --------------------------------------------------------------------- #
# TopologySpec
# --------------------------------------------------------------------- #

def test_spec_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown topology family"):
        TopologySpec(family="ring")


def test_spec_family_defaults_for_attach_bias():
    assert TopologySpec(family="tiered").effective_bias() == 0.0
    assert TopologySpec(family="caida").effective_bias() == 1.2


def test_flat_family_has_no_tier_structure():
    sim = Simulator(seed=3, tracing=False)
    topology = build(sim, TopologySpec(family="flat", num_sites=3))
    assert topology.tier_layout is None
    assert topology.ix_routers == []
    assert isinstance(topology.routing_plan(), RoutingPlan)


# --------------------------------------------------------------------- #
# Tiered structure
# --------------------------------------------------------------------- #

def test_tiers_partition_the_providers():
    topology = _tiered()
    layout = topology.tier_layout
    assert len(layout.tiers) == 3
    flattened = [pid for tier in layout.tiers for pid in tier]
    assert sorted(flattened) == list(range(len(topology.providers)))
    assert len(set(flattened)) == len(flattened)


def test_tier0_is_a_full_clique():
    topology = _tiered()
    core = [topology.providers[pid] for pid in topology.tier_layout.tiers[0]]
    for a in core:
        peers = {iface.peer.node
                 for iface in a.interfaces.values() if iface.peer is not None}
        for b in core:
            if b is not a:
                assert b in peers, f"{a.name} not adjacent to {b.name}"


def test_every_transit_provider_multihomes_upward():
    topology = _tiered()
    layout = topology.tier_layout
    for tier_index in (1, 2):
        parent_tier = set(layout.tiers[tier_index - 1])
        for pid in layout.tiers[tier_index]:
            uplinks = layout.uplinks[pid]
            assert 1 <= len(uplinks) <= 2
            for uplink in uplinks:
                assert uplink.parent_id in parent_tier
                assert uplink.up_iface.node is topology.providers[pid]
                assert (uplink.down_iface.node
                        is topology.providers[uplink.parent_id])


def test_ix_routers_connect_transit_members():
    topology = _tiered()
    layout = topology.tier_layout
    transit = set(layout.tiers[1]) | set(layout.tiers[2])
    assert len(layout.ixps) >= 1
    assert len(topology.ix_routers) == len(layout.ixps)
    for ixp in layout.ixps:
        assert len(ixp.members) >= 2
        member_ids = [m.provider_id for m in ixp.members]
        assert len(set(member_ids)) == len(member_ids)
        for member in ixp.members:
            assert member.provider_id in transit
            assert member.ix_iface.node is ixp.router
            assert (member.provider_iface.node
                    is topology.providers[member.provider_id])


def test_stub_sites_multihome_to_the_edge():
    topology = _tiered(num_sites=12, providers_per_site=2)
    transit = (set(topology.tier_layout.tiers[1])
               | set(topology.tier_layout.tiers[2]))
    for site in topology.sites:
        assert len(site.provider_ids) == 2
        assert len(set(site.provider_ids)) == 2
        assert set(site.provider_ids) <= transit  # never homed on the core


def test_ix_homed_sites_pick_providers_from_one_exchange(monkeypatch):
    monkeypatch.setattr(topogen, "IX_SITE_FRACTION", 1.0)
    topology = _tiered(num_sites=40)
    memberships = [{m.provider_id for m in ixp.members}
                   for ixp in topology.tier_layout.ixps]
    for site in topology.sites:
        assert any(set(site.provider_ids) <= members
                   for members in memberships), \
            f"{site.name} providers {site.provider_ids} span exchanges"


@pytest.mark.parametrize("num_sites, tiers", (
    (10, (2, 3, 4)), (1000, (6, 17, 40)), (10 ** 6, (8, 24, 160))))
def test_tier_sizes_derive_from_the_site_count(num_sites, tiers):
    spec = TopologySpec(family="tiered", num_sites=num_sites,
                        providers_per_site=2)
    assert topogen._tier_sizes(spec) == tiers
    # Even the largest tiers leave the address plan room to spare.
    assert sum(tiers) <= 8 + 24 + 160 < MAX_PROVIDERS


# --------------------------------------------------------------------- #
# Addressing and routing
# --------------------------------------------------------------------- #

def test_address_plan_extension():
    topology = _tiered()
    for p, provider in enumerate(topology.providers):
        assert provider.is_local(IPv4Address(f"{10 + p}.0.0.1"))
    for i, ix_router in enumerate(topology.ix_routers):
        address = ix_router.primary_address()
        assert IX_PREFIX.contains(address)
        assert address == IX_PREFIX.address_at(i * 256 + 1)
    # IX addresses are switching-fabric only: nothing routes toward 9/8.
    for node in topology.all_nodes():
        for entry in node.fib.entries():
            assert not str(entry.prefix).startswith("9.")


def test_tiered_routing_is_hierarchical_and_complete():
    topology = _tiered()
    plan = topology.routing_plan()
    assert isinstance(plan, HierarchicalRoutingPlan)
    for a in topology.providers:
        for b in topology.providers:
            delay = plan.delay(a, b)
            assert delay is not None, f"{a.name} cannot reach {b.name}"
            assert (delay == 0.0) == (a is b)
    assert topology.provider_mesh_delay(topology.providers[0],
                                        topology.providers[-1]) > 0.0


def test_site_index_lookups():
    topology = _tiered(num_sites=12)
    for site in topology.sites:
        assert topology.site_of_eid(site.eid_prefix.address_at(10)) is site
        for rloc in site.rlocs():
            assert topology.site_of_rloc(rloc) is site
    assert topology.site_of_eid(IPv4Address("8.8.8.8")) is None
    assert topology.site_of_rloc(IPv4Address("8.8.8.8")) is None


def test_incremental_install_on_tiered_world():
    """attach_infra_host + install delta keeps the memoized plan."""
    topology = _tiered()
    plan = topology.routing_plan()
    topology.attach_infra_host(0, "extra", "203.0.200.9")
    topology.install_global_routes()
    assert topology.routing_plan() is plan  # attachments don't touch the mesh
    host = topology.infra_hosts["extra"]
    prefix = IPv4Prefix(int(host.address), 32)
    # Every core router carries the /32 (the default-free zone holds all
    # non-aggregatable prefixes), so any stub can reach it via defaults.
    core = [topology.providers[pid] for pid in topology.tier_layout.tiers[0]]
    for router in core:
        assert any(e.prefix == prefix for e in router.fib.entries()), \
            f"core router {router.name} misses the infra /32"


# --------------------------------------------------------------------- #
# Determinism and the caida skew
# --------------------------------------------------------------------- #

def test_tiered_build_is_deterministic():
    assert (_world_snapshot(_tiered(seed=23))
            == _world_snapshot(_tiered(seed=23)))
    assert (_world_snapshot(_tiered(seed=23))
            != _world_snapshot(_tiered(seed=24)))


def test_caida_skews_stub_attachment():
    """Megaproviders attract a larger share of customers under caida."""
    def degree_spread(family):
        sim = Simulator(seed=31, tracing=False)
        topology = build(sim, TopologySpec(family=family, num_sites=60))
        counts = {}
        for site in topology.sites:
            for pid in site.provider_ids:
                counts[pid] = counts.get(pid, 0) + 1
        values = sorted(counts.values(), reverse=True)
        return max(values) / (sum(values) / len(values))

    assert degree_spread("caida") > degree_spread("tiered")
