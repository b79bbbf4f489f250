"""Integration tests: xTR forwarding over the topology with miss policies."""

import pytest

from repro.lisp.control.base import MappingSystem
from repro.lisp.deploy import deploy_lisp
from repro.lisp.policies import MAX_QUEUE, CpDataPolicy, DropPolicy, QueuePolicy
from repro.net.addresses import IPv4Address
from repro.net.packet import udp_packet
from repro.net.topogen import TopologySpec, build
from repro.sim import Simulator


class InstantMappingSystem(MappingSystem):
    """Resolves from the registry after a fixed delay (for testing)."""

    name = "instant"

    def __init__(self, sim, delay=0.02):
        super().__init__(sim)
        self.delay = delay

    def resolve(self, xtr, eid):
        resolution = self.sim.event()

        def answer():
            mapping = self.registry.lookup(eid)
            self.stats.record_resolution(0.0, ok=mapping is not None)
            resolution.succeed(mapping)

        self.sim.call_in(self.delay, answer)
        return resolution


class CrashingMappingSystem(InstantMappingSystem):
    """Its resolutions fail with an exception (not a None) after *delay*."""

    def resolve(self, xtr, eid):
        resolution = self.sim.event()
        self.sim.call_in(self.delay, resolution.fail,
                         RuntimeError(f"mapping system crashed on {eid}"))
        return resolution


def make_lisp_world(miss_policy_cls=DropPolicy, resolve_delay=0.02, seed=21,
                    num_sites=2, gleaning=True, system_cls=InstantMappingSystem):
    sim = Simulator(seed=seed)
    topology = build(sim, TopologySpec(num_sites=num_sites, num_providers=4))
    system = system_cls(sim, delay=resolve_delay)
    policy = miss_policy_cls(sim)
    xtrs = deploy_lisp(sim, topology, system, policy, gleaning=gleaning)
    return sim, topology, system, policy, xtrs


def deliveries(sim, node, port=7000):
    sink = []
    node.bind_udp(port, lambda packet, _node: sink.append((sim.now, packet)))
    return sink


def test_first_packet_dropped_on_miss_with_drop_policy():
    sim, topology, system, policy, xtrs = make_lisp_world(DropPolicy)
    src = topology.sites[0].hosts[0]
    dst = topology.sites[1].hosts[0]
    sink = deliveries(sim, dst)
    src.send(udp_packet(src.address, dst.address, 1, 7000))
    sim.run()
    assert sink == []
    assert policy.stats.dropped == 1


def test_subsequent_packet_encapsulated_after_resolution():
    sim, topology, system, policy, xtrs = make_lisp_world(DropPolicy, resolve_delay=0.02)
    src = topology.sites[0].hosts[0]
    dst = topology.sites[1].hosts[0]
    sink = deliveries(sim, dst)
    src.send(udp_packet(src.address, dst.address, 1, 7000))
    sim.call_in(0.1, lambda: src.send(udp_packet(src.address, dst.address, 1, 7000)))
    sim.run()
    assert len(sink) == 1
    itr = xtrs[0][0]
    assert itr.map_cache.hits == 1
    assert itr.encapsulated == 1


def test_a_failed_resolution_raises_out_of_run_and_frees_its_site_prefix():
    """An exception from the mapping system is the run's, not swallowed:
    each packet's miss starts a resolution of its own, and none of them
    leaves the site prefix marked in flight."""
    sim, topology, system, policy, xtrs = make_lisp_world(
        DropPolicy, resolve_delay=0.01, system_cls=CrashingMappingSystem)
    src = topology.sites[0].hosts[0]
    dst = topology.sites[1].hosts[0]
    for when in (0.0, 1.0, 2.0):
        sim.call_in(when, lambda: src.send(udp_packet(src.address, dst.address, 1, 7000)))
    itr = xtrs[0][0]
    for failures in (1, 2, 3):
        with pytest.raises(RuntimeError, match="mapping system crashed"):
            sim.run()
        assert failures - 1 + 0.01 < sim.now < failures - 1 + 0.02
        assert itr.resolutions_started == itr.resolutions_failed == failures
        assert not itr._pending
    sim.run()
    assert sim.pending_foreground == 0 and policy.stats.dropped == 3


def test_queue_policy_holds_then_flushes():
    sim, topology, system, policy, xtrs = make_lisp_world(QueuePolicy, resolve_delay=0.05)
    src = topology.sites[0].hosts[0]
    dst = topology.sites[1].hosts[0]
    sink = deliveries(sim, dst)
    for i in range(3):
        sim.call_in(0.001 * i, lambda: src.send(udp_packet(src.address, dst.address, 1, 7000)))
    sim.run()
    assert len(sink) == 3
    assert policy.stats.queued == 3
    assert policy.stats.flushed == 3
    assert sink[0][0] > 0.05  # held until resolution completed
    assert all(delay >= 0.04 for delay in policy.stats.queue_delays)


def test_queue_policy_overflow_drops():
    sim, topology, system, policy, xtrs = make_lisp_world(QueuePolicy, resolve_delay=0.05)
    src = topology.sites[0].hosts[0]
    dst = topology.sites[1].hosts[0]
    sink = deliveries(sim, dst)
    for _ in range(MAX_QUEUE + 3):
        src.send(udp_packet(src.address, dst.address, 1, 7000))
    sim.run()
    assert len(sink) == MAX_QUEUE
    assert policy.stats.queue_overflow == 3


def test_cp_data_policy_refused_by_default_system():
    sim, topology, system, policy, xtrs = make_lisp_world(CpDataPolicy)
    src = topology.sites[0].hosts[0]
    dst = topology.sites[1].hosts[0]
    sink = deliveries(sim, dst)
    src.send(udp_packet(src.address, dst.address, 1, 7000))
    sim.run()
    # Base mapping system refuses data carriage -> packet dropped.
    assert sink == []
    assert policy.stats.dropped == 1


def test_local_traffic_not_encapsulated():
    sim, topology, system, policy, xtrs = make_lisp_world()
    site = topology.sites[0]
    src, dst = site.hosts[0], site.hosts[1]
    sink = deliveries(sim, dst)
    src.send(udp_packet(src.address, dst.address, 1, 7000))
    sim.run()
    assert len(sink) == 1
    assert xtrs[0][0].encapsulated == 0
    assert policy.stats.dropped == 0


def test_decap_and_forward_into_site():
    sim, topology, system, policy, xtrs = make_lisp_world(QueuePolicy, resolve_delay=0.01)
    src = topology.sites[0].hosts[0]
    dst = topology.sites[1].hosts[0]
    sink = deliveries(sim, dst)
    src.send(udp_packet(src.address, dst.address, 1, 7000))
    sim.run()
    assert len(sink) == 1
    etr = next(x for x in xtrs[1] if x.decapsulated)
    assert etr.decapsulated == 1
    # The packet reached the destination EID unencapsulated (inner only).
    _when, packet = sink[0]
    assert packet.inner is None
    assert packet.ip.dst == dst.address


def test_gleaning_learns_reverse_mapping():
    sim, topology, system, policy, xtrs = make_lisp_world(QueuePolicy, resolve_delay=0.01)
    src = topology.sites[0].hosts[0]
    dst = topology.sites[1].hosts[0]
    deliveries(sim, dst)
    src.send(udp_packet(src.address, dst.address, 1, 7000))
    sim.run()
    etr = next(x for x in xtrs[1] if x.decapsulated)
    gleaned = etr.map_cache.peek(src.address)
    assert gleaned is not None
    itr_rloc = topology.sites[0].rloc_of(0)
    assert gleaned.rlocs[0].address == itr_rloc
    assert gleaned.eid_prefix.length == 32


def test_gleaned_mapping_enables_reverse_traffic_without_resolution():
    sim, topology, system, policy, xtrs = make_lisp_world(QueuePolicy, resolve_delay=0.01)
    site_s, site_d = topology.sites
    src, dst = site_s.hosts[0], site_d.hosts[0]
    deliveries(sim, dst, port=7000)  # forward-path handler (side effect)
    reverse_sink = deliveries(sim, src, port=7001)
    src.send(udp_packet(src.address, dst.address, 1, 7000))
    sim.run()
    resolutions_before = system.stats.resolutions
    dst.send(udp_packet(dst.address, src.address, 7000, 7001))
    sim.run()
    assert len(reverse_sink) == 1
    # Reverse direction answered from the gleaned entry: no new resolution.
    assert system.stats.resolutions == resolutions_before


def test_no_gleaning_mode():
    sim, topology, system, policy, xtrs = make_lisp_world(QueuePolicy, resolve_delay=0.01,
                                                          gleaning=False)
    src = topology.sites[0].hosts[0]
    dst = topology.sites[1].hosts[0]
    deliveries(sim, dst)
    src.send(udp_packet(src.address, dst.address, 1, 7000))
    sim.run()
    etr = next(x for x in xtrs[1] if x.decapsulated)
    assert etr.map_cache.peek(src.address) is None


def test_one_resolution_per_prefix():
    sim, topology, system, policy, xtrs = make_lisp_world(DropPolicy, resolve_delay=0.05)
    src = topology.sites[0].hosts[0]
    dst_site = topology.sites[1]
    for i in range(2):
        src.send(udp_packet(src.address, dst_site.hosts[i].address, 1, 7000))
    sim.run()
    itr = xtrs[0][0]
    assert itr.resolutions_started == 1  # both EIDs share the /24


def test_cache_ttl_override_expires_entries():
    sim, topology, system, policy, xtrs = make_lisp_world(DropPolicy, resolve_delay=0.01)
    itr = xtrs[0][0]
    itr.map_cache.ttl_override = 0.5
    src = topology.sites[0].hosts[0]
    dst = topology.sites[1].hosts[0]
    deliveries(sim, dst)  # delivery handler registers by side effect
    src.send(udp_packet(src.address, dst.address, 1, 7000))
    sim.run()
    sim.call_in(1.0, lambda: src.send(udp_packet(src.address, dst.address, 1, 7000)))
    sim.run()
    # Entry aged out: the second packet misses again and is dropped.
    assert policy.stats.dropped == 2
    assert itr.map_cache.expirations >= 1


def test_first_packet_flag_per_flow():
    sim, topology, system, policy, xtrs = make_lisp_world(QueuePolicy, resolve_delay=0.01)
    src = topology.sites[0].hosts[0]
    dst = topology.sites[1].hosts[0]
    deliveries(sim, dst)
    flags = []
    for xtr in xtrs[1]:
        xtr.decap_listeners.append(
            lambda _xtr, inner, outer, first: flags.append(first))
    src.send(udp_packet(src.address, dst.address, 1, 7000))
    sim.run()
    sim.call_in(0.1, lambda: src.send(udp_packet(src.address, dst.address, 1, 7000)))
    sim.run()
    assert flags == [True, False]


# --------------------------------------------------------------------- #
# Regression: in-flight resolution dedup keys on the covering site prefix
# (not a hardcoded /24 guess).
# --------------------------------------------------------------------- #

def _register(system, prefix, rloc="12.1.1.1"):
    from repro.lisp.mappings import MappingRecord, RlocEntry

    system.registry.register(MappingRecord(prefix, (RlocEntry(rloc),), ttl=60.0))


def test_resolution_dedup_coarse_site_prefix():
    """One site announcing a /16: EIDs in different /24s share one resolution."""
    sim, topology, system, policy, xtrs = make_lisp_world(DropPolicy, resolve_delay=0.5)
    itr = xtrs[0][0]
    _register(system, "100.200.0.0/16")
    itr._maybe_resolve(IPv4Address("100.200.1.9"))
    itr._maybe_resolve(IPv4Address("100.200.2.9"))  # same /16, different /24
    assert itr.resolutions_started == 1


def test_resolution_dedup_finer_site_prefixes():
    """Two /26 sites inside one /24: each needs its own resolution."""
    sim, topology, system, policy, xtrs = make_lisp_world(DropPolicy, resolve_delay=0.5)
    itr = xtrs[0][0]
    _register(system, "100.200.1.0/26", rloc="12.1.1.1")
    _register(system, "100.200.1.64/26", rloc="13.1.1.1")
    itr._maybe_resolve(IPv4Address("100.200.1.9"))    # first /26
    itr._maybe_resolve(IPv4Address("100.200.1.70"))   # second /26, same /24
    assert itr.resolutions_started == 2


def test_resolution_dedup_unregistered_eids_do_not_mask_each_other():
    sim, topology, system, policy, xtrs = make_lisp_world(DropPolicy, resolve_delay=0.5)
    itr = xtrs[0][0]
    itr._maybe_resolve(IPv4Address("100.250.1.1"))
    itr._maybe_resolve(IPv4Address("100.250.1.2"))  # same /24, both unknown
    assert itr.resolutions_started == 2
    # But re-asking for the same unknown EID stays deduped.
    itr._maybe_resolve(IPv4Address("100.250.1.1"))
    assert itr.resolutions_started == 2


def test_resolution_dedup_clears_after_completion():
    sim, topology, system, policy, xtrs = make_lisp_world(DropPolicy, resolve_delay=0.01)
    itr = xtrs[0][0]
    _register(system, "100.200.0.0/16")
    itr._maybe_resolve(IPv4Address("100.200.1.9"))
    sim.run()
    assert itr.resolutions_started == 1
    assert itr._pending == {}
    assert itr.map_cache.peek("100.200.5.5") is not None  # /16 covers it
