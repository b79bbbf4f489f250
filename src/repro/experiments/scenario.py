"""Scenario construction: one call builds a full world under a chosen CP.

``control_plane`` selects among:

- ``"pce"``   — the paper's PCE-based control plane;
- ``"alt"``   — LISP+ALT overlay, reactive resolution at ITRs;
- ``"cons"``  — CONS hierarchy, reactive;
- ``"nerd"``  — NERD pushed database;
- ``"plain"`` — no LISP at all: EIDs globally routable (today's Internet),
  the baseline of the paper's first latency formula.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from repro.core.control_plane import deploy_pce_control_plane
from repro.dns.hierarchy import install_dns
from repro.dns.records import check_ttl
from repro.dns.resolver import StubResolver
from repro.lisp.control import AltMappingSystem, ConsMappingSystem, NerdMappingSystem
from repro.lisp.deploy import deploy_lisp
from repro.lisp.policies import CpDataPolicy, DropPolicy, QueuePolicy
from repro.net.topogen import (FAMILIES, TopologySpec,
                               build as build_from_spec, check_sizing)
from repro.sim import Simulator
from repro.traffic.flows import FlowIdAllocator, FluidPump, TcpStack, UdpSink

#: Port every host's TCP responder listens on.
FLOW_TCP_PORT = 80
#: Port every host's UDP sink listens on.
FLOW_UDP_PORT = 9000

CONTROL_PLANES = ("pce", "alt", "cons", "nerd", "plain")
MISS_POLICIES = ("drop", "queue", "cp-data")


@dataclass
class ScenarioConfig:
    """Everything that defines a reproducible world."""

    control_plane: str = "pce"
    num_sites: int = 2
    num_providers: int = 4
    providers_per_site: int = 2
    hosts_per_site: int = 2
    seed: int = 1
    #: Disable for large sweeps: the tracer records nothing (big memory and
    #: time win on the per-packet hot path; experiments that read the trace
    #: must keep it on).
    tracing: bool = True
    # Reactive-baseline knobs
    miss_policy: str = "drop"
    gleaning: bool = True
    cache_ttl_override: float = None
    # Mapping / DNS lifetimes
    mapping_ttl: float = 60.0
    dns_host_ttl: float = 60.0
    dns_use_cache: bool = True
    dns_extra_levels: int = 0
    # PCE knobs
    irc_policy: str = "balance"
    precompute: bool = True
    computation_delay: float = 0.0005
    enable_probing: bool = False
    probe_period: float = 0.5
    #: Must stay below probe_period: overlapping probe rounds would keep
    #: foreground work alive across ticks and a full drain would never end.
    #: None derives ``min(0.3, 0.6 * probe_period)``, which preserves the
    #: historical 0.3s timeout at the default 0.5s period and scales down
    #: safely for faster probing.
    probe_timeout: float = None
    #: Transmission rate of the site access links in bits/second; ``None``
    #: keeps them infinite (zero serialisation delay) as the paper's
    #: latency formulas assume.  Shaped-traffic scenarios set a finite rate
    #: so link busy time — and therefore utilization — is real.
    access_rate_bps: Optional[float] = None
    #: Topology family name (``"fig1"``/``"flat"``/``"tiered"``/``"caida"``);
    #: the sizing fields above shape it (see :meth:`topology_spec`).
    topology: str = "flat"

    def __post_init__(self):
        if self.topology not in FAMILIES:
            raise ValueError(f"unknown topology family {self.topology!r}")
        check_sizing(self.topology_spec())
        check_ttl("dns_host_ttl", self.dns_host_ttl)
        # Lifetimes must be > 0, which NaN is not either: a bad grid then
        # fails at expansion with the field named, not inside a worker.
        lifetimes = {"mapping_ttl": self.mapping_ttl,
                     "probe_period": self.probe_period}
        if self.cache_ttl_override is not None:
            lifetimes["cache_ttl_override"] = self.cache_ttl_override
        for name, value in lifetimes.items():
            if not value > 0:
                raise ValueError(f"{name} must be > 0, got {value!r}")
        if self.probe_timeout is not None \
                and not 0 < self.probe_timeout < self.probe_period:
            raise ValueError(
                f"probe_timeout must lie in (0, probe_period="
                f"{self.probe_period!r}), got {self.probe_timeout!r}")

    def topology_spec(self, eids_globally_routable=False):
        """The :class:`~repro.net.topogen.TopologySpec` this config builds.

        The family plus the sizing fields (the ``fig1`` family builds its
        fixed two-site Fig. 1 cast whatever ``num_sites`` says).
        """
        return TopologySpec(family=self.topology, num_sites=self.num_sites,
                            num_providers=self.num_providers,
                            providers_per_site=self.providers_per_site,
                            hosts_per_site=self.hosts_per_site,
                            access_rate_bps=self.access_rate_bps,
                            eids_globally_routable=eids_globally_routable)


@dataclass
class Scenario:
    """A built world plus convenience accessors."""

    config: ScenarioConfig
    sim: Simulator
    topology: object
    dns: object
    control_plane: object = None      # PceControlPlane when config is "pce"
    mapping_system: object = None     # baseline mapping system otherwise
    miss_policy: object = None
    xtrs_by_site: dict = field(default_factory=dict)
    tcp_stacks: dict = field(default_factory=dict)
    udp_sinks: dict = field(default_factory=dict)
    stubs: dict = field(default_factory=dict)
    #: Per-world flow-id sequence; checkpointed so fresh and restored
    #: worlds label flows identically.
    flow_ids: FlowIdAllocator = field(default_factory=FlowIdAllocator)
    #: The world's one fluid pump (every fluid flow of a workload joins
    #: it); checkpointed idle, emptied on restore.
    fluid_pump: FluidPump = field(init=False)
    #: The world's first-touch :class:`~repro.sim.state.Journal` (armed by
    #: repro.experiments.worldbuild; None on a world built bare, which
    #: cannot be reset).
    world_checkpoint: object = None

    def __post_init__(self):
        self.fluid_pump = FluidPump(self.sim)

    def __getstate__(self):
        # Interfaces pickle without their link (the one edge that made
        # pickle's recursion as deep as the topology is wide), so the blob
        # carries the link table and __setstate__ re-attaches each link.
        return {**self.__dict__, "links": self.links}

    def __setstate__(self, state):
        self.__dict__.update(state)
        for link in self.links:
            link.src_interface.link = link

    @property
    def name(self):
        return self.config.control_plane

    def stub_for(self, host, site):
        key = host.name
        if key not in self.stubs:
            self.stubs[key] = StubResolver(self.sim, host, site.dns_address)
        return self.stubs[key]

    def host_name(self, site, host_index):
        return self.dns.host_name(site, host_index)

    def sink_for(self, site_index, host_index):
        return self.udp_sinks[(site_index, host_index)]

    def total_first_packet_drops(self):
        if self.miss_policy is None:
            return 0
        return self.miss_policy.stats.dropped

    def iter_xtrs(self):
        """Every xTR in the world, site by site."""
        for xtr_list in self.xtrs_by_site.values():
            yield from xtr_list

    def map_cache_lookups(self):
        """World-wide map-cache ``(hits, lookups)`` over every xTR."""
        caches = [xtr.map_cache for xtr in self.iter_xtrs()]
        hits = sum(cache.hits for cache in caches)
        return hits, hits + sum(cache.misses for cache in caches)

    def control_overhead(self):
        """Control-plane ``(messages, bytes)`` spent so far.

        The baseline mapping system's counters, the PCE control plane's
        push and interception totals, or zeros in a ``plain`` world.
        """
        if self.mapping_system is not None:
            stats = self.mapping_system.stats
            return stats.messages, stats.bytes
        if self.control_plane is not None:
            return (self.control_plane.total_control_messages(),
                    self.control_plane.total_push_bytes())
        return 0, 0

    def access_flow_byte_shares(self, site, direction="in"):
        """Per-provider share of flow-accounted *delivered* bytes (E4).

        Reads the per-flow byte accounting on *site*'s access links, so
        only data-plane traffic (packets carrying a flow id, however
        deeply encapsulated) participates — control-plane chatter no
        longer skews the TE balance figures the way raw ``tx_bytes`` does.
        """
        key = "downlink" if direction == "in" else "uplink"
        counts = [sum(account.delivered
                      for account in links[key].stats.flows.values())
                  for links in site.access_links]
        total = sum(counts)
        if total == 0:
            return [0.0] * len(counts)
        return [count / total for count in counts]

    def access_link_utilization(self, site, direction="in"):
        """Per-provider peak window utilization of *site*'s access links.

        Busy-time based, so it is 0.0 unless the scenario gives its access
        links a finite rate (``ScenarioConfig.access_rate_bps``).
        """
        key = "downlink" if direction == "in" else "uplink"
        return [links[key].stats.peak_utilization()
                for links in site.access_links]

    @cached_property
    def links(self):
        """The world's link table: every link, each exactly once.

        Links are construction-time wiring (interfaces are attached while
        the topology is built and never afterwards), so the topology is
        walked once per world, on first use, and the table travels in the
        world's pickle; :meth:`iter_links`, the checkpoint inventory and
        :meth:`byte_accounting` share the result.  Node by node, interface
        by interface, first-seen order.
        """
        table = {}
        for node in self.topology.all_nodes():
            for iface in node.interfaces.values():
                if iface.link is not None:
                    table[iface.link] = None
        return tuple(table)

    def iter_links(self):
        """A fresh iterator over :attr:`links`: every link, exactly once."""
        return iter(self.links)

    def byte_accounting(self, drained=False):
        """World-wide link byte totals plus the conservation verdict.

        Sums offered/delivered/dropped/in-flight and fluid bytes over the
        links and collects per-link conservation violations (see
        :meth:`~repro.net.link.LinkStats.conservation_violations`); with
        ``drained=True`` bytes still in flight count as violations too.

        A link whose ``stats.bytes_offered`` is zero is skipped: that is
        the stamp every ledger write follows (see "Sub-stamps" in
        ``docs/contracts.md``), so none of its ledgers, per-flow accounts
        or ``fluid_bytes`` has moved — it adds nothing and cannot breach
        conservation, drained or not.  The cost follows the links a run
        touched, not the world.
        """
        offered = delivered = dropped = fluid = 0
        violations = []
        for link in self.links:
            stats = link.stats
            if not stats.bytes_offered:
                continue        # the stamp: no ledger of this link moved
            offered += stats.bytes_offered
            delivered += stats.bytes_delivered
            dropped += stats.bytes_dropped
            fluid += stats.fluid_bytes
            for violation in stats.conservation_violations(drained=drained):
                violations.append((link.name, *violation))
        return {
            "bytes_offered": offered,
            "bytes_delivered": delivered,
            "bytes_dropped": dropped,
            "bytes_in_flight": offered - delivered - dropped,
            "fluid_bytes": fluid,
            "conserved": not violations,
            "violations": violations,
        }

    def stateful_components(self):
        """Every object holding run-mutable state: the checkpoint inventory.

        Anything a workload run can mutate must be reachable from here:
        ``snapshot_state()`` over this inventory *is* the world's state,
        which is what the restore-completeness tests compare, eagerly,
        against what the journal put back.  The worldbuild layer itself
        never walks it after arming: the random streams journal
        themselves, :meth:`singleton_components` are captured once and
        always restored, :meth:`journaled_components` on first touch.
        Per-host stub resolvers are not components: they are created
        lazily per run and dropped on restore (:attr:`stubs` is cleared).
        """
        yield self.sim.rng
        yield from self.singleton_components()
        yield from self.journaled_components()

    def singleton_components(self):
        """The components a world has one (or a handful) of.

        Most runs move every one of them, so they are captured when the
        journal is armed and restored on every reset — no first-touch
        bookkeeping on the engine's or the tracer's hot paths.
        """
        sim = self.sim
        yield sim
        yield sim.trace
        yield self.flow_ids
        yield self.fluid_pump
        dns = self.dns
        yield dns.root_server
        yield dns.tld_server
        yield from dns.level_servers
        if self.control_plane is not None:
            # Covers its PCEs, IRC engines, RLOC probers, registry and miss
            # policy — per-site members restored through this one entry.
            # The probe *timers* are periodic tasks living in engine
            # state, checkpointed with the simulator.
            yield self.control_plane
        if self.mapping_system is not None:
            yield self.mapping_system
            yield self.miss_policy

    def journaled_components(self):
        """The components a world has thousands of, few of which a run
        touches: each a :class:`~repro.sim.state.Journaled`."""
        yield from self.topology.all_nodes()
        yield from self.links
        yield from self.tcp_stacks.values()
        yield from self.udp_sinks.values()
        yield from self.iter_xtrs()
        yield from self.dns.resolvers.values()


def _make_miss_policy(sim, config):
    if config.miss_policy == "drop":
        return DropPolicy(sim)
    if config.miss_policy == "queue":
        return QueuePolicy(sim)
    if config.miss_policy == "cp-data":
        return CpDataPolicy(sim)
    raise ValueError(f"unknown miss policy {config.miss_policy!r}")


def build_scenario(config):
    """Build the world described by *config* and return a :class:`Scenario`."""
    if config.control_plane not in CONTROL_PLANES:
        raise ValueError(f"unknown control plane {config.control_plane!r}")
    sim = Simulator(seed=config.seed, tracing=config.tracing)
    spec = config.topology_spec(
        eids_globally_routable=(config.control_plane == "plain"))
    topology = build_from_spec(sim, spec)
    dns = install_dns(topology, host_ttl=config.dns_host_ttl,
                      extra_levels=config.dns_extra_levels,
                      use_cache=config.dns_use_cache)
    scenario = Scenario(config=config, sim=sim, topology=topology, dns=dns)

    if config.control_plane == "pce":
        scenario.control_plane = deploy_pce_control_plane(
            sim, topology, dns, irc_policy=config.irc_policy,
            precompute=config.precompute, computation_delay=config.computation_delay,
            mapping_ttl=config.mapping_ttl, enable_probing=config.enable_probing,
            probe_period=config.probe_period,
            probe_timeout=config.probe_timeout)
        scenario.miss_policy = scenario.control_plane.miss_policy
        scenario.xtrs_by_site = scenario.control_plane.xtrs_by_site
    elif config.control_plane != "plain":
        if config.control_plane == "alt":
            system = AltMappingSystem(sim)
        elif config.control_plane == "cons":
            system = ConsMappingSystem(sim, topology)
        else:
            system = NerdMappingSystem(sim, topology)
        policy = _make_miss_policy(sim, config)
        scenario.mapping_system = system
        scenario.miss_policy = policy
        scenario.xtrs_by_site = deploy_lisp(
            sim, topology, system, policy, gleaning=config.gleaning,
            cache_ttl_override=config.cache_ttl_override,
            mapping_ttl=config.mapping_ttl)
        sim.run()  # let deployment-time pushes (NERD) settle

    for site in topology.sites:
        for host_index, host in enumerate(site.hosts):
            stack = TcpStack(sim, host)
            stack.listen(FLOW_TCP_PORT)
            scenario.tcp_stacks[host.name] = stack
            scenario.udp_sinks[(site.index, host_index)] = UdpSink(
                sim, host, FLOW_UDP_PORT)
    return scenario
