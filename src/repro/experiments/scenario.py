"""Scenario construction: one call builds a full world under the control
plane ``control_plane`` names (:data:`CONTROL_PLANES`)."""

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Optional

from repro.core.control_plane import PceControlPlane
from repro.core.irc import POLICIES as IRC_POLICIES
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

#: ``miss_policy`` name -> the ITR's miss policy class.
MISS_POLICIES = {"drop": DropPolicy, "queue": QueuePolicy,
                 "cp-data": CpDataPolicy}


@dataclass(frozen=True)
class Plane:
    """A control plane: the config fields it reads beyond the shared ones
    (which no row names), all :func:`build_scenario` passes it and, with
    the shared ones, its world's key; and ``deploy(scenario, **reads)``
    (None: no LISP, EIDs globally routable)."""

    reads: tuple
    deploy: object = None


def _deploy_pce(scenario, **reads):
    scenario.control_plane = PceControlPlane(
        scenario.sim, scenario.topology, scenario.dns, **reads)
    scenario.xtrs_by_site = scenario.control_plane.xtrs_by_site


def _reactive(system, **fixed):
    """The deploy of a plane resolving through ``system(sim, topology)``;
    *fixed*: the xTR settings it does not read."""
    def deploy(scenario, **reads):
        sim, topology = scenario.sim, scenario.topology
        scenario.mapping_system = system(sim, topology)
        scenario.xtrs_by_site = deploy_lisp(
            sim, topology, scenario.mapping_system, **reads, **fixed)
        sim.run()  # let deployment-time pushes (NERD) settle
    return deploy


#: Every control plane, by its ``control_plane`` name.
CONTROL_PLANES = {
    # The paper's PCE-based control plane.
    "pce": Plane(("miss_policy", "mapping_ttl", "irc_policy",
                  "computation_delay", "enable_probing", "probe_period",
                  "probe_timeout"), _deploy_pce),
    # LISP+ALT overlay, reactive resolution at ITRs.
    "alt": Plane(("miss_policy", "gleaning", "mapping_ttl"),
                 _reactive(lambda sim, _topology: AltMappingSystem(sim))),
    # CONS hierarchy, reactive.
    "cons": Plane(("miss_policy", "gleaning", "mapping_ttl"),
                  _reactive(ConsMappingSystem)),
    # NERD's pushed database: every xTR holds every other site's mapping
    # for good, so an ETR never lacks a source's and has nothing to glean.
    "nerd": Plane(("miss_policy", "mapping_ttl"),
                  _reactive(NerdMappingSystem, gleaning=False)),
    # No LISP at all: EIDs globally routable (today's Internet), the
    # baseline of the paper's first latency formula.
    "plain": Plane(()),
}


@dataclass
class ScenarioConfig:
    """Everything that defines a reproducible world."""

    control_plane: str = "pce"
    num_sites: int = 2
    num_providers: int = 4
    providers_per_site: int = 2
    hosts_per_site: int = 2
    seed: int = 1
    #: Off in sweep cells: the tracer records nothing (a memory and time win
    #: on the per-packet hot path); Fig. 1 reads the trace.
    tracing: bool = True
    # Each row of CONTROL_PLANES names the fields below its plane reads;
    # no row names the dns_* ones, which every world reads.
    miss_policy: str = "drop"
    gleaning: bool = True
    mapping_ttl: float = 60.0
    dns_host_ttl: float = 60.0
    dns_use_cache: bool = True
    dns_extra_levels: int = 0
    irc_policy: str = "balance"
    #: Seconds a PCE computes each mapping for; 0.0: known aforehand.
    computation_delay: float = 0.0
    enable_probing: bool = False
    probe_period: float = 0.5
    #: Must stay below probe_period: overlapping probe rounds would keep
    #: foreground work alive across ticks and a full drain would never end.
    #: None derives 0.3 s when ``probe_period`` exceeds 0.3 s and
    #: ``0.6 * probe_period`` otherwise (``PceControlPlane``): the historical
    #: 0.3 s timeout wherever it fits below the period, scaled down for
    #: faster probing.
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
        for name, known in (("control_plane", CONTROL_PLANES),
                            ("miss_policy", MISS_POLICIES),
                            ("irc_policy", IRC_POLICIES)):
            value = getattr(self, name)
            if value not in known:
                raise ValueError(f"unknown {name} {value!r}, "
                                 f"expected one of {tuple(known)}")
        check_sizing(self.topology_spec())
        check_ttl("dns_host_ttl", self.dns_host_ttl)
        # Lifetimes must be > 0, delays and depths >= 0, which NaN is
        # neither: a bad grid then fails at expansion with the field named,
        # not inside a worker.
        for name, bound in (("mapping_ttl", "> 0"), ("probe_period", "> 0"),
                            ("computation_delay", ">= 0"),
                            ("dns_extra_levels", ">= 0")):
            value = getattr(self, name)
            if not (value >= 0 if bound == ">= 0" else value > 0):
                raise ValueError(f"{name} must be {bound}, got {value!r}")
        if self.access_rate_bps is not None and not self.access_rate_bps > 0:
            raise ValueError(f"access_rate_bps must be None or > 0, "
                             f"got {self.access_rate_bps!r}")
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

    def stub_for(self, host, site):
        key = host.name
        if key not in self.stubs:
            self.stubs[key] = StubResolver(self.sim, host, site.dns_address)
        return self.stubs[key]

    def host_name(self, site, host_index):
        return self.dns.host_name(site, host_index)

    def sink_for(self, site_index, host_index):
        return self.udp_sinks[(site_index, host_index)]

    def iter_xtrs(self):
        """Every xTR in the world, site by site."""
        for xtr_list in self.xtrs_by_site.values():
            yield from xtr_list

    @cached_property
    def fabric(self):
        """The transit fabric's shape: provider and IX counts, whether
        routing is hierarchical, and the mean pairwise provider delay
        through the routing plan (seconds; 0.0 without a routed pair).

        World constants, computed once per world on first use, like
        :attr:`links`.
        """
        topology = self.topology
        plan = topology.routing_plan
        providers = topology.providers
        delays = [delay for index, source in enumerate(providers)
                  for destination in providers[index + 1:]
                  if (delay := plan.delay(source, destination)) is not None]
        return {"providers": len(providers),
                "ixps": len(topology.ix_routers),
                "hierarchical_routing": len(topology.tier_layout.tiers) > 1,
                "mesh_delay_mean": (math.fsum(delays) / len(delays)
                                    if delays else 0.0)}

    @cached_property
    def links(self):
        """The world's link table: every link, each exactly once.

        Links are construction-time wiring (interfaces are attached while
        the topology is built and never afterwards), so the topology is
        walked once per world, on first use; the checkpoint inventory and
        :meth:`byte_accounting` share the result.  Node by node, interface
        by interface, first-seen order.
        """
        table = {}
        for node in self.topology.all_nodes():
            for iface in node.interfaces.values():
                if iface.link is not None:
                    table[iface.link] = None
        return tuple(table)

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
        touched, not the world.  Flows still in the fluid pump are settled
        first, so their per-flow accounts are exact too.
        """
        self.fluid_pump.settle()
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

    def teardown(self):
        """Break the world's reference cycles, so it dies by reference count.

        A world is one web of cycles (nodes, interfaces and links point at
        each other and at the engine), which only a full collection would
        otherwise free.  Clearing the attributes of every inventory
        component, of the engine's periodic tasks (an RLOC prober and its
        tick refer to each other), of the events its queue still holds
        (work a run left in flight waits on them: a resolver walk on its
        socket's request, whose callback is the walk's own) and of the
        roots leaves no cycle standing.  The world is unusable afterwards;
        whoever drops a world it built tears it down.
        """
        sim = self.sim
        doomed = [*self.stateful_components(), *sim.periodic_tasks,
                  *sim.queued_events(), self.topology, self.dns, self]
        for obj in doomed:
            _clear_attributes(obj)


def _clear_attributes(obj):
    """Drop every attribute *obj* holds, instance dict and slots alike."""
    attributes = getattr(obj, "__dict__", None)
    if attributes is not None:
        attributes.clear()
    for name in _slot_names(type(obj)):
        try:
            object.__delattr__(obj, name)
        except AttributeError:  # never set, or already dropped
            pass


@cache
def _slot_names(klass):
    """The slot names *klass* and its bases declare, each once."""
    return tuple(dict.fromkeys(name for base in klass.__mro__
                               for name in base.__dict__.get("__slots__", ())))


def build_scenario(config):
    """Build the world described by *config* and return a :class:`Scenario`."""
    plane = CONTROL_PLANES[config.control_plane]
    sim = Simulator(seed=config.seed, tracing=config.tracing)
    spec = config.topology_spec(eids_globally_routable=plane.deploy is None)
    topology = build_from_spec(sim, spec)
    dns = install_dns(topology, host_ttl=config.dns_host_ttl,
                      extra_levels=config.dns_extra_levels,
                      use_cache=config.dns_use_cache)
    scenario = Scenario(config=config, sim=sim, topology=topology, dns=dns)
    if plane.deploy is not None:
        reads = {name: getattr(config, name) for name in plane.reads}
        scenario.miss_policy = reads["miss_policy"] = \
            MISS_POLICIES[config.miss_policy](sim)
        plane.deploy(scenario, **reads)

    for site in topology.sites:
        for host_index, host in enumerate(site.hosts):
            stack = TcpStack(sim, host)
            stack.listen(FLOW_TCP_PORT)
            scenario.tcp_stacks[host.name] = stack
            scenario.udp_sinks[(site.index, host_index)] = UdpSink(
                sim, host, FLOW_UDP_PORT)
    return scenario
