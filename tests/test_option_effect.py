"""Every option has an effect: a control plane's world is the fields it reads.

Beside "every option has a setter" (``test_option_surface.py``).  Each row
of :data:`~repro.experiments.scenario.CONTROL_PLANES` names the
:class:`ScenarioConfig` fields its plane reads beyond the shared ones
(:data:`SHARED`: the fields no row names), and the world key is made of
exactly those.  So:

- perturbing a field a plane reads, on a small world, changes what a short
  run leaves behind — the instants of the work queued when the workload
  ends, the components' ``snapshot_state()`` or the flow records;
- perturbing a field it does not read leaves the world key as it was, so
  such configs share one world.
"""

import functools
import re
from collections import deque
from dataclasses import astuple, fields, is_dataclass, replace

import pytest

from repro.experiments.scenario import CONTROL_PLANES, ScenarioConfig
from repro.experiments.workload import WorkloadConfig, run_workload
from repro.experiments.worldbuild import build_world, world_key
from repro.net.addresses import IPv4Address
from repro.net.packet import udp_packet
from repro.sim.state import Part

#: The fields every world reads, whatever its control plane.
SHARED = ("control_plane", "num_sites", "num_providers", "providers_per_site",
          "hosts_per_site", "seed", "tracing", "dns_host_ttl", "dns_use_cache",
          "dns_extra_levels", "access_rate_bps", "topology")

#: What each plane reads beyond :data:`SHARED`.  NERD pushes every site's
#: mapping to every xTR for good, so its ETRs never miss a source and
#: gleaning could change nothing: NERD does not read it.
READS = {
    "pce": ("miss_policy", "mapping_ttl", "irc_policy",
            "computation_delay", "enable_probing", "probe_period",
            "probe_timeout"),
    "alt": ("miss_policy", "gleaning", "mapping_ttl"),
    "cons": ("miss_policy", "gleaning", "mapping_ttl"),
    "nerd": ("miss_policy", "mapping_ttl"),
    "plain": (),
}

#: The config each plane is perturbed from: the PCE's conditional reads
#: (``probe_*`` when it probes) need their condition on.
BASES = {plane: ScenarioConfig(control_plane=plane) for plane in READS}
BASES["pce"] = ScenarioConfig(control_plane="pce", enable_probing=True)

#: A value unlike the base's for every non-boolean field (booleans flip).
PERTURBED = {
    "num_sites": 3, "num_providers": 5, "providers_per_site": 1,
    "hosts_per_site": 3, "seed": 2, "dns_host_ttl": 30.0,
    "dns_extra_levels": 1, "access_rate_bps": 1e6, "topology": "tiered",
    "miss_policy": "queue", "mapping_ttl": 0.05, "irc_policy": "primary",
    "computation_delay": 0.01, "probe_period": 0.2, "probe_timeout": 0.1,
}

#: One-way traffic, so the receiving ETRs have never resolved the senders
#: (what gleaning is for).
WORKLOAD = WorkloadConfig(num_flows=8, arrival_rate=10.0, packets_per_flow=5,
                          source_site=0, dest_site=1)

#: An EID no site holds: a packet to it misses every map-cache for good.
UNASSIGNED_EID = IPv4Address("100.0.99.1")


def _perturbed(config, name):
    value = getattr(config, name)
    if name == "control_plane":
        return replace(config, control_plane="alt" if value != "alt" else "pce")
    if isinstance(value, bool):
        return replace(config, **{name: not value})
    return replace(config, **{name: PERTURBED[name]})


def _plain(value, depth=0):
    """*value* as lists and strings two worlds can compare: a part by its
    state, objects by their fields (dataclasses, slotted classes without a repr) or their
    repr, memory addresses left out."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if type(value) is Part:
        return _plain(value.state, depth)
    if depth > 8:
        return type(value).__name__
    depth += 1
    if isinstance(value, dict):
        return sorted((repr(_plain(key, depth)), _plain(item, depth))
                      for key, item in value.items())
    if isinstance(value, (set, frozenset)):
        return sorted(repr(_plain(item, depth)) for item in value)
    if isinstance(value, (list, tuple, deque)):
        return [_plain(item, depth) for item in value]
    if is_dataclass(value):
        return [type(value).__name__, *(_plain(getattr(value, spec.name), depth)
                                        for spec in fields(value))]
    slots = getattr(type(value), "__slots__", ())
    if slots and type(value).__repr__ is object.__repr__:
        return [type(value).__name__, *(_plain(getattr(value, slot, None), depth)
                                        for slot in slots)]
    return re.sub(r" at 0x[0-9a-f]+", "", repr(value))


def _aftermath(config):
    """What a short run on *config*'s world leaves: the instants of the
    work queued when the workload ends, every component's state and the
    flow records.

    The workload, then one packet to :data:`UNASSIGNED_EID` (where a NERD
    ITR, whose pushed database holds every site, applies its miss policy),
    run until nothing is pending.  A probe timeout shows only in the
    first: every probe of this run is answered, and a probing world drains
    only once its mappings have expired, long after the last deadline.
    """
    world = build_world(config)
    try:
        records = run_workload(world, WORKLOAD)
        queued = sorted(entry[0] for entry in world.sim._queue)
        host = world.topology.sites[0].hosts[0]
        host.send(udp_packet(host.address, UNASSIGNED_EID, 5000, 9))
        world.sim.run()
        return ([queued, *(_plain(component.snapshot_state())
                           for component in world.stateful_components())],
                [_plain(astuple(record)) for record in records])
    finally:
        world.teardown()


@functools.cache
def _base_aftermath(plane):
    return _aftermath(BASES[plane])


def test_the_table_names_what_each_plane_reads():
    assert {name: plane.reads for name, plane in CONTROL_PLANES.items()} \
        == READS
    named = {name for reads in READS.values() for name in reads}
    assert tuple(spec.name for spec in fields(ScenarioConfig)
                 if spec.name not in named) == SHARED


@pytest.mark.parametrize("plane", READS)
def test_two_builds_of_one_config_checkpoint_alike(plane):
    """A built world's checkpoint is a function of its config: two builds
    in one process agree on every inventory component (a prober's liveness
    version included, drawn from its world's own counter)."""
    worlds = [build_world(BASES[plane]) for _ in range(2)]
    try:
        first, second = ([_plain(component.snapshot_state())
                          for component in world.stateful_components()]
                         for world in worlds)
        assert first == second
    finally:
        for world in worlds:
            world.teardown()


@pytest.mark.parametrize("plane", READS)
def test_a_short_run_leaves_the_same_world_twice(plane):
    """The comparison below is sound: one config, two builds, one aftermath."""
    assert _aftermath(BASES[plane]) == _base_aftermath(plane)


@pytest.mark.parametrize("plane, name", [
    *((plane, name) for plane in ("pce", "plain") for name in SHARED),
    *((plane, name) for plane, reads in READS.items() for name in reads)])
def test_every_field_a_plane_reads_has_an_effect(plane, name):
    state, records = _aftermath(_perturbed(BASES[plane], name))
    base_state, base_records = _base_aftermath(plane)
    assert state != base_state or records != base_records, \
        f"{name} changed nothing on a {plane} world"


@pytest.mark.parametrize("plane", READS)
def test_a_field_a_plane_does_not_read_leaves_its_world_key(plane):
    base = BASES[plane]
    read = SHARED + READS[plane]
    unread = [spec.name for spec in fields(ScenarioConfig)
              if spec.name not in read]
    assert [name for name in unread
            if world_key(_perturbed(base, name)) != world_key(base)] == []
    assert [name for name in read
            if world_key(_perturbed(base, name)) == world_key(base)] == []
