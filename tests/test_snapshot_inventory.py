"""Runtime cross-check of the snapshot contract's *inventory*.

The generic checkpoint (and SNAP01, for the few classes that write their
own) makes each component's checkpoint internally complete; this test
proves the set of components is complete: every class in the ``repro``
package that has a ``snapshot_state``, its own or inherited, must actually
be reachable from :meth:`Scenario.stateful_components` in at least one
built world — otherwise worldbuild would silently never capture it and a
"restored" world would leak that component's state between runs.

Reachability is computed by walking the live object graph (attributes,
dict entries, sequence items) from every yielded component, across a set
of scenarios chosen to exercise all control planes and miss policies.

A component's checkpoint holds each checkpointed value of its attributes
as a *part* (:class:`~repro.sim.state.Part`), restored in place.  So the
ownership rules are checked too, on one world per control plane: no
inventory component is a part of another (it would be restored twice,
once out of turn), and no object is a part of two owners.
"""

import importlib
import pkgutil
from collections import deque

import pytest

import repro
from repro.experiments.scenario import (CONTROL_PLANES, ScenarioConfig,
                                        build_scenario)
from repro.experiments.worldbuild import build_world
from repro.sim.state import Part

#: Classes allowed to have a snapshot_state without being reachable from
#: any scenario's stateful_components.  Keep empty unless a class has a
#: documented reason to opt out of worldbuild capture.
EXEMPT_CLASSES = frozenset()

#: One config per control plane, varying the miss policy so every policy
#: class is instantiated somewhere.
SCENARIO_CONFIGS = (
    ScenarioConfig(control_plane="pce", enable_probing=True),
    ScenarioConfig(control_plane="alt", miss_policy="queue"),
    ScenarioConfig(control_plane="cons", miss_policy="cp-data"),
    ScenarioConfig(control_plane="nerd", miss_policy="drop"),
)


def snapshot_classes_in_package():
    """Every class under ``repro`` that has a snapshot_state, its own or
    inherited."""
    classes = set()
    prefix = repro.__name__ + "."
    for info in pkgutil.walk_packages(repro.__path__, prefix):
        if info.name.endswith("__main__"):
            continue  # importing it would run the CLI
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if not isinstance(value, type) or value.__module__ != info.name:
                continue
            if hasattr(value, "snapshot_state"):
                classes.add(value)
    return classes


def _child_objects(obj):
    if isinstance(obj, dict):
        yield from obj.keys()
        yield from obj.values()
        return
    if isinstance(obj, (list, tuple, set, frozenset, deque)):
        yield from obj
        return
    if not type(obj).__module__.startswith("repro"):
        return
    if hasattr(obj, "__dict__"):
        yield from vars(obj).values()
    for klass in type(obj).__mro__:
        for slot in vars(klass).get("__slots__", ()):
            try:
                yield getattr(obj, slot)
            except AttributeError:
                pass


def reachable_snapshot_classes(scenario):
    """Classes with a snapshot_state reachable from stateful_components
    (an instance's class and every base of it)."""
    found = set()
    seen = set()
    stack = list(scenario.stateful_components())
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        cls = type(obj)
        if cls.__module__.startswith("repro"):
            for klass in cls.__mro__:
                if hasattr(klass, "snapshot_state"):
                    found.add(klass)
        stack.extend(_child_objects(obj))
    return found


def test_every_snapshot_class_is_reachable_from_some_scenario():
    declared = snapshot_classes_in_package()
    assert declared, "inventory scan found no snapshot classes at all"
    reachable = set()
    for config in SCENARIO_CONFIGS:
        reachable |= reachable_snapshot_classes(build_scenario(config))
    unreachable = declared - reachable - EXEMPT_CLASSES
    names = sorted(f"{cls.__module__}.{cls.__qualname__}"
                   for cls in unreachable)
    assert not unreachable, (
        "classes have a snapshot_state but no scenario's "
        f"stateful_components ever reaches an instance: {names} — wire "
        "them into Scenario.stateful_components (or a captured component) "
        "or add them to EXEMPT_CLASSES with a reason")


def test_exemption_list_stays_minimal():
    # Exemptions must name real classes that do have a snapshot_state;
    # stale entries (renamed or fixed classes) must be pruned.
    declared = snapshot_classes_in_package()
    for cls in EXEMPT_CLASSES:
        assert cls in declared, f"stale exemption: {cls!r}"


def _parts(owner, state):
    """``(owner, part)`` for every part of *owner*'s checkpoint *state*, its
    parts' parts included."""
    if type(state) is not dict:
        return          # a hand-written checkpoint holds no part
    for value in state.values():
        if type(value) is Part:
            yield owner, value.component
            yield from _parts(value.component, value.state)


def ownership_violations(scenario):
    """Inventory components captured as parts, and parts captured twice."""
    inventory = {id(component): component
                 for component in scenario.stateful_components()}
    owners = {}
    violations = []
    for component in inventory.values():
        for owner, part in _parts(component, component.snapshot_state()):
            if id(part) in inventory:
                violations.append(f"{part!r} is in the inventory and a part "
                                  f"of {owner!r}")
            if id(part) in owners:
                violations.append(f"{part!r} is a part of {owners[id(part)]!r} "
                                  f"and of {owner!r}")
            owners[id(part)] = owner
    return violations


@pytest.mark.parametrize("plane", CONTROL_PLANES)
def test_a_part_has_one_owner_and_is_no_inventory_component(plane):
    config = ScenarioConfig(control_plane=plane, num_sites=3,
                            enable_probing=plane == "pce", tracing=False)
    world = build_world(config)
    try:
        assert ownership_violations(world) == []
    finally:
        world.teardown()
