"""SNAP01: a hand-written checkpoint must capture every ``__init__`` attribute.

World reuse restores components in place: the worldbuild layer snapshots
every stateful component right after the build and restores those
snapshots before each reuse.  Most components inherit the generic
checkpoint of :class:`repro.sim.state.Checkpointed`, which captures every
attribute but the exempt ones and so cannot miss one.  A class whose
restore does more than copy writes its own ``snapshot_state`` /
``restore_state``; an attribute assigned in its ``__init__`` but invisible
to both carries one run's state into the next — the exact bug class that
corrupts world-cache digests without any test noticing.

An attribute counts as *captured* when either checkpoint method of the
class touches it as ``self.<attr>``.  Genuinely immutable construction-time
attributes — the owning sim, wiring, config knobs — are declared once in a
``_SNAPSHOT_EXEMPT`` class attribute instead, and what a mixin base owns
(:data:`MIXIN_ATTRS`) is exempt wherever that base is inherited.

An exemption must name something, in every class that lists one (generic
checkpoints included): a ``_SNAPSHOT_EXEMPT`` entry that no ``__init__`` of
the class or of its bases in the same module assigns is reported, so
deleting an attribute cannot leave its exemption behind.
"""

import ast

from repro.analysis import astutil
from repro.analysis.core import register

#: Class attribute naming the deliberate exemptions.
EXEMPT_ATTR = "_SNAPSHOT_EXEMPT"

#: Attributes a mixin owns, by the mixin's class name: a subclass that
#: sets one in ``__init__`` (a slotted ``Journaled`` must) is covered by the
#: mixin's contract, not by its own checkpoint.
MIXIN_ATTRS = {"Journaled": ("_journal",)}


def mro_in_module(class_def, classes, _seen=None):
    """*class_def* plus any base classes defined in the same module."""
    seen = _seen if _seen is not None else set()
    if class_def.name in seen:
        return []
    seen.add(class_def.name)
    order = [class_def]
    for base in class_def.bases:
        base_def = classes.get(getattr(base, "id", None))
        if base_def is not None:
            order.extend(mro_in_module(base_def, classes, seen))
    return order


def _own_exemptions(class_def):
    """The ``_SNAPSHOT_EXEMPT`` assignment in *class_def*'s body, or None."""
    return next((node for node in class_def.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(target, "id", None) == EXEMPT_ATTR
                         for target in node.targets)), None)


def exemptions(class_def, classes):
    """The ``_SNAPSHOT_EXEMPT`` names *class_def* declares or inherits."""
    exempt = set()
    for base in mro_in_module(class_def, classes):
        own = _own_exemptions(base)
        if own is not None:
            exempt.update(astutil.constant_string_seq(own.value) or ())
        for mixin in base.bases:
            exempt.update(MIXIN_ATTRS.get(getattr(mixin, "id", None), ()))
    return exempt


@register
class Snap01:
    rule_id = "SNAP01"
    description = ("classes defining snapshot_state must capture every "
                   "__init__ attribute or list it in _SNAPSHOT_EXEMPT")
    hint = ("capture the attribute in snapshot_state/restore_state, or add "
            "it to the class's _SNAPSHOT_EXEMPT tuple if it is immutable "
            "after construction")

    def check(self, module):
        classes = {cls.name: cls for cls in astutil.iter_class_defs(module.tree)}
        for class_def in classes.values():
            yield from self._stale_exemptions(module, class_def, classes)
            methods = astutil.class_methods(class_def)
            snapshot = methods.get("snapshot_state")
            init = methods.get("__init__")
            if snapshot is None or init is None:
                continue
            assigned = astutil.self_attr_stores(init)
            captured = astutil.self_attr_names(snapshot,
                                               methods.get("restore_state"))
            exempt = exemptions(class_def, classes)
            for attr, line in sorted(assigned.items(), key=lambda kv: kv[1]):
                if attr in captured or attr in exempt:
                    continue
                yield module.finding(
                    self, line,
                    f"{class_def.name}.__init__ assigns self.{attr} but "
                    f"snapshot_state/restore_state never captures it")

    def _stale_exemptions(self, module, class_def, classes):
        """Own ``_SNAPSHOT_EXEMPT`` entries no in-module ``__init__`` sets."""
        exempt = _own_exemptions(class_def)
        if exempt is None:
            return
        assigned = set()
        for base in mro_in_module(class_def, classes):
            init = astutil.class_methods(base).get("__init__")
            if init is not None:
                assigned.update(astutil.self_attr_stores(init))
        for name in astutil.constant_string_seq(exempt.value) or ():
            if name not in assigned:
                yield module.finding(
                    self, exempt,
                    f"{class_def.name}.{EXEMPT_ATTR} names {name!r}, which "
                    f"no __init__ of the class assigns",
                    hint=f"delete the stale entry from {EXEMPT_ATTR}")
