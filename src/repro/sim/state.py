"""World-reuse checkpoints: the generic component checkpoint and the
first-touch journal.

A reused world must be byte-for-byte the world its build produced.  A
component's run state is every attribute it holds except the names its
class (or a base) lists in ``_SNAPSHOT_EXEMPT`` — the wiring and config no
run changes — and the journal slot.  :class:`Checkpointed` captures exactly
that, instance dict and slots alike (the names are looked up once per
class)::

    state = component.snapshot_state()  # {attribute: value}
    component.restore_state(state)      # put every attribute back

A value that is itself :class:`Checkpointed` is a *part*: captured by its
own ``snapshot_state`` (as a :class:`Part`) and restored in place, under
the same attribute.  Every other value is structure-copied
(:data:`_COPIERS`) on capture and again on restore, so neither the live
object nor a later run can mutate the checkpoint through shared
references.  A component owns its parts alone: a component the world's
inventory visits on its own, or one that two owners hold, is an exempt
reference of every owner, never a part.  Transient tables (requests in
flight, buffers) are captured like the rest; a checkpoint is only taken of
a settled world, where they are empty.  Only a class whose restore does
more than copy — the engine re-arms its timers, a FIB skips an unchanged
table, a link swaps in the shared idle ledger — writes its own pair.

*When* those two methods run is the :class:`Journal`'s business, one per
world (:mod:`repro.experiments.worldbuild` arms it once the build has
settled).  A world's *singletons* (engine, tracer, control plane, per-site
PCEs, ...) are captured when the journal is made and restored by every
:meth:`Journal.rollback`.  Everything a world has thousands of — links,
nodes, xTRs, per-host stacks and sinks, site resolvers — is
:class:`Journaled`: nothing is captured up front, and each mutator starts
with ``self._touch()``, which on the first touch since the last rollback
stores the component's ``snapshot_state()`` (unless the journal already
holds it from an earlier run: the pristine state never changes) and puts
the component on the dirty list.  A rollback restores the singletons and
the dirty list and visits nothing else, so capture and restore cost what a
run touched, not what the world holds.

The contract a :class:`Journaled` class signs is *touch before write*:
every method that changes what ``snapshot_state()`` would return calls
``self._touch()`` before its first write — SNAP03 of ``repro analyze``
checks it.  Mutators spell the call ``if self._journal is not None:
self._touch()``: one attribute test per packet hop (and per registration
while a world is being built, before any journal exists) and no call once
dirty.  A part reachable from outside its owner (``node.fib``,
``xtr.map_cache``) is given its owner and touches it in its own mutators.
"""

from collections import defaultdict, deque
from functools import cache
from itertools import repeat
from typing import NamedTuple


def _copy_dict(value):
    return {key: item if (copy := _COPIERS.get(type(item))) is None
            else copy(item) for key, item in value.items()}


def _copy_list(value):
    return [item if (copy := _COPIERS.get(type(item))) is None
            else copy(item) for item in value]


#: How a checkpoint structure-copies a value, by its exact type: fresh
#: containers, copied all the way down; any other value is an immutable
#: leaf, shared.
_COPIERS = {
    dict: _copy_dict,
    list: _copy_list,
    set: set,
    deque: deque,
    defaultdict: lambda value: defaultdict(value.default_factory,
                                           _copy_dict(value)),
}


@cache
def slot_names(klass):
    """The slot names *klass* and its bases declare, each once."""
    return tuple(dict.fromkeys(name for base in klass.__mro__
                               for name in base.__dict__.get("__slots__", ())))


def _layout(klass):
    """``(captured slots, exempt names, has a dict)`` of *klass*, worked out
    once per class: every ``_SNAPSHOT_EXEMPT`` of its MRO plus the journal
    slot are exempt."""
    exempt = tuple(dict.fromkeys(("_journal", *(
        name for base in klass.__mro__
        for name in base.__dict__.get("_SNAPSHOT_EXEMPT", ())))))
    layout = _LAYOUTS[klass] = (
        tuple(name for name in slot_names(klass) if name not in exempt),
        exempt, klass.__dictoffset__ != 0)
    return layout


#: :func:`_layout` by class.
_LAYOUTS = {}


class Part(NamedTuple):
    """A part's checkpoint inside its owner's: the part and its state."""

    component: object
    state: dict


class Checkpointed:
    """Mixin: a component whose checkpoint is every attribute it holds
    but its exemptions (see the module docstring).

    The mixin has no slots, so slotted components stay slotted.  Every
    slot a checkpointed class captures is set in its ``__init__``.
    """

    __slots__ = ()

    #: Construction-time wiring and config: attributes no run changes,
    #: and references to components checkpointed on their own.
    _SNAPSHOT_EXEMPT = ()

    def snapshot_state(self):
        """``{attribute: value}``: a copy of each value, a :class:`Part`
        of each checkpointed one."""
        klass = type(self)
        slots, exempt, has_dict = _LAYOUTS.get(klass) or _layout(klass)
        if has_dict:
            state = self.__dict__.copy()
            for name in exempt:
                state.pop(name, None)
        else:
            state = {}
        if slots:
            state.update(zip(slots, map(getattr, repeat(self), slots)))
        for name, value in state.items():
            copy = _COPIERS.get(type(value))
            if copy is not None:
                state[name] = copy(value)
            elif isinstance(value, Checkpointed):
                state[name] = Part(value, value.snapshot_state())
        return state

    def restore_state(self, state):
        """Put every captured attribute back, each part in place."""
        for name, value in state.items():
            copy = _COPIERS.get(type(value))
            if copy is not None:
                value = copy(value)
            elif type(value) is Part:
                value.component.restore_state(value.state)
                value = value.component
            setattr(self, name, value)


class Journaled(Checkpointed):
    """Mixin: a component whose checkpoint is taken on first touch.

    ``_journal`` is the world's :class:`Journal` while the component is
    armed and clean, ``None`` once it is dirty — and on every component of
    a world nobody armed (a bare ``build_scenario``, a hand-wired test
    topology), where :meth:`_touch` does nothing.

    The mixin has no slots of its own, so a slotted component names
    ``_journal`` in its ``__slots__`` and sets it to None in ``__init__``;
    any other component reads the class default below until armed.
    """

    __slots__ = ()

    _journal = None

    def _touch(self):
        """Call before the first write of any mutator."""
        journal = self._journal
        if journal is not None:
            self._journal = None
            if self not in journal.pristine:
                journal.pristine[self] = self.snapshot_state()
            journal.dirty.append(self)


class Journal:
    """One world's checkpoint: singleton states plus what runs touched."""

    def __init__(self, singletons, journaled):
        #: ``(component, state)``: captured now, restored by every rollback.
        self.singletons = [(component, component.snapshot_state())
                           for component in singletons]
        #: component -> its ``snapshot_state()`` as of this checkpoint, for
        #: every component any run has touched.  Kept across rollbacks, so
        #: a component is captured at most once per world object.
        self.pristine = {}
        #: Components touched since the last rollback, first touch first.
        self.dirty = []
        for component in journaled:
            component._journal = self

    def rollback(self):
        """Put the singletons and every dirty component back; re-arm them."""
        for component, state in self.singletons:
            component.restore_state(state)
        pristine = self.pristine
        for component in self.dirty:
            component.restore_state(pristine[component])
            component._journal = self
        self.dirty.clear()
