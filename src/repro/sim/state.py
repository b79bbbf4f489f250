"""Snapshot/restore helpers for world reuse: the first-touch journal.

A reused world must be byte-for-byte the world its build produced.
Components participate by implementing two methods::

    def snapshot_state(self):  # -> opaque state object
    def restore_state(self, state):  # put the object back exactly

Most implementations are a dict of attribute names built with
:func:`snapshot_attrs` / :func:`restore_attrs`.  Container values are
structure-copied on *both* capture and restore so neither the live object
nor a later run can mutate the checkpoint through shared references.

*When* those two methods run is the :class:`Journal`'s business, one per
world (:mod:`repro.experiments.worldbuild` arms it once the build has
settled).  A world's few *singletons* (engine, tracer, control plane, ...)
are captured when the journal is made and restored by every
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
every method that changes what ``snapshot_state()`` would return (or what
``restore_state()`` clears) calls ``self._touch()`` before its first
write — SNAP03 of ``repro analyze`` checks it.  Mutators spell the call
``if self._journal is not None: self._touch()``: one attribute test per
packet hop (and per registration while a world is being built, before any
journal exists) and no call once dirty.  A table that is part of a
component's state and reachable from outside it (``node.fib``,
``xtr.map_cache``) is given its owner and touches it in its own mutators.
"""

from collections import defaultdict, deque


def state_copy(value):
    """Structure-copy *value*: fresh containers, shared (immutable) leaves."""
    if isinstance(value, defaultdict):
        copied = defaultdict(value.default_factory)
        for key, item in value.items():
            copied[key] = state_copy(item)
        return copied
    if isinstance(value, dict):
        return {key: state_copy(item) for key, item in value.items()}
    if isinstance(value, list):
        return [state_copy(item) for item in value]
    if isinstance(value, set):
        return set(value)
    if isinstance(value, deque):
        return deque(value)
    return value


def snapshot_attrs(obj, names):
    """A checkpoint dict of *names* attributes (structure-copied)."""
    return {name: state_copy(getattr(obj, name)) for name in names}


def restore_attrs(obj, state):
    """Restore attributes captured by :func:`snapshot_attrs`."""
    for name, value in state.items():
        setattr(obj, name, state_copy(value))


class Journaled:
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
