"""SNAP03: a journaled class touches the journal before it writes.

High-cardinality components (links, nodes, xTRs, ...) are not captured
when a world is checkpointed: each stores its own pristine state the first
time a run is about to change it, by calling ``self._touch()``
(:class:`repro.sim.state.Journaled`).  A mutator that writes first and
touches later journals the *mutated* state as pristine; one that never
touches is simply not restored.  Either way the next cell on that world
starts from the wrong state and no digest says why.

In a class that calls ``self._touch()`` anywhere, every method that writes
to ``self`` must call it before its first write.  A *write* is an
assignment, augmented assignment or ``del`` whose target starts at
``self.<attr>`` (``self.x = ``, ``self.x[k] += ``, ``del self.x.y``), or a
call of a container mutator on such a chain (``self.x.append(...)``;
:data:`_MUTATOR_CALLS`).  Attributes named in ``_SNAPSHOT_EXEMPT`` are
construction-time wiring and do not count; ``__init__``, ``__setstate__``
and ``restore_state`` are not mutators of a live world.  Statements are
compared in source order, nested functions included, so the packet path's
``if self._journal is not None: self._touch()`` counts as the call it
guards.

A helper that is only reached from a method that already touched (a
delivery callback behind ``send``) carries the usual pragma on its first
write, with the caller named beside it::

    self._busy = False  # repro: allow=SNAP03  (send() touched)
"""

import ast

from repro.analysis import astutil
from repro.analysis.core import register
from repro.analysis.rules.snap01 import exemptions

#: Container methods that change the object they are called on.
_MUTATOR_CALLS = frozenset((
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popleft", "remove", "discard", "clear"))

#: Methods that write to ``self`` without mutating a live, armed world.
_NOT_MUTATORS = frozenset(("__init__", "__setstate__", "restore_state"))


def _self_root_attr(node):
    """``x`` when *node* is a chain rooted at ``self.x``, else None."""
    attr = None
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            attr = node.attr
            if astutil.is_self(node.value):
                return attr
        node = node.value
    return None


def _is_touch_call(node):
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_touch"
            and astutil.is_self(node.func.value))


def _written_attrs(node):
    """Root ``self`` attributes the statement or call *node* writes."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = node.targets
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
          and node.func.attr in _MUTATOR_CALLS):
        targets = [node.func.value]
    else:
        return
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets.extend(target.elts)
        elif isinstance(target, ast.Starred):
            targets.append(target.value)
        else:
            attr = _self_root_attr(target)
            if attr is not None:
                yield attr


def _position(node):
    return (node.lineno, node.col_offset)


@register
class Snap03:
    rule_id = "SNAP03"
    description = ("in a class that calls self._touch(), every method "
                   "touches the journal before its first write to self")
    hint = ("call self._touch() before the first write (on a per-packet "
            "path: `if self._journal is not None: self._touch()`), or, "
            "for a helper only reached from a method that touched, add "
            "`# repro: allow=SNAP03` naming that caller")

    def check(self, module):
        classes = {cls.name: cls for cls in astutil.iter_class_defs(module.tree)}
        for class_def in classes.values():
            methods = astutil.class_methods(class_def)
            if not any(_is_touch_call(node) for method in methods.values()
                       for node in ast.walk(method)):
                continue
            exempt = exemptions(class_def, classes)
            for name, method in methods.items():
                if name not in _NOT_MUTATORS:
                    yield from self._check_method(module, class_def, method,
                                                  exempt)

    def _check_method(self, module, class_def, method, exempt):
        touched_at = min((_position(node) for node in ast.walk(method)
                          if _is_touch_call(node)), default=None)
        writes = sorted(
            (_position(node), attr) for node in ast.walk(method)
            for attr in _written_attrs(node) if attr not in exempt)
        if not writes:
            return
        (line, column), attr = writes[0]
        if touched_at is None or touched_at > (line, column):
            yield module.finding(
                self, line,
                f"{class_def.name}.{method.name} writes self.{attr} "
                + ("without calling self._touch()" if touched_at is None
                   else "before it calls self._touch()"))
