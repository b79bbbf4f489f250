"""DET02: set iteration that feeds ordered work must go through sorted().

``set`` iteration order depends on insertion history and element hashes —
and for strings, on ``PYTHONHASHSEED``, which differs between the sweep's
worker processes.  A set iterated into event scheduling, a digest, or an
ordered aggregate therefore produces different event interleavings (or
bytes) in different processes while every individual run still "works".
Dict iteration is insertion-ordered and deterministic, so it is fine.

The rule flags iteration over *statically recognisable* set expressions —
``set(...)``/``frozenset(...)`` calls, set literals and comprehensions,
``.union()``-style set-returning method calls, and local names bound to
one of those — when the results feed ordered work:

- a ``for`` loop whose body calls a scheduling, digest or aggregation
  sink (``call_in``, ``timeout``, ``send``, ``update``,
  ``append`` ...);
- materialisation into an ordered container: ``list(s)``, ``tuple(s)``, a
  list comprehension, ``"".join(s)`` or ``*s`` unpacking.

Wrapping the set in ``sorted(...)`` resolves the finding; order-insensitive
consumers (``len``, ``min``, ``max``, ``any``, ``all``, ``set``, ``sum``,
membership tests) are never flagged.
"""

import ast

from repro.analysis import astutil
from repro.analysis.core import register

#: Calls inside a loop body that make iteration order observable.
_ORDER_SINKS = {
    # event scheduling
    "call_in", "call_at", "timeout", "schedule",
    "start", "succeed", "send", "send_udp", "request",
    # digests / serialisation
    "update", "record", "write", "dumps", "encode",
    # ordered aggregation
    "append", "extend", "insert", "put", "install", "push", "add_row",
}

#: Set-returning methods: calling one *builds* a set, so iterating the
#: result is hash-ordered even though we cannot see the receiver's type.
_SET_METHODS = {"union", "intersection", "difference", "symmetric_difference"}

_SET_BUILTINS = {"set", "frozenset"}

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _is_set_expr(node, set_locals):
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_locals
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in _SET_BUILTINS:
            return True
        if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
            return True
    return False


def _walk_scope(scope):
    """Walk *scope*'s own nodes, not descending into nested def scopes."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPE_NODES):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _set_locals(scope):
    """This scope's names bound to set expressions (and nothing else)."""
    bound, poisoned = set(), set()
    for node in _walk_scope(scope):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    if _is_set_expr(node.value, bound):
                        bound.add(target.id)
                    else:
                        poisoned.add(target.id)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)) \
                and isinstance(node.target, ast.Name):
            poisoned.add(node.target.id)
    return bound - poisoned


def _loop_sink(loop):
    for node in ast.walk(loop):
        if isinstance(node, ast.Call):
            name = astutil.call_name(node)
            if name in _ORDER_SINKS:
                return name
    return None


@register
class Det02:
    rule_id = "DET02"
    description = ("set iteration feeding event scheduling, digests or "
                   "ordered aggregation must be wrapped in sorted()")
    hint = ("iterate sorted(<set>) so every process sees the same order "
            "(set order depends on PYTHONHASHSEED across sweep workers)")

    def check(self, module):
        yield from self._check_one_scope(module, module.tree)

    def _check_one_scope(self, module, scope):
        set_locals = _set_locals(scope)
        for node in _walk_scope(scope):
            yield from self._check_node(module, node, set_locals)
        for node in ast.walk(scope):
            if node is not scope and isinstance(node, _SCOPE_NODES):
                # Nested scopes resolve their own locals; walking them all
                # here (rather than recursing) visits each exactly once
                # because _walk_scope stops at scope boundaries.
                yield from self._check_nested(module, node)

    def _check_nested(self, module, scope):
        set_locals = _set_locals(scope)
        for node in _walk_scope(scope):
            yield from self._check_node(module, node, set_locals)

    def _check_node(self, module, node, set_locals):
        if isinstance(node, (ast.For, ast.AsyncFor)) \
                and _is_set_expr(node.iter, set_locals):
            sink = _loop_sink(node)
            if sink:
                yield module.finding(
                    self, node,
                    f"loop iterates a set in hash order and feeds "
                    f"'{sink}(...)' — the order is observable")
        elif isinstance(node, ast.ListComp):
            # A generator expression inherits its consumer's sensitivity
            # (sum/any/set.update are order-insensitive), so only the call
            # branch below flags those; a list comprehension *is* ordered.
            for comp in node.generators:
                if _is_set_expr(comp.iter, set_locals):
                    yield module.finding(
                        self, node,
                        "list comprehension materialises a set's hash "
                        "order into an ordered sequence")
        elif isinstance(node, ast.Call):
            name = astutil.call_name(node)
            if name in ("list", "tuple", "join") and node.args \
                    and self._arg_in_set_order(node.args[0], set_locals):
                yield module.finding(
                    self, node,
                    f"{name}(...) materialises a set's hash order into an "
                    f"ordered sequence")
        elif isinstance(node, ast.Starred) \
                and _is_set_expr(node.value, set_locals):
            yield module.finding(
                self, node, "*-unpacking a set materialises its hash order")

    @staticmethod
    def _arg_in_set_order(arg, set_locals):
        """True when *arg* yields elements in a set's hash order."""
        if _is_set_expr(arg, set_locals):
            return True
        return isinstance(arg, ast.GeneratorExp) and any(
            _is_set_expr(comp.iter, set_locals) for comp in arg.generators)
