"""DET01: sim-path code must not touch ambient entropy or wall clocks.

Simulations are bit-deterministic for a given seed: sweep digests are
asserted equal across worker counts, and restored worlds must replay the
exact draws a fresh build would make.  Any ambient entropy source breaks
that silently — the run still "works", the digests just stop matching.

Banned:

- module-level :mod:`random` usage (``random.random()``, ``from random
  import choice`` ...).  Constructing an explicitly *seeded*
  ``random.Random(seed)`` is the one sanctioned use — that is how the
  engine's named-stream factory (:mod:`repro.sim.rng`) derives its
  streams; an argument-less ``random.Random()`` seeds from the OS and is
  banned;
- wall clocks: ``time.time``/``time.time_ns``/``time.monotonic``/
  ``time.perf_counter`` and ``datetime.now``/``utcnow``/``today``;
- OS entropy: ``os.urandom``, ``secrets.*``, ``uuid.uuid1``/``uuid4``;
- ``id()`` as a sort key (``sorted(x, key=id)`` or a lambda returning
  ``id(...)``): CPython ids are allocation addresses, so the order varies
  run to run;
- a ``sim.rng.stream(name)`` result stored on ``self`` (directly, or
  through a local): ``RandomStreams`` journals a stream when it is handed
  out, so a stream kept on an object that outlives a world restore is
  drawn from behind the journal's back and the next run continues where
  the last one stopped.  Fetch the stream where it is drawn.

Simulated time lives at ``sim.now``; entropy comes from
``sim.rng.stream(name)``.
"""

import ast

from repro.analysis import astutil
from repro.analysis.core import register

#: module name -> banned attributes (``None`` = every attribute).
_BANNED_ATTRS = {
    "random": None,  # except seeded random.Random(...), special-cased below
    "secrets": None,
    "time": ("time", "time_ns", "monotonic", "monotonic_ns",
             "perf_counter", "perf_counter_ns", "clock"),
    "datetime": ("now", "utcnow", "today"),
    "date": ("today",),
    "os": ("urandom", "getrandom"),
    "uuid": ("uuid1", "uuid4"),
}

_SORT_CALLS = {"sorted", "sort", "min", "max", "nsmallest", "nlargest"}


def _is_seeded_random_ctor(node, parents):
    """True for ``random.Random(<at least one argument>)``."""
    if not (isinstance(node, ast.Attribute) and node.attr == "Random"):
        return False
    call = parents.get(id(node))
    return (isinstance(call, ast.Call) and call.func is node
            and bool(call.args or call.keywords))


def _is_rng_factory(node, aliases):
    """``<anything>.rng`` or a local name bound to one."""
    if isinstance(node, ast.Attribute):
        return node.attr == "rng"
    return isinstance(node, ast.Name) and node.id in aliases


def _stored_streams(func_def):
    """Assignments in *func_def* that park a named stream on ``self``."""
    factories, streams = set(), set()

    def is_stream(node):
        if isinstance(node, ast.Name):
            return node.id in streams
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "stream"
                and _is_rng_factory(node.func.value, factories))

    assignments = sorted(
        (node for node in ast.walk(func_def) if isinstance(node, ast.Assign)),
        key=lambda node: (node.lineno, node.col_offset))
    for node in assignments:
        for target in node.targets:
            if isinstance(target, ast.Name):
                if _is_rng_factory(node.value, factories):
                    factories.add(target.id)
                elif is_stream(node.value):
                    streams.add(target.id)
            elif (isinstance(target, ast.Attribute)
                  and astutil.is_self(target.value) and is_stream(node.value)):
                yield node, target.attr


def _build_parents(tree):
    parents = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


@register
class Det01:
    rule_id = "DET01"
    description = ("ban ambient entropy and wall clocks in sim-path code "
                   "(module-level random, time.time, datetime.now, "
                   "os.urandom, uuid4, id() sort keys)")
    hint = ("draw randomness from sim.rng.stream(name) and time from "
            "sim.now; the seeded streams in repro.sim.rng are the only "
            "sanctioned entropy")

    def check(self, module):
        parents = _build_parents(module.tree)
        stored = set()      # a nested def is walked with its parent too
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                yield from self._check_attribute(module, node, parents)
            elif isinstance(node, ast.ImportFrom):
                yield from self._check_import_from(module, node)
            elif isinstance(node, ast.Call):
                yield from self._check_sort_key(module, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for assignment, attr in _stored_streams(node):
                    if assignment in stored:
                        continue
                    stored.add(assignment)
                    yield module.finding(
                        self, assignment,
                        f"random stream stored on self.{attr}: a stream "
                        "held across a world restore is not journaled",
                        hint="keep the stream's name and call "
                             "sim.rng.stream(name) where the draw happens")

    def _check_attribute(self, module, node, parents):
        root = node.value
        if not isinstance(root, ast.Name):
            # Also catch datetime.datetime.now() / datetime.date.today().
            if astutil.dotted_root(node) in ("datetime", "date") \
                    and node.attr in _BANNED_ATTRS["datetime"]:
                yield module.finding(
                    self, node,
                    f"wall-clock call {ast.unparse(node)} is nondeterministic")
            return
        banned = _BANNED_ATTRS.get(root.id)
        if banned is None and root.id not in _BANNED_ATTRS:
            return
        if banned is not None and node.attr not in banned:
            return
        if root.id == "random" and _is_seeded_random_ctor(node, parents):
            return
        yield module.finding(
            self, node,
            f"{root.id}.{node.attr} is an ambient entropy/wall-clock "
            f"source banned in sim-path code")

    def _check_import_from(self, module, node):
        banned = _BANNED_ATTRS.get(node.module)
        if node.module not in _BANNED_ATTRS:
            return
        for alias in node.names:
            if node.module == "random" and alias.name == "Random":
                continue  # seeded-constructor use is checked at call sites
            if banned is None or alias.name in banned:
                yield module.finding(
                    self, node,
                    f"from {node.module} import {alias.name} pulls an "
                    f"ambient entropy/wall-clock source into sim-path code")

    def _check_sort_key(self, module, node):
        if astutil.call_name(node) not in _SORT_CALLS:
            return
        for keyword in node.keywords:
            if keyword.arg != "key":
                continue
            value = keyword.value
            if isinstance(value, ast.Name) and value.id == "id":
                yield module.finding(
                    self, node,
                    "id() used as a sort key: object ids are allocation "
                    "addresses and vary run to run")
            elif isinstance(value, ast.Lambda) \
                    and isinstance(value.body, ast.Call) \
                    and isinstance(value.body.func, ast.Name) \
                    and value.body.func.id == "id":
                yield module.finding(
                    self, node,
                    "id() used as a sort key: object ids are allocation "
                    "addresses and vary run to run")
