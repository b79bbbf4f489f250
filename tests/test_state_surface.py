"""Every attribute ``src/repro`` stores on ``self`` has a reader.

An attribute a class of ``src/repro`` assigns (``self.name = ...`` in any
method) must be read by code in ``src/``, ``examples/`` or ``benchmarks/``
(their ``test_*.py`` files left out), matched by name as the public-surface
test matches definitions:

- an ``Attribute`` load of that name — a ``self.<name>`` load only in the
  class's own family: the class, its bases and its subclasses, matched by
  class name (``Pce`` storing ``self.topology`` is not read by another
  class's ``self.topology``) — except ``self.<name>`` inside an
  ``__init__``, ``__post_init__`` or ``snapshot_state`` (building an
  object — a dataclass field's own conversion included — and
  checkpointing it are not uses) and a load that only writes through
  the attribute: the base of an assigned or augmented subscript or
  attribute
  (``self.by_type[kind] += 1``, ``stats.flows[flow].offered += size``) or
  the receiver of a mutating call whose result is dropped
  (``self.timeline.append(entry)``);
- a string argument of a call outside those three methods that spells the
  name, alone or as a part of a dotted path (``getattr(stats, "push_bytes")``,
  ``_per("xtrs", "map_cache.expirations")``).

Augmented assignments (``self.count += 1``) store, so they are not reads,
and neither are a class's name tuples (``_SNAPSHOT_EXEMPT = ("count",)``):
they are not call arguments.  State that only the tests read is either a
property no other reader can observe, kept in :data:`KEPT` with the test
it serves, or dead: a counter nothing reads still costs every run that
moves it a write and every checkpoint a copy.
"""

import ast

from test_api_surface import _bases, _family, _trees

#: ``Class.attribute`` stored and read only by the tests, each with the
#: test or oracle that reads it and why nothing else shows the property.
KEPT = {
    "ControlStats.by_type": "which messages ALT, CONS and NERD spend "
                            "(request hops, reply hops, CP-carried data): "
                            "test_lisp_control.py reads the split, and the "
                            "mapping systems trace no message",
}

#: Methods whose ``self.<name>`` loads are construction or checkpointing.
_CHECKPOINT = ("__init__", "__post_init__", "snapshot_state")
#: Container methods that change their receiver and return nothing read.
_MUTATORS = ("append", "appendleft", "extend", "add", "update", "clear",
             "discard")


def stored_attributes(tree):
    """``Class.attribute`` for every ``self.attribute`` a method stores."""
    stored = set()
    for class_def in ast.walk(tree):
        if not isinstance(class_def, ast.ClassDef):
            continue
        for method in class_def.body:
            if not isinstance(method, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                continue
            stored.update(
                f"{class_def.name}.{node.attr}" for node in ast.walk(method)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and getattr(node.value, "id", None) == "self")
    return stored


def _writes_through(node, parents):
    """True when the load *node* only writes into what it names."""
    outer = node
    while isinstance(parents.get(outer), (ast.Subscript, ast.Attribute)) \
            and parents[outer].value is outer:
        outer = parents[outer]
        if isinstance(outer.ctx, (ast.Store, ast.Del)):
            return True
        if isinstance(outer, ast.Attribute) and outer.attr in _MUTATORS:
            call = parents.get(outer)
            return isinstance(call, ast.Call) and call.func is outer \
                and isinstance(parents.get(call), ast.Expr)
    return False


def read_names(tree):
    """``(class, name)`` for each attribute the code of module *tree* reads
    (see the module docstring for what counts): *class* is the enclosing
    class of a ``self.<name>`` load, else None."""
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}

    def owner(node):
        while node in parents:
            node = parents[node]
            if isinstance(node, ast.ClassDef):
                return node.name
        return None

    def in_checkpoint(node):
        while node in parents:
            node = parents[node]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return node.name in _CHECKPOINT
        return False

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if _writes_through(node, parents):
                continue
            if getattr(node.value, "id", None) == "self":
                if not in_checkpoint(node):
                    yield owner(node), node.attr
                continue
            yield None, node.attr
        elif isinstance(node, ast.Call) and not in_checkpoint(node):
            for argument in (*node.args,
                             *(keyword.value for keyword in node.keywords)):
                if isinstance(argument, ast.Constant) \
                        and isinstance(argument.value, str):
                    yield from ((None, part)
                                for part in argument.value.split(".")
                                if part.isidentifier())


def unread_in(stored_trees, reading_trees):
    """The attributes the classes of *stored_trees* store that the code of
    *reading_trees* does not read (class families from *stored_trees*)."""
    stored_trees = list(stored_trees)
    stored = set().union(*map(stored_attributes, stored_trees))
    bases = {}
    for tree in stored_trees:
        bases.update(_bases(tree))
    read = {pair for tree in reading_trees for pair in read_names(tree)}
    return {qualified for qualified in stored
            if not _is_read(*qualified.split(".", 1), read, bases)}


def _is_read(class_name, name, read, bases):
    return (None, name) in read or any(
        (member, name) in read for member in _family(class_name, bases))


def unread_attributes():
    """The ``src/repro`` attributes that nothing outside the tests reads."""
    return unread_in(_trees("src/repro"),
                     _trees("src", "examples", "benchmarks"))


def test_every_stored_attribute_has_a_reader():
    unread = unread_attributes()
    assert sorted(unread - set(KEPT)) == []
    assert sorted(set(KEPT) - unread) == [], "stale KEPT entries"
    assert all(reason.strip() for reason in KEPT.values())


def test_writes_checkpoints_and_name_tuples_are_not_reads():
    source = '''
class Counter:
    _SNAPSHOT_EXEMPT = ("tuple_only",)

    def __init__(self, size):
        self.count = 0
        self.by_kind = {}
        self.log = []
        self.size = size
        self.derived = self.size * 2

    def bump(self, kind, other):
        self.count += 1
        self.by_kind[kind] += 1
        self.log.append(kind)
        other.stats.flows[kind].offered += 1
        return self.log.pop()

    def snapshot_state(self):
        return (self.count, dict(self.by_kind), getattr(self, "checkpointed"))


def consume(counter):
    return (counter.derived, getattr(counter, "by_name"),
            ledger("xtrs", "map_cache.dotted"))


@dataclass
class Field:
    converted: str

    def __post_init__(self):
        self.converted = IPv4Address(self.converted)
'''
    tree = ast.parse(source)
    assert stored_attributes(tree) == {
        "Counter.count", "Counter.by_kind", "Counter.log", "Counter.size",
        "Counter.derived", "Field.converted"}
    names = {name for _owner, name in read_names(tree)}
    # a field's own conversion in __post_init__ is construction
    for absent in ("count", "by_kind", "size", "stats", "flows", "offered",
                   "tuple_only", "checkpointed", "converted"):
        assert absent not in names, absent
    # pop's result is used; getattr's and a dotted path's strings are reads
    assert {"log", "derived", "by_name", "map_cache",
            "dotted"} <= names


def test_a_self_read_counts_only_in_its_own_class_family():
    source = '''
class Base:
    def total(self):
        return self.late

class A(Base):
    def __init__(self):
        self.x = 1
        self.y = 0
        self.late = 0
        self.other = 0

    def read(self):
        return self.x

class Sub(A):
    def read_y(self):
        return self.y

class B:
    def __init__(self):
        self.x = 2
        self.other = 3

def consume(a):
    return a.other
'''
    tree = ast.parse(source)
    # A's own read covers A.x, a subclass's A.y and a base's A.late; a read
    # on another receiver still matches every class by name (B.other).
    # B's x, read only by A, is stored unread.
    assert unread_in([tree], [tree]) == {"B.x"}
