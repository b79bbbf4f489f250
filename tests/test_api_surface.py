"""Every public name of ``src/repro`` has a caller.

A ``def``/``class`` name that does not start with ``_`` must be referenced
by code in ``src/``, ``examples/`` or ``benchmarks/`` (their ``test_*.py``
files left out):

- a ``Name`` read (an import alias counts as the name it imports);
- an ``Attribute``, unless it is taken from a module imported from outside
  ``repro`` (``json.dump`` is not ``Tracer.dump``); a ``self.<name>`` read
  counts only for a method of its own class family — the class, its bases
  and its subclasses, by class name, the rule ``test_state_surface.py``
  uses (``self.close()`` in one class does not call another's ``close``);
- a string constant that spells it as the argument of a call, and so
  names a callable looked up by name (the ``EXPERIMENTS`` runner strings).

Comments, docstrings, imports, ``__all__`` entries, table headers, a
definition's references to itself from inside its own body and a name
read inside a function that binds a local variable of that name (``mask``
in ``for mask, table in probes``) are not uses.
What only the tests call is either a reference that lives in the tests, or
dead.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

#: Names kept on purpose, each with the reason nothing calls it.
KEPT = {
    **{rule: "registered by its @register decorator; the registry calls it"
       for rule in ("Det01", "Det02", "Det03", "Snap01", "Snap03")},
    "confidence_interval": "what the seed-robustness item folds "
                           "check_shape over seeds with (ROADMAP)",
    "ZipfSampler.probability": "ZipfSampler's analytic pmf: what the tests "
                               "hold its cumulative table and its draws to",
    "IPv4Prefix.containing": "the enclosing prefix of an arbitrary address: "
                             "how the address, FIB and fast-path property "
                             "tests derive their prefixes (`site_of_eid`, its "
                             "last caller, reads the site index off the "
                             "address plan)",
}


def _trees(*tops):
    """The syntax trees of the modules under *tops*, test files left out."""
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            if not path.name.startswith("test_"):
                yield ast.parse(path.read_text())


def _is_all(node):
    return isinstance(node, ast.Assign) and any(
        getattr(target, "id", None) == "__all__" for target in node.targets)


def _locals(function):
    """The names *function* binds: its parameters and every name stored
    in its body (nested functions and comprehensions included)."""
    arguments = function.args
    bound = {argument.arg for argument in (
        *arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs,
        arguments.vararg, arguments.kwarg) if argument is not None}
    bound.update(node.id for node in ast.walk(function)
                 if isinstance(node, ast.Name)
                 and isinstance(node.ctx, ast.Store))
    return bound


def _references(tree):
    """``(class, name)`` for each name the code of module *tree* refers to
    (see the module docstring for what counts): *class* is the enclosing
    class of a ``self.<name>`` read, else None."""
    aliases = {}
    foreign = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            aliases.update((alias.asname, alias.name) for alias in node.names
                           if alias.asname)
        elif isinstance(node, ast.Import):
            foreign.update((alias.asname or alias.name).split(".")[0]
                           for alias in node.names
                           if not alias.name.startswith("repro"))

    def named(node, enclosing, local, owner):
        if _is_all(node):
            return
        if isinstance(node, _DEFINITIONS):
            enclosing = (*enclosing, node.name)
        if isinstance(node, _FUNCTIONS):
            local = local | _locals(node)
        reader = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found = [] if node.id in local else [node.id,
                                                 aliases.get(node.id)]
        elif isinstance(node, ast.Attribute) and \
                getattr(node.value, "id", None) not in foreign:
            found = [node.attr]
            if getattr(node.value, "id", None) == "self":
                reader = owner
        elif isinstance(node, ast.Call):
            found = [argument.value for argument in (
                *node.args, *(keyword.value for keyword in node.keywords))
                if isinstance(argument, ast.Constant)
                and isinstance(argument.value, str)
                and argument.value.isidentifier()]
        else:
            found = []
        yield from ((reader, name) for name in found
                    if name is not None and name not in enclosing)
        if isinstance(node, ast.ClassDef):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            yield from named(child, enclosing, local, owner)

    return named(tree, (), frozenset(), None)


def _bases(tree):
    """``{class name: names of its bases}`` for the classes of *tree*."""
    return {node.name: {getattr(base, "id", getattr(base, "attr", None))
                        for base in node.bases}
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}


def _family(name, bases):
    """*name*, its ancestors and its descendants, by class name."""
    children = {}
    for child, parents in bases.items():
        for parent in parents:
            children.setdefault(parent, set()).add(child)
    family = {name}
    for edges in (bases, children):
        pending = [name]
        while pending:
            for other in edges.get(pending.pop(), ()):
                if other not in family:
                    family.add(other)
                    pending.append(other)
    return family


def _definitions(tree):
    """``(class, name)`` for each public definition of module *tree*:
    *class* is the class whose body holds it, else None."""
    for node in ast.walk(tree):
        owner = node.name if isinstance(node, ast.ClassDef) else None
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFINITIONS) \
                    and not child.name.startswith("_"):
                yield owner, child.name


def uncalled_in(defining_trees, reading_trees):
    """The public definitions of *defining_trees* that the code of
    *reading_trees* does not refer to: ``Class.name`` for a method, the
    bare name for anything else."""
    defining_trees = list(defining_trees)
    reading_trees = list(reading_trees)
    bases = {}
    for tree in (*defining_trees, *reading_trees):
        bases.update(_bases(tree))
    used = {pair for tree in reading_trees for pair in _references(tree)}
    return {name if owner is None else f"{owner}.{name}"
            for tree in defining_trees
            for owner, name in _definitions(tree)
            if (None, name) not in used
            and not (owner is not None
                     and any((member, name) in used
                             for member in _family(owner, bases)))}


def uncalled_public_names():
    """The public ``src/repro`` definitions that nothing outside the tests
    references."""
    return uncalled_in(_trees("src/repro"),
                       _trees("src", "examples", "benchmarks"))


def test_every_public_name_has_a_caller():
    uncalled = uncalled_public_names()
    assert sorted(uncalled - set(KEPT)) == []
    assert sorted(set(KEPT) - uncalled) == [], "stale KEPT entries"
    assert all(reason.strip() for reason in KEPT.values())


def test_a_word_in_a_comment_or_docstring_is_not_a_use():
    source = '''
import json
from somewhere import imported as renamed


def kept():
    """Calls documented_only() -- in prose."""
    # documented_only() again, in a comment
    json.dump(renamed, HEADERS)
    return recursive


def recursive():
    return recursive()


def binds_locally(items):
    for shadowed in items:
        print(shadowed)
    return kept

__all__ = ["exported_only"]
HEADERS = ("header_only", "by_name")
handler = getattr(object, "by_name")
'''
    names = [name for _owner, name in _references(ast.parse(source))]
    for absent in ("documented_only", "exported_only", "header_only", "dump",
                   "handler", "shadowed", "items"):
        assert absent not in names, absent
    assert {"by_name", "getattr", "object", "imported", "renamed"} <= set(names)
    # recursive's own call does not count, kept's reference does; a local
    # of the reading function is not the module-level name
    assert names.count("recursive") == 1
    assert "kept" in names


def test_a_self_call_counts_only_in_its_own_class_family():
    source = '''
class Base:
    def inherited(self):
        return 0

class A(Base):
    def run(self):
        return self.f() + self.inherited() + self.g()

    def g(self):
        return 1

class Sub(A):
    def f(self):
        return 2

class B:
    def f(self):
        return 3

    def g(self):
        return 4

def consume(b):
    return b.g()

USED = (Sub, B, consume)
'''
    tree = ast.parse(source)
    # A's self.f() calls its subclass's f and its base's inherited, not
    # B's f; a call on another receiver still matches every class by name
    # (B.g).  A.run is called by nothing.
    assert uncalled_in([tree], [tree]) == {"A.run", "B.f"}
