"""Every option of ``src/repro`` has a setter outside the tests.

An option is a parameter with a default of a public callable (a public
function, or ``__init__`` or a public method of a public class) or a
field of one of :data:`CONFIGS`.  Something in ``src/``, ``examples/`` or
``benchmarks/`` must pass it a value: by keyword (matched by name,
whatever the callee), as the string key of a dict literal, or by position
where the callee's name is defined once.  A same-name pass-through
(``x=x``, ``x=config.x``) passes nothing, and the tests do not count: a
value only a test varies is one no run of the simulator ever varies.  An
option nothing sets runs at its default everywhere: it is a constant, and
goes; one every caller passes loses its default instead.

:data:`KEPT` holds the exceptions, each for one of three reasons: the
matcher cannot see a setter outside the tests; the option is a test
oracle's switch; or only a digested :class:`SweepGrid` field forwards it.

The same holds one level down, for the values of a field validated
against a closed set (:data:`CLOSED_SETS`): a member nothing outside the
tests can select is a branch no run takes.
"""

import ast
import pathlib
from dataclasses import fields

from repro.core.pce import POLICIES as IRC_POLICIES
from repro.experiments.scenario import (CONTROL_PLANES, MISS_POLICIES,
                                        ScenarioConfig)
from repro.experiments.grid import AXES
from repro.experiments.workload import WorkloadConfig
from repro.net.topogen import FAMILIES
from repro.traffic.popularity import PACING_MODES, SIZE_DISTRIBUTIONS
from test_api_surface import _trees as _non_test_trees

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The config dataclasses whose every field is an option.
CONFIGS = ("ScenarioConfig", "WorkloadConfig", "SweepGrid", "TopologySpec")

#: Options set where the matcher cannot see it, as ``callee.option``, each
#: with the reason.
KEPT = {
    "lookup.qtype": "servers pass the question's qtype by position, and "
                    "several methods are named lookup",
    "resolve.qtype": "the recursive server passes the question's qtype "
                     "by position, and several methods are named resolve",
    "make_query.qtype": "the resolver passes the qtype it resolves, a "
                        "parameter of the same name",
    "main.argv": "tests call both CLIs' main by position, and two "
                 "functions are named main",
    "WorkloadConfig.size_dist": "the size_dist sweep axis sets it through "
                                "kwargs[axis.config][axis.kwarg]",
    **{f"{callee}.drained": "test oracle: drained=True counts bytes still "
                            "in flight as conservation violations"
       for callee in ("byte_accounting", "conservation_violations")},
    **{f"{config}.hosts_per_site": "only the digested SweepGrid field "
                                   "forwards it"
       for config in ("SweepGrid", "ScenarioConfig", "TopologySpec")},
}


def _trees(*tops):
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield ast.parse(path.read_text())


def _signature(function, method):
    """Positional parameters (after ``self``) and defaulted ones."""
    args = function.args
    names = [arg.arg for arg in args.posonlyargs + args.args]
    defaulted = names[len(names) - len(args.defaults):]
    defaulted += [arg.arg for arg, default
                  in zip(args.kwonlyargs, args.kw_defaults, strict=True)
                  if default is not None]
    return names[1:] if method else names, defaulted


def _options():
    """``{(callee, option)}`` and ``{callee: [positional parameters]}``."""
    options, positions = set(), {}

    def add(callee, params, defaulted):
        positions.setdefault(callee, []).append(params)
        options.update((callee, name) for name in defaulted
                       if not name.startswith("_"))

    for tree in _trees("src/repro"):
        for node in tree.body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                add(node.name, *_signature(node, method=False))
            elif isinstance(node, ast.ClassDef):
                if node.name in CONFIGS:
                    fields = [item.target.id for item in node.body
                              if isinstance(item, ast.AnnAssign)]
                    add(node.name, fields, fields)
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    method = not any(getattr(decorator, "id", None)
                                     == "staticmethod"
                                     for decorator in item.decorator_list)
                    if item.name == "__init__":
                        add(node.name, *_signature(item, method))
                    elif not item.name.startswith("_"):
                        add(item.name, *_signature(item, method))
    return options, positions


def _passes_through(name, value):
    return (isinstance(value, ast.Name) and value.id == name
            or isinstance(value, ast.Attribute) and value.attr == name)


def _setters(positions):
    """Option names passed by keyword or dict key, and the
    ``(callee, option)`` pairs passed by position."""
    names, pairs = set(), set()
    for tree in _trees("src", "examples", "benchmarks"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                names.update(key.value for key, value
                             in zip(node.keys, node.values, strict=True)
                             if isinstance(key, ast.Constant)
                             and isinstance(key.value, str)
                             and not _passes_through(key.value, value))
            if not isinstance(node, ast.Call):
                continue
            names.update(keyword.arg for keyword in node.keywords
                         if keyword.arg is not None
                         and not _passes_through(keyword.arg, keyword.value))
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            signatures = positions.get(callee, ())
            if len(signatures) != 1:
                continue
            for param, value in zip(signatures[0], node.args, strict=False):
                if isinstance(value, ast.Starred):
                    break
                if not _passes_through(param, value):
                    pairs.add((callee, param))
    return names, pairs


def test_every_option_has_a_setter():
    options, positions = _options()
    names, pairs = _setters(positions)
    unset = {f"{callee}.{option}" for callee, option in options
             if option not in names and (callee, option) not in pairs}
    assert sorted(unset - set(KEPT)) == []
    assert sorted(set(KEPT) - unset) == [], "stale KEPT entries"
    assert all(reason.strip() for reason in KEPT.values())


#: Every :class:`ScenarioConfig` / :class:`WorkloadConfig` field validated
#: against a closed set, with the set.
CLOSED_SETS = {
    (ScenarioConfig, "control_plane"): CONTROL_PLANES,
    (ScenarioConfig, "topology"): FAMILIES,
    (ScenarioConfig, "miss_policy"): MISS_POLICIES,
    (ScenarioConfig, "irc_policy"): IRC_POLICIES,
    (WorkloadConfig, "size_dist"): SIZE_DISTRIBUTIONS,
    (WorkloadConfig, "pacing"): PACING_MODES,
}
#: The string fields no closed set validates, each with the reason.
OPEN_STRINGS = {
    (WorkloadConfig, "mode"): "a flow is TCP if it says tcp, else UDP",
}


def _literal_choices():
    """``{field: {string}}`` passed outside the tests as a string literal:
    by keyword (``irc_policy="primary"``) or as a dict literal's value
    under the field's name (``{"miss_policy": "queue"}``)."""
    chosen = {}
    for tree in _non_test_trees("src", "examples", "benchmarks"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                pairs = [(keyword.arg, keyword.value)
                         for keyword in node.keywords]
            elif isinstance(node, ast.Dict):
                pairs = [(key.value, value) for key, value
                         in zip(node.keys, node.values, strict=True)
                         if isinstance(key, ast.Constant)]
            else:
                continue
            for name, value in pairs:
                if isinstance(value, ast.Constant) \
                        and isinstance(value.value, str):
                    chosen.setdefault(name, set()).add(value.value)
    return chosen


def test_every_string_field_is_a_closed_set_or_open():
    strings = {(config, spec.name)
               for config in (ScenarioConfig, WorkloadConfig)
               for spec in fields(config) if spec.type is str}
    assert strings == set(CLOSED_SETS) | set(OPEN_STRINGS)


def test_every_member_of_a_closed_set_can_be_chosen():
    """Each member is the field's default, set by a literal outside the
    tests, or taken by the ``repro sweep`` flag of the field's axis."""
    flagged = {axis.kwarg: axis for axis in AXES
               if axis.flag is not None and axis.config is not None}
    chosen = _literal_choices()
    unchosen = []
    for (config, name), members in CLOSED_SETS.items():
        axis = flagged.get(name)
        unchosen += [f"{config.__name__}.{name}={member!r}"
                     for member in members
                     if member != getattr(config(), name)
                     and member not in chosen.get(name, ())
                     and not (axis is not None
                              and (axis.valid is None or axis.valid(member)))]
    assert unchosen == []
