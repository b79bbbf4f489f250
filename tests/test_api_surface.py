"""Every public name of ``src/repro`` has a caller.

A ``def``/``class`` name that does not start with ``_`` must appear in at
least one line of ``src/``, ``examples/`` or ``benchmarks/`` that is not
its own definition, an import or an ``__all__`` re-export.  What only the
tests call is either a reference that lives in the tests, or dead.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: Names kept on purpose, each with the reason nothing calls it.
KEPT = {
    **{rule: "registered by its @register decorator; the registry calls it"
       for rule in ("Det01", "Det02", "Det03", "Snap01", "Snap02", "Snap03")},
    "pending_foreground": "how tests see that a world has settled (the "
                          "serializable check itself reads the counter)",
    "confidence_interval": "what the seed-robustness item folds "
                           "check_shape over seeds with (ROADMAP)",
    "probability": "ZipfSampler's analytic pmf: what the tests hold its "
                   "cumulative table and its draws to",
    "add_cname": "the only way a zone comes to hold a CNAME; the resolver's "
                 "alias chase is tested through it",
}


def _sources(*tops):
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            source = path.read_text()
            yield source, ast.parse(source)


def test_every_public_name_has_a_caller():
    defined = {node.name for _source, tree in _sources("src/repro")
               for node in ast.walk(tree)
               if isinstance(node, _DEFINITIONS)
               and not node.name.startswith("_")}
    used = set()
    for source, tree in _sources("src", "examples", "benchmarks"):
        skipped = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.Assign)
                    and getattr(node.targets[0], "id", None) == "__all__"):
                skipped.update(range(node.lineno, node.end_lineno + 1))
        for number, line in enumerate(source.splitlines(), 1):
            if number not in skipped:
                line = re.sub(r"^\s*(async\s+)?(def|class)\s+\w+", "", line)
                used.update(re.findall(r"\w+", line))
    uncalled = defined - used
    assert sorted(uncalled - set(KEPT)) == []
    assert sorted(set(KEPT) - uncalled) == [], "stale KEPT entries"
    assert all(reason.strip() for reason in KEPT.values())
