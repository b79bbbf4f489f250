"""The checker framework behind ``repro analyze``.

The reproduction rests on two contracts that runtime tests can only probe
where they happen to look: simulations must be bit-deterministic for a
given seed (sweep digests are gated on worker-count independence), and
every stateful component must checkpoint/restore *completely* (world reuse
restores components in place; a forgotten attribute silently leaks one
run's state into the next).  This package makes those contracts
machine-checked: each rule is an AST pass over the source tree, findings
carry ``file:line``, a rule id and a fix hint, and the CLI exits nonzero
when anything fires — cheap enough to run on every commit.

Rules register themselves in :data:`REGISTRY` via :func:`register`; the
rule modules under :mod:`repro.analysis.rules` are imported for their
registration side effect by :func:`load_default_rules`.  A checker is an
object with ``rule_id``, ``description`` and ``hint`` attributes and a
``check(module)`` generator yielding :class:`Finding` objects.

Suppressions
------------

A finding can be silenced at its exact line with a pragma comment::

    value = random.Random(reproducible_seed)  # repro: allow=DET01

``allow=*`` silences every rule on the line.  Class-shaped escape hatches
(the ``_SNAPSHOT_EXEMPT`` attribute consumed by SNAP01) live with the rule
that defines them.
"""

import ast
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

#: rule id -> checker instance (registration order preserved).
REGISTRY = {}

_PRAGMA = re.compile(r"#\s*repro:\s*allow=([A-Za-z0-9*,\s]+)")


def register(cls):
    """Class decorator: instantiate *cls* and add it to :data:`REGISTRY`."""
    checker = cls()
    if checker.rule_id in REGISTRY:
        raise ValueError(f"duplicate rule id {checker.rule_id}")
    REGISTRY[checker.rule_id] = checker
    return cls


def load_default_rules():
    """Import the bundled rule modules (idempotent); returns the registry."""
    from repro.analysis import rules  # noqa: F401  (import registers rules)

    return REGISTRY


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    path: str
    line: int
    message: str
    hint: str = ""

    def render(self):
        text = f"{self.path}:{self.line}: {self.rule_id} {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def as_dict(self):
        return {"rule": self.rule_id, "path": self.path, "line": self.line,
                "message": self.message, "hint": self.hint}


@dataclass
class ModuleInfo:
    """A parsed source module handed to every checker.

    ``allowed`` maps line numbers to the set of rule ids suppressed there
    (``{"*"}`` suppresses everything on the line).
    """

    path: str
    source: str
    tree: ast.AST
    allowed: dict = field(default_factory=dict)

    def finding(self, checker, node, message, hint=None):
        """Build a :class:`Finding` anchored at *node* (or an int line)."""
        line = node if isinstance(node, int) else node.lineno
        return Finding(rule_id=checker.rule_id, path=self.path, line=line,
                       message=message,
                       hint=checker.hint if hint is None else hint)

    def is_allowed(self, rule_id, line):
        allowed = self.allowed.get(line, ())
        return "*" in allowed or rule_id in allowed


def _collect_pragmas(source):
    """line -> set of rule ids allowed there, from ``# repro: allow=`` comments.

    Comments are found with the tokenizer, not a per-line regex, so pragma
    text inside string literals does not suppress anything.
    """
    allowed = {}
    lines = source.splitlines(keepends=True)
    try:
        tokens = tokenize.generate_tokens(iter(lines).__next__)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _PRAGMA.search(token.string)
            if match:
                rules = {part.strip() for part in match.group(1).split(",")}
                allowed.setdefault(token.start[0], set()).update(
                    rule for rule in rules if rule)
    except tokenize.TokenError:
        pass
    return allowed


def parse_module(path):
    """Parse *path* into a :class:`ModuleInfo`, or None on syntax errors.

    Unparseable files are a job for the interpreter/linter, not the
    contract checkers; they are skipped rather than reported.
    """
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError:
        return None
    return ModuleInfo(path=str(path), source=source, tree=tree,
                      allowed=_collect_pragmas(source))


def iter_python_files(paths):
    """Every ``.py`` file under *paths* (files given directly are kept).

    A path that does not exist raises :class:`ValueError` — a typo'd tree
    silently reporting "0 findings" would defeat the CI gate.
    """
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise ValueError(f"no such file or directory: {path}")
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def analyze_paths(paths, rules):
    """Run *rules* (None: every registered rule) over *paths*.

    Returns a list of :class:`Finding` objects sorted by (path, line,
    rule); pragma-suppressed findings are dropped.
    """
    load_default_rules()
    if rules is None:
        checkers = list(REGISTRY.values())
    else:
        unknown = sorted(set(rules) - set(REGISTRY))
        if unknown:
            raise ValueError(f"unknown rule ids: {', '.join(unknown)} "
                             f"(available: {', '.join(sorted(REGISTRY))})")
        checkers = [REGISTRY[rule_id] for rule_id in rules]
    findings = []
    for file_path in iter_python_files(paths):
        module = parse_module(file_path)
        if module is None:
            continue
        for checker in checkers:
            for finding in checker.check(module):
                if not module.is_allowed(finding.rule_id, finding.line):
                    findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule_id))
    return findings
