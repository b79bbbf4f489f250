"""DET03: the built-in ``sum`` must not add floats; ``math.fsum`` does.

From CPython 3.12 on, ``sum`` adds floats with compensated (Neumaier)
summation, so a float sum — and every mean taken from it — can differ in
its last bits between the interpreters a digest is pinned on.
``math.fsum`` is exactly rounded on every version, so it gives the same
bits everywhere.

Integer sums (counters, byte counts) are the common case and are exact on
any interpreter, so the rule flags a ``sum(...)`` only when it cannot show
its terms to be integers.  It can for a comprehension or generator whose
element is a ``len(...)`` call or a comparison (a bool).  Everything else
that is an integer sum says so with a pragma::

    total = sum(counts)  # repro: allow=DET03  (packet counts: ints)
"""

import ast

from repro.analysis.core import register

_COMPREHENSIONS = (ast.GeneratorExp, ast.ListComp, ast.SetComp)


def _int_terms(arg):
    """True when the iterable *arg* provably yields only ints."""
    if not isinstance(arg, _COMPREHENSIONS):
        return False
    term = arg.elt
    return isinstance(term, ast.Compare) or (
        isinstance(term, ast.Call) and isinstance(term.func, ast.Name)
        and term.func.id == "len")


@register
class Det03:
    rule_id = "DET03"
    description = ("the built-in sum() must not add floats: its result "
                   "differs between CPython 3.11 and 3.12")
    hint = ("use math.fsum() for floats; for an integer sum the rule cannot "
            "see, add '# repro: allow=DET03' saying what the terms count")

    def check(self, module):
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "sum" and node.args \
                    and not _int_terms(node.args[0]):
                yield module.finding(
                    self, node,
                    "sum(...) over terms not shown to be ints (CPython "
                    "3.12 adds floats with compensated summation)")
