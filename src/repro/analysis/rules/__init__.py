"""Bundled contract checkers; importing this package registers them all.

Each module defines one rule (its id is the module name, uppercased) and
registers it with :func:`repro.analysis.core.register`.  Adding a rule is:
drop a module here, import it below, add a fixture module plus a test in
``tests/test_analysis.py`` (see docs/contracts.md).
"""

from repro.analysis.rules import det01, det02, det03, snap01, snap03

__all__ = ["snap01", "snap03", "det01", "det02", "det03"]
