"""``tests/golden/reach.json`` is well formed, without running the runners.

``tests/reach.py`` (a CI step) traces the runners and compares what they
never enter with the golden file; this checks only the file itself: every
key names a ``src/repro`` function, every reason is one of the closed set,
and a ``KEPT`` reason names a test file that exists.
"""

import json
import os

from reach import GOLDEN, REASONS, ROOT, functions


def _golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


def test_every_listed_function_exists():
    assert sorted(set(_golden()) - set(functions().values())) == []


def test_every_reason_is_in_the_closed_set():
    for key, reason in _golden().items():
        if reason.startswith("KEPT: "):
            test = reason.removeprefix("KEPT: ")
            assert os.path.basename(test).startswith("test_"), key
            assert os.path.isfile(os.path.join(ROOT, test)), key
        else:
            assert reason in REASONS, key


def test_only_the_forking_call_is_a_forked_child():
    assert [key for key, reason in _golden().items()
            if reason == "forked child"] == ["repro.experiments.worldrun:_branched"]
