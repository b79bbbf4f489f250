"""Every example script runs to completion, exits 0 and prints its bytes."""

import hashlib
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples").glob("*.py"))

#: sha256 of each example's stdout.  The examples are deterministic, so a
#: refactor under them must leave every one of these alone.
STDOUT_SHA256 = {
    "cache_aging.py":
        "c9f04936630b885226361f0bb1c3be1b230b39266b89f7d655f0f73adc54995a",
    "mapping_system_comparison.py":
        "89a05d376709d792d730ba034dd90ee620567da04db88daf4718c853b8ee3532",
    "quickstart.py":
        "3264f9b7480d43db7cfd4a779b4557f4b3507fb73a4d3a068bcafe2a44df3e49",
    "shaped_sweep.py":
        "e186ed180febf3c87f5cccc36e5855f05eed856b99137c4716b6de4c31023477",
    "sweep_grid.py":
        "c168b43ea9a348fe93bd03d73de669cfd44d7136c8bdfeaaeb4312ce736bbaf2",
    "te_multihoming.py":
        "fd39a33fe61785fd533a06827d9d351a700f9266f0b38707884b4216e16401e7",
}


def test_examples_exist():
    names = {path.name for path in EXAMPLES}
    assert "quickstart.py" in names
    assert names == set(STDOUT_SHA256)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script):
    result = subprocess.run([sys.executable, str(script)], capture_output=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "example produced no output"
    assert b"FAILED" not in result.stdout
    assert hashlib.sha256(result.stdout).hexdigest() \
        == STDOUT_SHA256[script.name], result.stdout.decode()
