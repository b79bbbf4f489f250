"""Tests for statistics and table rendering."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics import confidence_interval, format_table, percentile, summarize
from repro.metrics.stats import mean, stdev


def test_percentile_basic():
    values = list(range(1, 101))
    assert percentile(values, 0) == 1
    assert percentile(values, 100) == 100
    assert percentile(values, 50) == pytest.approx(50.5)


def test_percentile_interpolates():
    assert percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)


def test_percentile_single_value():
    assert percentile([7.0], 95) == 7.0


def test_percentile_errors():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 101)


def test_mean_and_stdev():
    assert mean([1, 2, 3]) == 2
    assert stdev([2, 2, 2]) == 0
    assert stdev([1]) == 0
    assert stdev([1, 3]) == pytest.approx(math.sqrt(2))


def test_confidence_interval_contains_mean():
    low, high = confidence_interval([1, 2, 3, 4, 5])
    assert low < 3 < high


def test_confidence_interval_single_value():
    assert confidence_interval([4.0]) == (4.0, 4.0)


def test_summarize_fields():
    summary = summarize([1.0, 2.0, 3.0, 4.0])
    assert summary["count"] == 4
    assert summary["mean"] == 2.5
    assert summary["min"] == 1.0
    assert summary["max"] == 4.0


def test_summarize_empty_is_nan():
    summary = summarize([])
    assert summary["count"] == 0
    assert math.isnan(summary["mean"])


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=60),
       st.integers(min_value=0, max_value=100))
def test_percentile_within_range(values, q):
    result = percentile(values, q)
    assert min(values) <= result <= max(values)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=60))
def test_percentile_monotone_in_q(values):
    assert percentile(values, 25) <= percentile(values, 75)


def test_format_table_alignment():
    table = format_table(("name", "value"), [("a", 1), ("long-name", 22.5)],
                         title="demo")
    lines = table.splitlines()
    assert lines[0] == "demo"
    assert "name" in lines[1] and "value" in lines[1]
    assert len(lines) == 5
    # All rows same rendered width.
    assert len(set(len(line) for line in lines[2:])) <= 2


def test_format_table_float_rendering():
    table = format_table(("x",), [(0.000123,), (1234567.0,), (2.5,)])
    assert "0.000123" in table
    assert "1,234,567" in table
    assert "2.500" in table

