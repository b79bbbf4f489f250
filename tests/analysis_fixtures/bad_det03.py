"""DET03 fixture: float sums through the built-in sum()."""

import math


def mean(values):
    return sum(values) / len(values)


def spread(values):
    centre = math.fsum(values) / len(values)
    return sum((value - centre) ** 2 for value in values)


def counts(tables, flags, items):
    """Sums the rule can show to be ints, and one a pragma vouches for."""
    lengths = sum(len(table) for table in tables)
    hits = sum(flag in items for flag in flags)
    vouched = sum(item.count for item in items)  # repro: allow=DET03
    return lengths + hits + vouched
