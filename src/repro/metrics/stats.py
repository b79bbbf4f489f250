"""Small, dependency-free statistics helpers."""

import math


def percentile(values, q):
    """The *q*-th percentile (0-100) with linear interpolation."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile out of range: {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    fraction = rank - low
    # a + f*(b-a) rather than (1-f)*a + f*b: exact when a == b, and never
    # escapes [a, b] to floating-point rounding.
    return ordered[low] + fraction * (ordered[high] - ordered[low])


def mean(values):
    if not values:
        raise ValueError("mean of empty sequence")
    return math.fsum(values) / len(values)


def stdev(values):
    """Sample standard deviation (0.0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    centre = mean(values)
    return math.sqrt(math.fsum((v - centre) ** 2 for v in values)
                     / (len(values) - 1))


#: Standard-normal quantile of a two-sided 95% interval.
Z_95 = 1.96


def confidence_interval(values):
    """(low, high) normal-approximation 95% CI of the mean."""
    if not values:
        raise ValueError("confidence interval of empty sequence")
    centre = mean(values)
    if len(values) < 2:
        return (centre, centre)
    margin = Z_95 * stdev(values) / math.sqrt(len(values))
    return (centre - margin, centre + margin)


def summarize(values):
    """Dict with count/mean/median/p95/min/max/stdev for reporting."""
    if not values:
        return {"count": 0, "mean": float("nan"), "median": float("nan"),
                "p95": float("nan"), "min": float("nan"), "max": float("nan"),
                "stdev": float("nan")}
    return {
        "count": len(values),
        "mean": mean(values),
        "median": percentile(values, 50),
        "p95": percentile(values, 95),
        "min": min(values),
        "max": max(values),
        "stdev": stdev(values),
    }
