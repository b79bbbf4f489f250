"""Statistics and reporting helpers used by tests, benchmarks and examples."""

from repro.metrics.stats import confidence_interval, percentile, summarize
from repro.metrics.tables import format_table, rounded

__all__ = ["confidence_interval", "format_table", "percentile", "rounded",
           "summarize"]
