"""Structured event tracing.

The tracer records ``(time, source, kind, detail)`` tuples.  Experiments use
it both to verify protocol behaviour (e.g. the Fig. 1 step ordering) and to
derive metrics that are awkward to maintain as counters.
"""

from dataclasses import dataclass, field

from repro.sim.state import Checkpointed


@dataclass(frozen=True)
class TraceRecord:
    """A single traced occurrence."""

    time: float
    source: str
    kind: str
    detail: dict = field(default_factory=dict)

    def __str__(self):
        details = " ".join(f"{key}={value}" for key, value in sorted(self.detail.items()))
        return f"[{self.time:12.6f}] {self.source:<24} {self.kind:<28} {details}"


class Tracer(Checkpointed):
    """Collects :class:`TraceRecord` objects.

    By default everything is recorded.  One built with ``enabled=False``
    drops everything — its :meth:`record` is a single attribute
    check, which is what lets large parameter sweeps run the data path
    without paying for per-packet record allocation.
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.records = []

    def record(self, time, source, kind, **detail):
        """Record an occurrence; returns the record (None when disabled)."""
        if not self.enabled:
            return None
        entry = TraceRecord(time=time, source=str(source), kind=kind, detail=detail)
        self.records.append(entry)
        return entry

    def of_kind(self, *kinds):
        """All records whose kind matches any of *kinds* exactly."""
        wanted = set(kinds)
        return [record for record in self.records if record.kind in wanted]

    def snapshot_state(self):
        return (len(self.records), self.enabled)

    def restore_state(self, state):
        length, self.enabled = state
        del self.records[length:]
