"""Discrete-event simulation kernel.

This package provides the simulation substrate used by every other layer of
the reproduction: a deterministic event queue (:class:`~repro.sim.engine.Simulator`),
one-shot events that waiters hang callbacks on (:class:`~repro.sim.events.Event`),
named and reproducible random streams (:class:`~repro.sim.rng.RandomStreams`),
and a structured event tracer (:class:`~repro.sim.trace.Tracer`).

The kernel is intentionally small and fully synchronous: a single heap
orders events by (time, sequence), so two runs with the same seed produce
byte-identical traces.
"""

from repro.sim.engine import Simulator
from repro.sim.errors import SimulationError
from repro.sim.events import Event, Timeout
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "Event",
    "RandomStreams",
    "SimulationError",
    "Simulator",
    "Timeout",
    "TraceRecord",
    "Tracer",
]
