"""Exceptions raised by the simulation kernel."""


class SimulationError(Exception):
    """Base class for all kernel-level errors."""


class EventAlreadyTriggered(SimulationError):
    """An event was succeeded or failed twice."""
