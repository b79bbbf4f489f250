"""Events: the one way simulated work waits on other simulated work.

An :class:`Event` is a one-shot synchronisation point.  It starts *pending*,
is *triggered* exactly once by :meth:`Event.succeed`, and one engine event
later the simulator runs all registered callbacks, in the order they were
appended.

Waiting is ``event.callbacks.append(fn)``: ``fn(event)`` reads
``event.value``.  An event has one outcome, its value: an exchange that
can go unanswered says so in it (``None`` for a request that timed out).
A callback must be appended before the event's callbacks run — later ones
are never run — so a wait hangs on an event its caller has just made or
knows to be pending (see "Waiting" in ``docs/contracts.md``).  Sleeping is
:meth:`Simulator.call_in <repro.sim.engine.Simulator.call_in>`, not an
event, and so is an exchange's deadline.
"""

from repro.sim.errors import EventAlreadyTriggered


class Event:
    """A one-shot occurrence at a point in simulated time.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.engine.Simulator`.
    """

    __slots__ = ("sim", "callbacks", "value", "_triggered")

    def __init__(self, sim):
        self.sim = sim
        self.callbacks = []
        #: What the event succeeded with (``None`` until then).
        self.value = None
        self._triggered = False

    def __repr__(self):
        try:  # teardown clears an event's slots
            state = "triggered" if self._triggered else "pending"
            return f"<{self._default_label()} {state}>"
        except AttributeError:
            return f"<{type(self).__name__} torn down>"

    def _default_label(self):
        return type(self).__name__

    def succeed(self, value=None):
        """Trigger the event with *value*; its callbacks run next at this instant.

        A later success is ``sim.call_in(delay, event.succeed)``.
        """
        if self._triggered:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._triggered = True
        self.value = value
        self.sim._schedule(self)
        return self

    def _run_callbacks(self):
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)


class Timeout(Event):
    """An event that fires after a fixed delay, carrying an optional value.

    A sleep several waiters can share; a sleep with one continuation is
    :meth:`~repro.sim.engine.Simulator.call_in`.  Its ``Timeout(d)`` label
    is formatted only when ``repr`` asks.
    """

    __slots__ = ("delay",)

    def __init__(self, sim, delay, value=None):
        if not delay >= 0:  # also refuses NaN, which compares false
            raise ValueError(f"negative timeout delay: {delay}")
        Event.__init__(self, sim)
        self.delay = delay
        self._triggered = True
        self.value = value
        sim._schedule(self, delay)

    def _default_label(self):
        return f"Timeout({self.delay})"
