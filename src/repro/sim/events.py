"""Events: the one way simulated work waits on other simulated work.

An :class:`Event` is a one-shot synchronisation point.  It starts *pending*,
is *triggered* exactly once (either :meth:`Event.succeed` or
:meth:`Event.fail`), and is then *processed* by the simulator, which runs all
registered callbacks, in the order they were appended, one engine event
after the trigger.

Waiting is ``event.callbacks.append(fn)``: ``fn(event)`` reads
``event.ok`` and ``event.value``.  A callback must be appended before the
event is processed — later ones are never run — so a wait hangs on an
event its caller has just made or knows to be pending (see "Waiting" in
``docs/contracts.md``).  Sleeping is :meth:`Simulator.call_in
<repro.sim.engine.Simulator.call_in>`, not an event.
"""

from repro.sim.errors import EventAlreadyTriggered


class _Expired:
    """Type of :data:`EXPIRED` (one instance, compared by identity)."""

    __slots__ = ()

    def __repr__(self):
        return "EXPIRED"


#: Value of an event whose :meth:`Event.expire_in` deadline passed before
#: anything triggered it.  A sentinel rather than ``None`` because ``None``
#: is what a bare ``succeed()`` delivers and what a reply's ``object``-typed
#: payload (a Map-Reply's mapping) is free to be.
EXPIRED = _Expired()


class Event:
    """A one-shot occurrence at a point in simulated time.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.engine.Simulator`.
    name:
        Optional label used in traces and ``repr``.
    """

    __slots__ = ("sim", "name", "callbacks", "_value", "_exception", "_triggered", "_processed")

    def __init__(self, sim, name=None):
        self.sim = sim
        self.name = name
        self.callbacks = []
        self._value = None
        self._exception = None
        self._triggered = False
        self._processed = False

    def __repr__(self):
        try:  # teardown clears an event's slots
            state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
            return f"<{self.name or self._default_label()} {state}>"
        except AttributeError:
            return f"<{type(self).__name__} torn down>"

    def _default_label(self):
        return self.__class__.__name__

    @property
    def triggered(self):
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._triggered

    @property
    def processed(self):
        """True once the simulator has run this event's callbacks."""
        return self._processed

    @property
    def ok(self):
        """True if the event succeeded (only meaningful once triggered)."""
        return self._triggered and self._exception is None

    @property
    def value(self):
        """The success value, or the failure exception if the event failed."""
        if self._exception is not None:
            return self._exception
        return self._value

    @property
    def exception(self):
        """The failure exception, or ``None`` if the event succeeded."""
        return self._exception

    def succeed(self, value=None):
        """Trigger the event successfully; its callbacks run next at this instant.

        A later success is ``sim.call_in(delay, event.succeed)``.
        """
        if self._triggered:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._triggered = True
        self._value = value
        self.sim._schedule(self)
        return self

    def fail(self, exception):
        """Trigger the event as failed with *exception*.

        Its callbacks see ``ok`` false and the exception as ``value``; a
        waiter that cannot handle it raises it, out of ``sim.run()``.
        """
        if self._triggered:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception, got {exception!r}")
        self._triggered = True
        self._exception = exception
        self.sim._schedule(self)
        return self

    def expire_in(self, delay):
        """Succeed with :data:`EXPIRED` after *delay* unless triggered first.

        The one-shot request/reply wait:
        ``waiter.expire_in(timeout).callbacks.append(fn)`` runs ``fn`` with
        the reply the moment it is triggered, or with ``EXPIRED`` as the
        value at exactly ``now + delay``.  The deadline is one pending
        foreground call; when the reply won it still fires, into nothing.
        A reply and the deadline on one timestamp resolve in queue
        insertion order.  Returns the event.
        """
        self.sim.call_in(delay, self._expire)
        return self

    def _expire(self):
        if not self._triggered:
            self.succeed(EXPIRED)

    def _run_callbacks(self):
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)


class Timeout(Event):
    """An event that fires after a fixed delay, carrying an optional value.

    A sleep several waiters can share; a sleep with one continuation is
    :meth:`~repro.sim.engine.Simulator.call_in`.  An unnamed one only
    formats its ``Timeout(d)`` label when ``repr`` asks.
    """

    __slots__ = ("delay",)

    def __init__(self, sim, delay, value=None, name=None):
        if not delay >= 0:  # also refuses NaN, which compares false
            raise ValueError(f"negative timeout delay: {delay}")
        Event.__init__(self, sim, name)
        self.delay = delay
        self._triggered = True
        self._value = value
        sim._schedule(self, delay)

    def _default_label(self):
        return f"Timeout({self.delay})"
