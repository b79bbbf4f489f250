"""Generator-based simulated processes, kept as the kernel of reference code.

Until the simulator's waits all became callbacks on events, ``src/`` ran
its pull paths (the xTR miss, ALT/CONS/NERD resolution, the resolver's
walk, RLOC probes, the TCP handshake, the scripted senders) as generators
under this kernel.  ``tests/reference_driver.py`` keeps those generators
as the oracle the callback code is compared against, and tests that
script a scenario step by step still write it as a process.  Nothing in
``src/`` imports this module.

A process is a Python generator that yields :class:`~repro.sim.events.Event`
objects.  Each yield suspends the process until the event fires; the event's
value is sent back into the generator (or its exception thrown).  A process
is itself an event that fires with the generator's return value, so processes
can wait on each other::

    def worker(sim):
        yield sim.timeout(1.0)
        return "done"

    def supervisor(sim):
        result = yield Process(sim, worker(sim))
        assert result == "done"

Starting one costs a zero-delay bootstrap event, and finishing one a
completion event, on top of whatever it waits for.
"""

from repro.sim.errors import SimulationError
from repro.sim.events import Event


class Process(Event):
    """An event representing the lifetime of a running generator.

    It succeeds with the generator's return value.  A generator that
    raises, or yields anything but an event of its own simulator, fails
    the process instead: the process succeeds with the error, keeps it in
    :attr:`exception`, and a process waiting on it has it thrown in.
    """

    __slots__ = ("generator", "_label", "exception", "processed")

    def __init__(self, sim, generator, name=None):
        if not hasattr(generator, "send"):
            raise TypeError(f"Process requires a generator, got {generator!r}")
        super().__init__(sim)
        self.generator = generator
        self._label = name or getattr(generator, "__name__", "process")
        self.exception = None
        self.processed = False
        # Bootstrap: resume once at the current time.
        bootstrap = Event(sim)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    def _default_label(self):
        return self._label

    @property
    def ok(self):
        """True once the generator returned (rather than failed)."""
        return self._triggered and self.exception is None

    def _run_callbacks(self):
        self.processed = True
        super()._run_callbacks()

    def _fail(self, exception):
        self.exception = exception
        self.succeed(exception)

    def _resume(self, event):
        if isinstance(event, Process) and event.exception is not None:
            self._step(throw=event.exception)
        else:
            self._step(value=event.value)

    def _step(self, value=None, throw=None):
        if self._triggered:
            return
        try:
            if throw is not None:
                target = self.generator.throw(throw)
            else:
                target = self.generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Exception as exc:
            # Any other uncaught exception fails the process; waiters get the
            # exception thrown into them, mirroring how awaiting a failed
            # coroutine behaves.
            self.sim.trace.record(self.sim.now, self._label, "process.failed",
                                  error=repr(exc))
            self._fail(exc)
            return
        if not isinstance(target, Event):
            self.generator.close()
            self._fail(SimulationError(f"process {self._label} yielded non-event {target!r}"))
            return
        if target.sim is not self.sim:
            self.generator.close()
            self._fail(SimulationError(f"process {self._label} yielded foreign event {target!r}"))
            return
        if _processed(target):
            # Already fired: resume immediately via a zero-delay event to
            # preserve run-to-completion semantics.
            poke = Event(self.sim)
            poke.callbacks.append(lambda _event: self._resume(target))
            poke.succeed()
        else:
            target.callbacks.append(self._resume)


def _processed(event):
    """Whether *event*'s callbacks have run, so a callback appended now
    would never run: a process knows; any other event has run them once
    it is triggered and no longer queued."""
    if isinstance(event, Process):
        return event.processed
    return event._triggered and not any(
        queued is event for queued in event.sim.queued_events())
