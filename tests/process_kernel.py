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
    """An event representing the lifetime of a running generator."""

    __slots__ = ("generator", "_label")

    def __init__(self, sim, generator, name=None):
        if not hasattr(generator, "send"):
            raise TypeError(f"Process requires a generator, got {generator!r}")
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        self._label = self.name
        # Bootstrap: resume once at the current time.
        bootstrap = Event(sim, name=f"{self._label}:start")
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    def _resume(self, event):
        if not event.ok:
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
            self.fail(exc)
            return
        if not isinstance(target, Event):
            self.generator.close()
            self.fail(SimulationError(f"process {self._label} yielded non-event {target!r}"))
            return
        if target.sim is not self.sim:
            self.generator.close()
            self.fail(SimulationError(f"process {self._label} yielded foreign event {target!r}"))
            return
        if target.processed:
            # Already fired: resume immediately via a zero-delay event to
            # preserve run-to-completion semantics.
            poke = Event(self.sim, name=f"{self._label}:poke")
            poke.callbacks.append(lambda _event: self._resume(target))
            poke.succeed()
        else:
            target.callbacks.append(self._resume)
