"""The simulation engine: a deterministic time-ordered event queue."""

from heapq import heappop, heappush
from math import nextafter

from repro.sim.events import Event, Timeout
from repro.sim.periodic import PeriodicTask
from repro.sim.rng import RandomStreams
from repro.sim.state import Checkpointed
from repro.sim.trace import Tracer

_FOREVER = float("inf")


class Simulator(Checkpointed):
    """Deterministic discrete-event simulator.

    Events are processed in (time, insertion) order — there is no priority
    lane — so behaviour is fully reproducible for a given seed.

    The queue is one ``heapq`` of plain tuples ``(when, sequence, callback,
    args)``; a pending :meth:`call_in` is that tuple and nothing else.
    Counted on the perf ledger's workloads, 85–99 % of the timestamps in
    use hold a single entry and 2–23 % of events are zero-delay, so
    grouping entries by timestamp would cost an allocation per event to
    save a sift for few of them.

    The queue holds two kinds of entries: *foreground* events (scheduled
    calls, timeouts, triggered events' callbacks — finite work the
    simulation must complete) and *background* ticks of registered
    :class:`~repro.sim.periodic.PeriodicTask` objects, each riding in the
    callback slot itself.  Both share one queue so their interleaving is
    deterministic, but only foreground entries count as pending work:
    ``run()`` with no ``until`` drains foreground events (firing any
    background ticks that fall before them in time) and stops when no
    foreground work remains, even while periodic tasks stay armed.  That is what makes worlds with perpetual
    periodic work settle-able and therefore checkpointable.

    Parameters
    ----------
    seed:
        Master seed for :class:`~repro.sim.rng.RandomStreams`.
    tracing:
        When False the tracer is disabled (sweep runs skip per-event
        record allocation entirely).
    """

    def __init__(self, seed=0, tracing=True):
        self.now = 0.0
        self.rng = RandomStreams(seed)
        self.trace = Tracer(enabled=tracing)
        self._queue = []
        self._sequence = 0
        self._processed_events = 0
        self._foreground = 0
        self._periodic = []

    # ------------------------------------------------------------------ #
    # Event construction helpers
    # ------------------------------------------------------------------ #

    def event(self):
        """A fresh pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay, value=None):
        """An event firing *delay* time units from now."""
        return Timeout(self, delay, value=value)

    def periodic(self, callback, period, name=None):
        """Register a :class:`PeriodicTask` running *callback* every *period*.

        The task is created disarmed; call ``.start()`` on the result to
        schedule its first tick (one full period from then).
        """
        return PeriodicTask(self, callback, period, name=name)

    def call_in(self, delay, callback, *args):
        """Run ``callback(*args)`` after *delay* time units; returns ``None``.

        Nothing waits on a scheduled call: it *is* the sleep, and what runs
        after it is *callback*.  Work that others wait on is an
        :class:`Event` they append callbacks to.
        """
        if not delay >= 0:  # also refuses NaN, which compares false
            raise ValueError(f"negative timeout delay: {delay}")
        self._sequence = sequence = self._sequence + 1
        self._foreground += 1
        heappush(self._queue, (self.now + delay, sequence, callback, args))

    def call_at(self, when, callback, *args):
        """Run ``callback(*args)`` at absolute time *when* (>= now).

        The call lands on *when* itself, not on ``now + (when - now)``,
        which rounding puts an ulp away from *when* for a few percent of
        the pairs with ``now < when / 2`` (closer pairs subtract exactly).
        """
        if not when >= self.now:
            raise ValueError(f"call_at({when}) is in the past (now={self.now})")
        self._sequence = sequence = self._sequence + 1
        self._foreground += 1
        heappush(self._queue, (when, sequence, callback, args))

    def reserve(self, count):
        """Set aside the next *count* insertion keys; returns a :class:`Reservation`.

        What the reservation queues later sorts as if it had been queued
        now: after everything already queued for its instant and before
        everything queued after this call.  Every later key shifts up by
        *count*, which moves no entry's order.
        """
        first = self._sequence + 1
        self._sequence += count
        return Reservation(self, first, count)

    # ------------------------------------------------------------------ #
    # Scheduling and the main loop
    # ------------------------------------------------------------------ #

    def _schedule(self, event, delay=0.0):
        """Queue *event*'s callbacks to run *delay* from now (foreground).

        *delay* is a :class:`Timeout`'s, validated there; a triggered
        event's callbacks run at the current instant.
        """
        self._sequence = sequence = self._sequence + 1
        self._foreground += 1
        heappush(self._queue,
                 (self.now + delay, sequence, event._run_callbacks, ()))

    def _register_periodic(self, task):
        self._periodic.append(task)

    def _schedule_periodic(self, task, when):
        """Push a background tick entry for *task*; returns its sequence."""
        self._sequence = sequence = self._sequence + 1
        heappush(self._queue, (when, sequence, task, ()))
        return sequence

    def queued_events(self):
        """Every :class:`Event` the queue holds, as an entry's callback
        owner or argument (in heap order, duplicates included)."""
        for _when, _sequence, callback, args in self._queue:
            owner = getattr(callback, "__self__", None)
            if isinstance(owner, Event):
                yield owner
            for arg in args:
                if isinstance(arg, Event):
                    yield arg

    @property
    def periodic_tasks(self):
        """Registered periodic tasks, in registration order."""
        return tuple(self._periodic)

    def _dispatch(self, until, floor):
        """The one dispatch loop behind :meth:`run` and :meth:`run_before`.

        Processes entries in (time, insertion) order while their time is
        ``<= until``, returning as soon as the pending-foreground count
        equals *floor* (0 drains foreground work; -1 never matches, i.e.
        keep going to *until*).

        An entry is popped before it runs, so a callback may schedule onto
        the timestamp being processed (it runs after what is already queued
        there) or re-enter :meth:`run`.  A periodic tick is the task itself,
        called like any other callback but not counted as foreground work.
        """
        queue = self._queue
        while queue and queue[0][0] <= until:
            when, _sequence, callback, args = heappop(queue)
            if type(callback) is not PeriodicTask:
                self._foreground -= 1
            self.now = when
            self._processed_events += 1
            callback(*args)
            if self._foreground == floor:
                return

    def run(self, until=None):
        """Run until foreground work drains, or simulated time exceeds *until*.

        With no *until*, events are processed in time order — including
        ticks of armed periodic tasks that fall before pending events —
        until no foreground event remains; armed periodic tasks alone do
        not keep the run alive.  When *until* is given, everything
        (foreground and periodic) up to and including *until* is processed
        and the clock is left exactly at *until*.
        """
        if until is None:
            if self._foreground:
                self._dispatch(_FOREVER, 0)
            return self.now
        if not until >= self.now:
            raise ValueError(f"run(until={until}) is in the past (now={self.now})")
        self._dispatch(until, -1)
        self.now = until
        return self.now

    def run_before(self, when):
        """Process every entry queued for an instant strictly before *when*.

        Unlike ``run(until=...)`` this leaves the clock at the last entry
        processed rather than moving it on, so what happens next is what
        would have happened in one uninterrupted run: a sweep family runs
        its shared prefix this way up to its branch point (see "Branching
        runs" in ``docs/contracts.md``).
        """
        self._dispatch(nextafter(when, -_FOREVER), -1)

    @property
    def processed_events(self):
        """Number of events and periodic ticks processed so far (diagnostic)."""
        return self._processed_events

    # ------------------------------------------------------------------ #
    # World-reuse checkpointing
    # ------------------------------------------------------------------ #

    #: The RNG streams and the tracer are independently checkpointed
    #: components (worldbuild captures them alongside the engine).
    _SNAPSHOT_EXEMPT = ("rng", "trace")

    @property
    def serializable(self):
        """True when the engine is settled: no pending foreground events.

        What is left on the queue of a settled simulator is armed
        periodic-task timers, ``(when, sequence, task, ())``
        entries that its checkpoint captures and re-arms.  Pending
        foreground entries hold live bound methods and the in-flight
        objects they close over (packets, requests, waiters' callbacks),
        which no checkpoint can replay — so only a world whose engine is
        settled stands for its config, and only such a world may be
        serialized into a world-snapshot blob
        (:func:`repro.experiments.worldbuild.serialize_world`).
        """
        return self._foreground == 0

    def snapshot_state(self):
        """Checkpoint the clock, counters and periodic-task timers.

        Pending foreground events hold live callbacks and cannot be
        replayed, so the foreground queue must be drained first (the
        worldbuild layer settles the simulation before capturing).  Armed
        periodic tasks are fine: their timer state is plain data, captured
        here and re-armed on restore.
        """
        if self._foreground:
            raise RuntimeError(
                f"cannot checkpoint with {self._foreground} pending foreground events")
        return (self.now, self._sequence, self._processed_events,
                tuple(task.snapshot_state() for task in self._periodic))

    def restore_state(self, state):
        """Restore counters and re-arm every checkpointed periodic task.

        The queue is rebuilt to hold exactly the background tick entries
        the checkpoint captured — same fire times, each under its
        checkpointed sequence, so the key that orders a same-time tie is
        the fresh build's.
        """
        self.now, self._sequence, self._processed_events, periodic = state
        self._foreground = 0
        if len(periodic) != len(self._periodic):
            raise RuntimeError(
                f"checkpoint has {len(periodic)} periodic tasks, "
                f"world has {len(self._periodic)}")
        for task, task_state in zip(self._periodic, periodic, strict=True):
            task.restore_state(task_state)
        # Sequences are unique, so the sort never compares two tasks; a
        # sorted list is a heap.
        self._queue[:] = sorted(
            (task.next_fire, task._entry_sequence, task, ())
            for task in self._periodic if task.armed)


class Reservation:
    """Insertion keys :meth:`Simulator.reserve` set aside, handed out in order.

    :meth:`call_at` is :meth:`Simulator.call_at` under the next key held,
    so a caller that takes a simulator to schedule on (``call_at`` is all
    it uses) can be handed a reservation instead.
    """

    __slots__ = ("sim", "_keys")

    def __init__(self, sim, first, count):
        self.sim = sim
        self._keys = iter(range(first, first + count))

    def call_at(self, when, callback, *args):
        """Run ``callback(*args)`` at *when* (>= now) under the next key held."""
        sim = self.sim
        if not when >= sim.now:
            raise ValueError(f"call_at({when}) is in the past (now={sim.now})")
        sequence = next(self._keys, None)
        if sequence is None:
            raise RuntimeError("every reserved insertion key is used")
        sim._foreground += 1
        heappush(sim._queue, (when, sequence, callback, args))
