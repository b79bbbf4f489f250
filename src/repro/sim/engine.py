"""The simulation engine: a deterministic time-ordered event queue."""

import heapq

from repro.sim.errors import EmptySchedule
from repro.sim.events import Event, ScheduledCall, Timeout
from repro.sim.periodic import PeriodicFire, PeriodicTask
from repro.sim.process import Process
from repro.sim.rng import RandomStreams
from repro.sim.trace import Tracer

#: Priority used for ordinary events.
PRIORITY_NORMAL = 1
#: Priority used for bookkeeping that must run before normal events at a time.
PRIORITY_URGENT = 0

_FOREVER = float("inf")


class _Bucket:
    """Every entry scheduled for one timestamp, in (priority, insertion) order.

    Scheduling appends; consumption advances a read index instead of
    popping, so a bucket is one allocation per *distinct* timestamp no
    matter how many events share it.  Urgent entries are rare, so their
    list is created lazily.
    """

    __slots__ = ("urgent", "normal", "ui", "ni")

    def __init__(self):
        self.urgent = None
        self.normal = []
        self.ui = 0
        self.ni = 0

    def add_urgent(self, entry):
        if self.urgent is None:
            self.urgent = []
        self.urgent.append(entry)

    def skip_stale(self):
        """Consume stale entries at the read position; True if one is left.

        Stale :class:`PeriodicFire` entries (invalidated by a re-arm or
        stop) are consumed silently, mirroring how the old tuple heap
        discarded them at pop time.  The dispatch loop does the same
        inline; this is :meth:`Simulator.peek`'s non-consuming view.
        """
        urgent = self.urgent
        if urgent is not None:
            while self.ui < len(urgent):
                entry = urgent[self.ui]
                if type(entry) is PeriodicFire and not entry.live:
                    self.ui += 1
                    continue
                return True
        normal = self.normal
        while self.ni < len(normal):
            entry = normal[self.ni]
            if type(entry) is PeriodicFire and not entry.live:
                self.ni += 1
                continue
            return True
        return False


class Simulator:
    """Deterministic discrete-event simulator.

    Events scheduled for the same time are processed in (priority, insertion
    order), so behaviour is fully reproducible for a given seed.

    The queue is two-level: a heap of distinct timestamps over per-timestamp
    buckets of entries in insertion order.  Same-time scheduling — the
    dominant case once processes chain zero-delay events — is a dict lookup
    and a list append instead of a heap sift, and draining a burst of
    same-time events advances a read index instead of re-heapifying.

    The queue holds two kinds of entries: *foreground* events (ordinary
    events, timeouts, process resumptions — finite work the simulation must
    complete) and *background* ticks of registered
    :class:`~repro.sim.periodic.PeriodicTask` objects.  Both share one queue
    so their interleaving is deterministic, but only foreground entries
    count as pending work: ``run()`` with no ``until`` drains foreground
    events (firing any background ticks that fall before them in time) and
    stops when no foreground work remains, even while periodic tasks stay
    armed.  That is what makes worlds with perpetual periodic processes
    settle-able and therefore checkpointable.

    Parameters
    ----------
    seed:
        Master seed for :class:`~repro.sim.rng.RandomStreams`.
    tracing:
        When False the tracer starts disabled (sweep runs skip per-event
        record allocation entirely); it can be re-enabled via
        ``sim.trace.enable()``.
    """

    def __init__(self, seed=0, tracing=True):
        self.now = 0.0
        self.rng = RandomStreams(seed)
        self.trace = Tracer(enabled=tracing)
        self._times = []
        self._buckets = {}
        self._sequence = 0
        self._processed_events = 0
        self._foreground = 0
        self._periodic = []

    # ------------------------------------------------------------------ #
    # Event construction helpers
    # ------------------------------------------------------------------ #

    def event(self, name=None):
        """A fresh pending :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay, value=None, name=None):
        """An event firing *delay* time units from now."""
        return Timeout(self, delay, value=value, name=name)

    def process(self, generator, name=None):
        """Start *generator* as a :class:`Process` (begins at the current time)."""
        return Process(self, generator, name=name)

    def periodic(self, callback, period, name=None):
        """Register a :class:`PeriodicTask` running *callback* every *period*.

        The task is created disarmed; call ``.start()`` on the result to
        schedule its first tick (one full period from then).
        """
        return PeriodicTask(self, callback, period, name=name)

    def call_in(self, delay, callback, *args):
        """Run ``callback(*args)`` after *delay* time units."""
        return ScheduledCall(self, delay, callback, args)

    def call_at(self, when, callback, *args):
        """Run ``callback(*args)`` at absolute time *when* (>= now).

        The call lands on *when* itself, not on ``now + (when - now)``,
        which rounding puts an ulp away from *when* for a few percent of
        the pairs with ``now < when / 2`` (closer pairs subtract exactly).
        """
        if when < self.now:
            raise ValueError(f"call_at({when}) is in the past (now={self.now})")
        return ScheduledCall(self, when - self.now, callback, args, when)

    # ------------------------------------------------------------------ #
    # Scheduling and the main loop
    # ------------------------------------------------------------------ #

    def _schedule(self, event, delay=0.0, priority=PRIORITY_NORMAL):
        self._sequence += 1
        self._foreground += 1
        when = self.now + delay
        bucket = self._buckets.get(when)
        if bucket is None:
            bucket = self._buckets[when] = _Bucket()
            heapq.heappush(self._times, when)
        if priority == PRIORITY_NORMAL:
            bucket.normal.append(event)
        else:
            bucket.add_urgent(event)

    def _bucket_at(self, when):
        """The bucket of absolute time *when*, created on first use.

        For the paths that run per arrival, per periodic tick or per
        restore; :meth:`_schedule`, which runs per event, keeps the same
        four lines inline.
        """
        bucket = self._buckets.get(when)
        if bucket is None:
            bucket = self._buckets[when] = _Bucket()
            heapq.heappush(self._times, when)
        return bucket

    def _schedule_at(self, event, when):
        """:meth:`_schedule` by absolute timestamp, normal priority."""
        self._sequence += 1
        self._foreground += 1
        self._bucket_at(when).normal.append(event)

    def _register_periodic(self, task):
        self._periodic.append(task)

    def _schedule_periodic(self, task, when):
        """Push a background tick entry for *task*; returns its sequence."""
        sequence = self._sequence = self._sequence + 1
        self._bucket_at(when).normal.append(PeriodicFire(task, task._epoch))
        return sequence

    @property
    def periodic_tasks(self):
        """Registered periodic tasks, in registration order."""
        return tuple(self._periodic)

    @property
    def pending_foreground(self):
        """Number of scheduled foreground events (diagnostic)."""
        return self._foreground

    def peek(self):
        """Time of the next scheduled event, or ``float('inf')`` if none.

        Stale background entries (ticks invalidated by a re-arm or stop)
        are discarded from the head of the queue as a side effect.
        """
        times, buckets = self._times, self._buckets
        while times:
            when = times[0]
            if buckets[when].skip_stale():
                return when
            heapq.heappop(times)
            del buckets[when]
        return _FOREVER

    def _dispatch(self, until, floor, single):
        """The one dispatch loop behind :meth:`run` and :meth:`step`.

        Processes entries in (time, priority, insertion) order while their
        time is ``<= until``; returns after one entry when *single*, or as
        soon as the pending-foreground count equals *floor* (0 drains
        foreground work; -1 never matches, i.e. keep going to *until*).
        Returns True when it stopped for one of those two reasons, False
        when the schedule ran out or passed *until* first.

        Buckets are drained through their read indices in place, so
        same-time entries scheduled by a callback — including urgent ones,
        re-checked before every normal entry — join the bucket being
        drained.  Stale periodic entries are consumed without touching the
        clock or the event count.
        """
        times, buckets = self._times, self._buckets
        while times:
            when = times[0]
            if when > until:
                break
            bucket = buckets[when]
            normal = bucket.normal
            while True:
                urgent = bucket.urgent
                if urgent is not None and bucket.ui < len(urgent):
                    entry = urgent[bucket.ui]
                    bucket.ui += 1
                elif bucket.ni < len(normal):
                    entry = normal[bucket.ni]
                    bucket.ni += 1
                else:
                    # Exhausted.  A callback that re-entered run() has
                    # already retired this bucket; otherwise *when* is
                    # still the heap minimum (nothing schedules earlier).
                    if buckets.get(when) is bucket:
                        heapq.heappop(times)
                        del buckets[when]
                    break
                if type(entry) is PeriodicFire:
                    if not entry.live:
                        continue
                    self.now = when
                    self._processed_events += 1
                    entry.task._fire()
                else:
                    self.now = when
                    self._processed_events += 1
                    self._foreground -= 1
                    entry._run_callbacks()
                if single or self._foreground == floor:
                    return True
        return False

    def step(self):
        """Process exactly one event or periodic tick, whichever is next.

        Stale background entries are skipped without advancing the clock;
        raises :class:`EmptySchedule` when nothing (live) is scheduled.
        """
        if not self._dispatch(_FOREVER, -1, True):
            raise EmptySchedule("no events scheduled")

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
                self._dispatch(_FOREVER, 0, False)
            return self.now
        if until < self.now:
            raise ValueError(f"run(until={until}) is in the past (now={self.now})")
        self._dispatch(until, -1, False)
        self.now = until
        return self.now

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
        """True when the engine meets the blob-serialization contract.

        A settled simulator (no pending foreground events) is plain
        picklable data: clock, sequence counters, RNG stream states,
        tracer, and armed periodic-task timers riding the queue as
        :class:`PeriodicFire` entries.  Pending foreground events hold
        live callbacks and generator frames, which are not — so only a
        settled simulator may be serialized into a world-snapshot blob.
        Changing that serialized shape (queue layout, checkpoint tuple,
        periodic-task state) means bumping
        :data:`repro.experiments.worldbuild.SNAPSHOT_SCHEMA`.
        """
        return self._foreground == 0

    def snapshot_state(self):
        """Checkpoint the clock, counters and periodic-task timers.

        Pending foreground events hold live generators and cannot be
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
        the checkpoint captured — same fire times, inserted in checkpointed
        sequence order, so same-time ties keep breaking identically to the
        fresh build.
        """
        self.now, self._sequence, self._processed_events, periodic = state
        self._times.clear()
        self._buckets.clear()
        self._foreground = 0
        if len(periodic) != len(self._periodic):
            raise RuntimeError(
                f"checkpoint has {len(periodic)} periodic tasks, "
                f"world has {len(self._periodic)}")
        for task, task_state in zip(self._periodic, periodic, strict=True):
            task.restore_state(task_state)
        armed = sorted((task for task in self._periodic if task.armed),
                       key=lambda task: task._entry_sequence)
        for task in armed:
            self._bucket_at(task.next_fire).normal.append(
                PeriodicFire(task, task._epoch))
