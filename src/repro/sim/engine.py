"""The simulation engine: a deterministic time-ordered event queue."""

from heapq import heappop, heappush
from math import nextafter

from repro.sim.events import Event, Timeout
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

    There is one kind of entry.  Recurring work (the PCE control plane's
    RLOC probe round) is an ordinary entry that queues its successor, and
    stops doing so when it has nothing left to do.  ``run()`` with no
    ``until`` drains the queue, and a *settled* simulator — the only kind
    a checkpoint is taken of — is one whose queue is empty.

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

    # ------------------------------------------------------------------ #
    # Event construction helpers
    # ------------------------------------------------------------------ #

    def event(self):
        """A fresh pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay, value=None):
        """An event firing *delay* time units from now."""
        return Timeout(self, delay, value=value)

    def call_in(self, delay, callback, *args):
        """Run ``callback(*args)`` after *delay* time units; returns ``None``.

        Nothing waits on a scheduled call: it *is* the sleep, and what runs
        after it is *callback*.  Work that others wait on is an
        :class:`Event` they append callbacks to.
        """
        if not delay >= 0:  # also refuses NaN, which compares false
            raise ValueError(f"negative timeout delay: {delay}")
        self._sequence = sequence = self._sequence + 1
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
        """Queue *event*'s callbacks to run *delay* from now.

        *delay* is a :class:`Timeout`'s, validated there; a triggered
        event's callbacks run at the current instant.
        """
        self._sequence = sequence = self._sequence + 1
        heappush(self._queue,
                 (self.now + delay, sequence, event._run_callbacks, ()))

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

    def _dispatch(self, until):
        """The one dispatch loop behind :meth:`run` and :meth:`run_before`.

        Processes entries in (time, insertion) order while their time is
        ``<= until``.  An entry is popped before it runs, so a callback may
        schedule onto the timestamp being processed (it runs after what is
        already queued there) or re-enter :meth:`run`.
        """
        queue = self._queue
        while queue and queue[0][0] <= until:
            when, _sequence, callback, args = heappop(queue)
            self.now = when
            self._processed_events += 1
            callback(*args)

    def run(self, until=None):
        """Run until the queue drains, or simulated time exceeds *until*.

        With no *until*, events are processed in time order until none is
        left.  When *until* is given, everything up to and including
        *until* is processed and the clock is left exactly at *until*.
        """
        if until is None:
            self._dispatch(_FOREVER)
            return self.now
        if not until >= self.now:
            raise ValueError(f"run(until={until}) is in the past (now={self.now})")
        self._dispatch(until)
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
        self._dispatch(nextafter(when, -_FOREVER))

    @property
    def processed_events(self):
        """Number of events processed so far (diagnostic)."""
        return self._processed_events

    # ------------------------------------------------------------------ #
    # World-reuse checkpointing
    # ------------------------------------------------------------------ #

    #: The RNG streams and the tracer are independently checkpointed
    #: components (worldbuild captures them alongside the engine).
    _SNAPSHOT_EXEMPT = ("rng", "trace")

    @property
    def serializable(self):
        """True when the engine is settled: nothing is queued.

        A queued entry holds a live bound method and the in-flight objects
        it closes over (packets, requests, waiters' callbacks), which no
        checkpoint can replay — so only a world whose engine is settled
        stands for its config, and only such a world may be serialized
        into a world-snapshot blob
        (:func:`repro.experiments.worldbuild.serialize_world`).
        """
        return not self._queue

    def snapshot_state(self):
        """Checkpoint the clock and counters of a settled engine.

        Queued entries cannot be replayed, so the queue must be drained
        first (the worldbuild layer settles the simulation before
        capturing).
        """
        if self._queue:
            raise RuntimeError(
                f"cannot checkpoint with {len(self._queue)} queued events")
        return (self.now, self._sequence, self._processed_events)

    def restore_state(self, state):
        """Put the clock and counters back and drop whatever a run left
        queued."""
        self.now, self._sequence, self._processed_events = state
        self._queue.clear()


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
        heappush(sim._queue, (when, sequence, callback, args))
