"""Engine-owned periodic tasks: checkpointable recurring callbacks.

A :class:`PeriodicTask` is how recurring work is written: a callback that
re-schedules itself with ``call_in`` forever has two structural problems
for world reuse:

- it keeps a foreground entry in the event queue forever, so a world
  running one can never be "settled" and checkpointed;
- its phase lives only in that pending entry, which cannot be
  snapshotted or restored.

A periodic task instead keeps all of its timing state in plain attributes
(``armed``, ``next_fire``) and registers itself with the owning
:class:`~repro.sim.engine.Simulator`.  Its fires travel through the same
(time, sequence)-ordered heap as ordinary events — so interleaving
with normal work is deterministic — but they are tagged *background*: the
engine's drain loop (``run()`` with no ``until``) does not treat an armed
task as pending work, and its checkpoint captures and re-arms task timers
instead of refusing to snapshot.

Tasks are created through :meth:`Simulator.periodic` and arm with
:meth:`PeriodicTask.start`, which schedules the first tick one full period
after the current time (a tick observes the world as it is *when the tick
fires*, so there is nothing useful for it to do at arm time).  The callback
runs with the clock at the fire time; the task re-arms itself one period
later before invoking the callback, so a callback may call :meth:`stop`
to cancel the rearm.
"""


class PeriodicFire:
    """One scheduled tick of a :class:`PeriodicTask`.

    It rides in the callback slot of a queue entry ``(when, sequence,
    PeriodicFire, ())``, where the engine recognises it by type.  Entries
    are invalidated (not removed) when their task re-arms or stops: each
    arm bumps the task's epoch, and a popped entry whose epoch no longer
    matches is silently discarded by the engine.
    """

    __slots__ = ("task", "epoch")

    def __init__(self, task, epoch):
        self.task = task
        self.epoch = epoch

    @property
    def live(self):
        """True when this entry is the task's current scheduled tick."""
        return self.task.armed and self.epoch == self.task._epoch

    def __repr__(self):
        state = "live" if self.live else "stale"
        return f"<PeriodicFire {self.task.name} {state}>"


class PeriodicTask:
    """A recurring callback whose timer state lives in the engine.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.engine.Simulator`; the task registers
        itself on construction so engine checkpoints enumerate it.
    callback:
        Zero-argument callable invoked at every tick.
    period:
        Simulated seconds between ticks (must be positive).
    name:
        Label for diagnostics and ``repr``.
    """

    __slots__ = ("sim", "callback", "period", "name", "armed", "next_fire",
                 "_epoch", "_entry_sequence")

    def __init__(self, sim, callback, period, name=None):
        if not period > 0:  # also refuses NaN, which compares false
            raise ValueError(f"periodic task period must be positive, got {period}")
        self.sim = sim
        self.callback = callback
        self.period = period
        self.name = name or getattr(callback, "__name__", "periodic")
        self.armed = False
        self.next_fire = None
        self._epoch = 0
        self._entry_sequence = None
        sim._register_periodic(self)

    def __repr__(self):
        state = f"armed@{self.next_fire:.6f}" if self.armed else "stopped"
        return f"<PeriodicTask {self.name} {state} period={self.period}>"

    def start(self):
        """Arm the task; idempotent while armed.

        The first tick fires at ``now + period``.  Returns the task.
        """
        if not self.armed:
            self._arm(self.sim.now + self.period)
        return self

    def stop(self):
        """Disarm the task; the pending tick (if any) is invalidated."""
        self.armed = False
        self.next_fire = None
        self._epoch += 1

    def _arm(self, when):
        self.armed = True
        self.next_fire = when
        self._epoch += 1
        self._entry_sequence = self.sim._schedule_periodic(self, when)

    def _fire(self):
        """One tick: re-arm first (so the callback may stop()), then run."""
        self.armed = False
        self._arm(self.next_fire + self.period)
        self.callback()

    # ------------------------------------------------------------------ #
    # Checkpointing (driven by the engine's snapshot/restore)
    # ------------------------------------------------------------------ #

    #: Construction-time wiring: owning sim, the callback and its cadence.
    _SNAPSHOT_EXEMPT = ("sim", "callback", "period", "name")

    def snapshot_state(self):
        """Timer state: (armed, next_fire, heap-entry sequence).

        The sequence number of the pending heap entry is captured so a
        restore can rebuild an entry that sorts *identically* to the one a
        fresh build produced — same-time ties then break the same way in
        fresh and restored worlds.
        """
        return (self.armed, self.next_fire, self._entry_sequence)

    def restore_state(self, state):
        """Restore timer fields; the engine re-pushes the heap entry."""
        self.armed, self.next_fire, self._entry_sequence = state
        self._epoch += 1
