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
with normal work is deterministic — but they are *background*: the queue
entry is ``(when, sequence, task, ())``, the engine recognises it by the
task's type, and its drain loop (``run()`` with no ``until``) does not
treat an armed task as pending work; its checkpoint captures and re-arms
task timers instead of refusing to snapshot.

Tasks are created through :meth:`Simulator.periodic` and arm with
:meth:`PeriodicTask.start`, which schedules the first tick one full period
after the current time (a tick observes the world as it is *when the tick
fires*, so there is nothing useful for it to do at arm time).  An armed
task stays armed for the world's lifetime: each tick re-arms it one period
later and then runs the callback with the clock at the fire time.  A task
has exactly one queued tick while armed, so no queued tick is ever stale.
"""

from repro.sim.state import Checkpointed


class PeriodicTask(Checkpointed):
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
                 "_entry_sequence")

    def __init__(self, sim, callback, period, name=None):
        if not period > 0:  # also refuses NaN, which compares false
            raise ValueError(f"periodic task period must be positive, got {period}")
        self.sim = sim
        self.callback = callback
        self.period = period
        self.name = name or getattr(callback, "__name__", "periodic")
        self.armed = False
        self.next_fire = None
        self._entry_sequence = None
        sim._register_periodic(self)

    def __repr__(self):
        state = f"armed@{self.next_fire:.6f}" if self.armed else "disarmed"
        return f"<PeriodicTask {self.name} {state} period={self.period}>"

    def start(self):
        """Arm the task; idempotent while armed.

        The first tick fires at ``now + period``.  Returns the task.
        """
        if not self.armed:
            self._arm(self.sim.now + self.period)
        return self

    def _arm(self, when):
        self.armed = True
        self.next_fire = when
        self._entry_sequence = self.sim._schedule_periodic(self, when)

    def __call__(self):
        """One tick, as the engine runs it: re-arm first, then the callback."""
        self._arm(self.next_fire + self.period)
        self.callback()

    # ------------------------------------------------------------------ #
    # Checkpointing (driven by the engine's snapshot/restore)
    # ------------------------------------------------------------------ #

    #: Construction-time wiring: owning sim, the callback and its cadence.
    #: The rest is timer state — armed, next fire time and the sequence of
    #: the pending heap entry, so a restore rebuilds an entry that sorts
    #: *identically* to the fresh build's (same-time ties break the same
    #: way in fresh and restored worlds); the engine re-pushes it.
    _SNAPSHOT_EXEMPT = ("sim", "callback", "period", "name")
