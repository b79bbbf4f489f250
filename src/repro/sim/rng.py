"""Named, reproducible random-number streams.

Every stochastic component of the simulator draws from its own named stream
so adding a new component never perturbs the draws seen by existing ones.
Streams are derived deterministically from (master seed, stream name).
"""

import hashlib
import random


class RandomStreams:
    """Factory of independent :class:`random.Random` streams.

    >>> streams = RandomStreams(42)
    >>> a = streams.stream("arrivals")
    >>> b = streams.stream("topology")
    >>> a is streams.stream("arrivals")
    True
    """

    def __init__(self, seed=0):
        self.seed = int(seed)
        self._streams = {}
        #: Since :meth:`checkpoint`: name -> generator state at the stream's
        #: first hand-out (``None`` for a stream that did not exist yet).
        #: ``None`` itself until a checkpoint is taken.
        self._handed_out = None

    def stream(self, name):
        """Return the stream for *name*, creating it deterministically.

        A stream is to be drawn from where it is fetched: holding one on
        an object that outlives a :meth:`rollback` draws behind the
        journal's back (DET01 flags a stream stored on ``self``).
        """
        stream = self._streams.get(name)
        journal = self._handed_out
        if journal is not None and name not in journal:
            journal[name] = None if stream is None else stream.getstate()
        if stream is None:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode("utf-8")).digest()
            stream = self._streams[name] = random.Random(
                int.from_bytes(digest[:8], "big"))
        return stream

    def clone(self, name):
        """A second reader positioned at stream *name*'s current state.

        The clone draws what the stream would draw next and is not the
        stream: reading it advances nothing, and it is neither registered
        nor checkpointed.  This is how the workload driver replays the
        arrival draws it has already burnt on the stream itself.
        """
        twin = random.Random(0)
        twin.setstate(self.stream(name).getstate())
        return twin

    def checkpoint(self):
        """Make the current stream states what :meth:`rollback` returns to.

        Nothing is copied here: a stream's state is journaled when it is
        next handed out, so a checkpoint and a rollback cost what a run
        drew from, not the ~one stream per site a world holds.
        """
        self._handed_out = {}

    def rollback(self):
        """Reset every stream handed out since :meth:`checkpoint`.

        Streams created since are dropped — re-derived from
        ``(seed, name)`` on next use, exactly as in a fresh build.
        """
        for name, state in self._handed_out.items():
            if state is None:
                del self._streams[name]
            else:
                self._streams[name].setstate(state)
        self._handed_out.clear()

    #: The master seed is immutable identity, not run state; the hand-out
    #: journal is checkpoint bookkeeping, emptied by checkpoint/rollback.
    _SNAPSHOT_EXEMPT = ("seed", "_handed_out")

    def snapshot_state(self):
        """Per-stream generator states (for world-reuse checkpointing)."""
        return {name: stream.getstate() for name, stream in self._streams.items()}

    def restore_state(self, state):
        """Restore every checkpointed stream; drop streams created since.

        Dropped streams are re-derived deterministically from
        ``(seed, name)`` on next use, so a restored world draws exactly the
        same values a freshly built one would.
        """
        for name in list(self._streams):
            if name in state:
                self._streams[name].setstate(state[name])
            else:
                del self._streams[name]
