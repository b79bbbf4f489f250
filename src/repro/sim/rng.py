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

    def stream(self, name):
        """Return the stream for *name*, creating it deterministically."""
        if name not in self._streams:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode("utf-8")).digest()
            self._streams[name] = random.Random(int.from_bytes(digest[:8], "big"))
        return self._streams[name]

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

    def fork(self, name):
        """Return a new :class:`RandomStreams` whose master seed derives from *name*.

        Useful for giving each replication of an experiment its own universe
        of streams.
        """
        digest = hashlib.sha256(f"{self.seed}:fork:{name}".encode("utf-8")).digest()
        return RandomStreams(int.from_bytes(digest[:8], "big"))

    def names(self):
        """Names of the streams created so far (for diagnostics)."""
        return sorted(self._streams)

    #: The master seed is immutable identity, not run state.
    _SNAPSHOT_EXEMPT = ("seed",)

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
