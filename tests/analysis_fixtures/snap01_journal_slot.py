"""SNAP01 fixture: ``_journal`` is the Journaled mixin's, nobody else's."""

from repro.sim.state import Journaled


class SlottedComponent(Journaled):
    """A slotted component must set the mixin's slot: not a finding."""

    __slots__ = ("count", "_journal")

    def __init__(self):
        self.count = 0
        self._journal = None

    def snapshot_state(self):
        return self.count

    def restore_state(self, state):
        self.count = state


class OwnJournal:
    """Not journaled: its ``_journal`` is state like any other."""

    def __init__(self):
        self._journal = None

    def snapshot_state(self):
        return ()

    def restore_state(self, state):
        del state
