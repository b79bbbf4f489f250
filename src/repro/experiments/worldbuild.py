"""World construction and reuse: build scenarios once, reset them cheaply.

Building a sweep cell's world is the expensive part of running it: node and
link construction, DNS install, control-plane deployment and the provider
route build all scale with the site count, while the workload itself is a
few hundred flows.  Cells whose configs agree on every field their
control plane reads (:func:`world_key`: control plane, site count, seed,
...) build *identical* worlds and differ only in the workload they run —
so the world can be built once and recycled.

The mechanism is checkpoint/restore rather than rebuild, and the
checkpoint follows the cell, not the world:

- :func:`build_world` builds a scenario (its routes installed by the
  topology's one :class:`~repro.net.routing.RoutingPlan`), settles any
  deployment-time events, and *arms* the world's first-touch journal
  (:class:`~repro.sim.state.Journal`): the dozen singleton components are
  captured there and then; every link, node, xTR, stack, sink and site
  resolver is only flagged, and stores its own pristine state the first
  time a run is about to change it.
- :func:`restore_world` puts back the singletons, the random streams a
  run drew from and the components on the journal's dirty list — clock,
  FIB dynamic entries, map-caches, DNS caches, counters, link stats — so a
  restored world is byte-for-byte the world the build produced, at a cost
  that grows with what the cell touched.  Determinism tests diff
  fresh-build vs reused-world summaries, and the restore-completeness
  tests compare every component of the inventory
  (``Scenario.stateful_components``) against an eager capture of their
  own.  The "World lifecycle cost" contract in ``docs/contracts.md`` has
  the touch-before-write rule for new mutators.

Builds run with the cyclic collector paused (:func:`gc_paused`): each is
one burst of reachable allocations, handed to the collector's oldest
generation when the call returns.  A sweep cell runs whole inside one
such pause (:func:`~repro.experiments.worldrun.run_world`), its build or
restore included.

Periodic background work (RLOC probing) is no obstacle to any of this: it runs as engine-owned
:class:`~repro.sim.periodic.PeriodicTask` objects whose timers are plain
engine state, not pending queue entries.  Settling drains *foreground*
work only — an armed periodic tick is not pending work — and the
simulator's checkpoint captures each task's armed flag, next-fire time and
tick counter, **re-arming the timers on restore** so a restored probing
world starts ticking at exactly the instants the fresh build would have.
Every config is therefore cacheable.

A blob is the world's recipe
----------------------------

A settled world's pristine state is a pure function of its config, so a
blob names the config and nothing else.  :func:`serialize_world` writes
:data:`SNAPSHOT_MAGIC` and a JSON envelope of the schema version, the
world key and a CRC — a few hundred bytes at any world size.
:func:`deserialize_world` checks the envelope against the config it is
handed (magic, schema, key, CRC; :class:`SnapshotError` on any mismatch)
and builds that config's world.  Nothing is unpickled, so a blob from
anywhere can at worst fail validation, and a blob always yields what a
fresh build yields under the code that reads it.

A world's lifetime
------------------

:func:`~repro.experiments.worldrun.run_world` is the one place a sweep holds
a world: its first cell builds it, each later cell restores it, and the
world is torn down in the run's ``finally``.  A world is one web of
reference cycles, so
:meth:`~repro.experiments.scenario.Scenario.teardown` breaks them and the
world dies by reference count, without a collection.
"""

import gc
import json
import zlib
from contextlib import contextmanager

from repro.experiments.scenario import CONTROL_PLANES, build_scenario
from repro.sim.state import Journal

#: The config fields a row of ``CONTROL_PLANES`` names: not shared.
_PLANE_FIELDS = {name for plane in CONTROL_PLANES.values()
                 for name in plane.reads}


def world_key(config):
    """Hashable identity of the world *config* builds: in field order, the
    values of the shared fields and of those its control plane's row of
    :data:`~repro.experiments.scenario.CONTROL_PLANES` names.  Configs
    that differ only in fields their plane never reads build one world.
    """
    reads = CONTROL_PLANES[config.control_plane].reads
    return tuple(value for name, value in vars(config).items()
                 if name in reads or name not in _PLANE_FIELDS)


def build_world(config):
    """Build the world for *config* and arm its journal.

    The world is settled first (the foreground queue is drained of finite
    deployment-time events, e.g. NERD's initial database push — armed
    periodic tasks do not count as pending work) so the checkpoint is of
    a quiescent world; the workload then starts from the same instant on
    fresh builds and reuses alike.  The journal is attached as
    ``scenario.world_checkpoint``: the state at this instant is what
    every later :func:`restore_world` returns to.

    Runs with the cyclic collector paused (see :func:`gc_paused`): a
    build only ever adds reachable objects, so every collection it would
    trigger re-walks the growing world and frees nothing.  The finished
    world is promoted to the collector's oldest generation, out of sight
    of the young passes the cells that run on it trigger.  A world is one
    web of reference cycles: a caller that builds one bare and drops it
    owns its :meth:`~repro.experiments.scenario.Scenario.teardown`
    (:func:`~repro.experiments.worldrun.run_world` calls its own); dropped
    without one, it stays resident until a full collection happens by.
    """
    with gc_paused():
        scenario = build_scenario(config)
        scenario.sim.run()  # settle: drain finite deployment-time events
        scenario.sim.rng.checkpoint()
        scenario.world_checkpoint = Journal(scenario.singleton_components(),
                                            scenario.journaled_components())
    return scenario


def restore_world(scenario):
    """Reset *scenario* to its post-build checkpoint, ready for a new run.

    Visits the singletons, the streams handed out and the journal's dirty
    list — nothing sized by the world.
    """
    if scenario.world_checkpoint is None:
        raise ValueError("scenario has no world checkpoint")
    scenario.sim.rng.rollback()
    scenario.world_checkpoint.rollback()
    scenario.stubs.clear()


# --------------------------------------------------------------------- #
# Snapshot blobs: a versioned envelope naming the world's config
# --------------------------------------------------------------------- #

#: Leading bytes of every snapshot blob; anything else is not a snapshot.
SNAPSHOT_MAGIC = b"repro-world-snapshot\n"

#: The version of a blob's envelope (its JSON fields) and of the world
#: key's shape (:func:`world_key`'s field tuple).  Bump it when either
#: changes; a mismatched blob is refused.  What the world *is* is not
#: versioned here: a blob yields a build under the current code.  The
#: "Versions" paragraph of ``docs/contracts.md`` says when to bump this
#: and when the sweep artifact ``SCHEMA``.
SNAPSHOT_SCHEMA = 21


@contextmanager
def gc_paused():
    """Pause the cyclic GC for the block, leaving it as it was found.

    Building a world allocates hundreds of thousands of objects in one
    burst, and a sweep cell's run makes no cyclic garbage either; every
    collection in the middle scans the growing graph for garbage that
    cannot exist, so collection is paused for the duration, which takes
    the collector's passes out of builds and cells.

    A block that ends normally leaves a settled world behind: long-lived by
    construction, yet young to the collector, whose next passes would walk
    it twice more just to promote it.  ``gc.freeze(); gc.unfreeze()`` splices
    it into the oldest generation instead — two O(1) list merges that leave
    nothing frozen, so a promoted world is ordinary generation-2 data, and
    what frees it is its teardown, not a pass (see "World lifecycle cost"
    in ``docs/contracts.md``).  The splice is skipped
    when the block raised (a half-built world is young garbage), when the
    collector was disabled on entry — so a build nested in a cell's pause
    leaves the splice to the cell's — and when anything was frozen on entry
    (unfreezing a heap the caller froze is not ours to do; CPython 3.12's
    collector parks immortal objects there by itself, so on 3.12 the count
    is never zero and worlds stay young, as before).  Thresholds are never
    touched.
    """
    enabled = gc.isenabled()
    promote = enabled and not gc.get_freeze_count()
    gc.disable()
    try:
        yield
        if promote:
            gc.freeze()
            gc.unfreeze()
    finally:
        if enabled:
            gc.enable()


class SnapshotError(ValueError):
    """A blob failed validation (corrupt, stale schema, or wrong world)."""

    def __init__(self, reason, detail=""):
        # args stay (reason, detail) so the error keeps its message when
        # pickled, as an exception crossing a process boundary is.
        super().__init__(reason, detail)
        self.reason = reason
        self.detail = detail

    def __str__(self):
        return (f"invalid world snapshot ({self.reason})"
                + (f": {self.detail}" if self.detail else ""))


def _json_key(config):
    """*config*'s world key as the envelope carries it: a JSON list.

    ``json`` writes floats by ``repr``, so they read back exactly.
    """
    return json.loads(json.dumps(world_key(config)))


def _crc(schema, key):
    return zlib.crc32(json.dumps([schema, key]).encode())


def serialize_world(scenario):
    """The blob of a settled, checkpointed *scenario*: its config, named.

    Magic plus a JSON envelope ``{schema, key, crc}``; a world serialized
    dirty has the same blob as its pristine self.  Only worlds
    :func:`build_world` made, settled, are accepted: those are the worlds
    a blob stands for.
    """
    if scenario.world_checkpoint is None:
        raise ValueError("scenario has no world checkpoint; serialize only "
                         "worlds produced by build_world")
    if not scenario.sim.serializable:
        raise ValueError("cannot serialize a world with pending foreground "
                         "events (settle it first)")
    key = _json_key(scenario.config)
    envelope = {"schema": SNAPSHOT_SCHEMA, "key": key,
                "crc": _crc(SNAPSHOT_SCHEMA, key)}
    return SNAPSHOT_MAGIC + json.dumps(envelope, sort_keys=True).encode()


def deserialize_world(blob, config):
    """The pristine world *blob* names, validated against *config*.

    Checks magic, schema version, world key and CRC, raising
    :class:`SnapshotError` naming the first that fails, then builds the
    world (:func:`build_world`).  The envelope is parsed as JSON: nothing
    in a blob is ever executed.
    """
    if not blob.startswith(SNAPSHOT_MAGIC):
        raise SnapshotError("bad magic")
    try:
        envelope = json.loads(blob[len(SNAPSHOT_MAGIC):])
        schema = envelope["schema"]
        key = envelope["key"]
        crc = envelope["crc"]
    except Exception as error:
        raise SnapshotError("corrupt envelope", repr(error)) from error
    if schema != SNAPSHOT_SCHEMA:
        raise SnapshotError("schema mismatch",
                            f"blob v{schema}, expected v{SNAPSHOT_SCHEMA}")
    if key != _json_key(config):
        raise SnapshotError("world-key mismatch",
                            "blob was made from a different config")
    if _crc(schema, key) != crc:
        raise SnapshotError("envelope CRC mismatch")
    return build_world(config)
