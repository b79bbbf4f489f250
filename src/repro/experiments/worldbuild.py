"""World construction and reuse: build scenarios once, reset them cheaply.

Building a sweep cell's world is the expensive part of running it: node and
link construction, DNS install, control-plane deployment and the provider
route build all scale with the site count, while the workload itself is a
few hundred flows.  Cells that share a
:class:`~repro.experiments.scenario.ScenarioConfig` (same control plane,
site count, seed, ...) build *identical* worlds and differ only in the
workload they run — so the world can be built once and recycled.

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

Builds and (de)serialization run with the cyclic collector paused
(:func:`_gc_paused`): each is one burst of reachable allocations, handed
to the collector's oldest generation when the call returns.

Periodic background work (RLOC probing) is no obstacle to any of this: it runs as engine-owned
:class:`~repro.sim.periodic.PeriodicTask` objects whose timers are plain
engine state, not pending queue entries.  Settling drains *foreground*
work only — an armed periodic tick is not pending work — and the
simulator's checkpoint captures each task's armed flag, next-fire time and
tick counter, **re-arming the timers on restore** so a restored probing
world starts ticking at exactly the instants the fresh build would have.
Every config is therefore cacheable.

The one world cache
-------------------

:class:`SnapshotStore` is the only cache of worlds, and
:meth:`SnapshotStore.world_for` the only way a cell gets one.  It answers
from the cheapest source that can:

- ``"hit"`` — the store holds the world live; it is reset in place
  (:func:`restore_world`, milliseconds);
- ``"restore"`` — the store holds (or finds on disk) a valid serialized
  blob; it is deserialized and kept live;
- ``"miss"`` — neither; the world is built, kept live, and persisted as a
  blob when the store has a ``directory``.

A settled world is *serializable*: the whole object graph (engine,
topology, control plane, journal) is plain picklable data, at a pickle
depth that does not grow with the topology (interfaces pickle without
their link; ``Scenario`` carries the link table and re-attaches them).  A
clean world is its own pristine state, so its blob holds no component
checkpoint beyond the singletons'.
:func:`serialize_world` wraps the pickle in a versioned envelope (magic +
:data:`SNAPSHOT_SCHEMA` + world key + CRC); the store keeps blobs under
its ``directory``, as content-addressed files that outlive the process and
are the only thing spawn-platform workers can share, or in memory when it
has none.

Residency: worlds ``world_for`` materialises on demand are bounded by
:data:`ON_DEMAND_WORLDS` — only the most recent is kept, which is all a
run that visits its cells world by world can use.  Worlds pre-built with
``ensure(config, live=True)`` (the sweep's fork fan-out: one build in the
parent, inherited by every worker) stay pinned until
:meth:`SnapshotStore.release_worlds`.  Whoever drops a world collects it:
a world is one reference cycle sitting in the collector's oldest
generation, so each path here that lets one go calls ``gc.collect()``.

Invalidation is rebuild-only, never stale-restore: a blob whose magic,
schema version, world key or CRC does not match expectations is discarded
(and unlinked on disk) and the world is rebuilt from the config.  A
deserialized world is funnelled through :func:`restore_world`, so it
reaches the workload through the exact reset a live hit takes — fresh,
reset and blob-restored worlds are byte-identical by construction.
"""

import gc
import hashlib
import os
import pickle
import tempfile
import zlib
from contextlib import contextmanager
from dataclasses import astuple

from repro.experiments.scenario import build_scenario
from repro.sim.state import Journal


def world_key(config):
    """Hashable identity of the world *config* builds.

    Every :class:`ScenarioConfig` field participates: two configs differing
    in any knob (mapping TTL, miss policy, delay ranges, ...) build
    different worlds and must not share a cache slot.
    """
    return astuple(config)


def build_world(config):
    """Build the world for *config* and arm its journal.

    The world is settled first (the foreground queue is drained of finite
    deployment-time events, e.g. NERD's initial database push — armed
    periodic tasks do not count as pending work) so the checkpoint is of
    a quiescent world; the workload then starts from the same instant on
    fresh builds and reuses alike.  The journal is attached as
    ``scenario.world_checkpoint``: the state at this instant is what
    every later :func:`restore_world` returns to.

    Runs with the cyclic collector paused (see :func:`_gc_paused`): a
    build only ever adds reachable objects, so every collection it would
    trigger re-walks the growing world and frees nothing.  The finished
    world is promoted to the collector's oldest generation, out of sight
    of the young passes the cells that run on it trigger.  A world is one
    reference cycle: a caller that builds one bare and drops it owns the
    ``gc.collect()`` that frees it (the store's paths call their own).
    """
    with _gc_paused():
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
# Snapshot blobs: versioned, immutable, picklable world serializations
# --------------------------------------------------------------------- #

#: Leading bytes of every snapshot blob; anything else is not a snapshot.
SNAPSHOT_MAGIC = b"repro-world-snapshot\n"

#: The one version of everything a blob pickles: the envelope layout, the
#: world key (:class:`~repro.experiments.scenario.ScenarioConfig`'s field
#: tuple), the settled engine (clock, sequence counters, RNG stream
#: states, tracer, the entry heap of ``(when, sequence, callback, args)``
#: tuples with armed periodic-task timers riding it), every component's
#: pickled attributes and ``snapshot_state()`` tuple, and the journal.
#: Bump it whenever any of those changes shape; a mismatched blob is
#: rebuilt, never restored.  The "Versions" paragraph of
#: ``docs/contracts.md`` says when to bump this and when the sweep
#: artifact ``SCHEMA``.
SNAPSHOT_SCHEMA = 17


@contextmanager
def _gc_paused():
    """Pause the cyclic GC for the block, leaving it as it was found.

    Building or (de)serializing a world allocates hundreds of thousands of
    objects in one burst; every collection in the middle scans the whole
    growing graph for garbage that cannot exist yet.  Pausing collection
    for the duration is a ~3x wall-time win on blob restores and takes the
    generation-2 passes out of builds.

    A block that ends normally leaves a settled world behind: long-lived by
    construction, yet young to the collector, whose next passes would walk
    it twice more just to promote it.  ``gc.freeze(); gc.unfreeze()`` splices
    it into the oldest generation instead — two O(1) list merges that leave
    nothing frozen, so a promoted world is ordinary generation-2 data that a
    later ``gc.collect()`` reclaims (whoever drops a world calls one; see
    "World lifecycle cost" in ``docs/contracts.md``).  The splice is skipped
    when the block raised (a half-built world is young garbage), when the
    collector was disabled on entry, and when anything was frozen on entry
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
        # args stay (reason, detail) so the error survives the pickle
        # round trip out of a build-pool worker with its message intact.
        super().__init__(reason, detail)
        self.reason = reason
        self.detail = detail

    def __str__(self):
        return (f"invalid world snapshot ({self.reason})"
                + (f": {self.detail}" if self.detail else ""))


def snapshot_fingerprint(config):
    """Content address of *config*'s snapshot: world key + schema version.

    The schema version participates, so a bump changes every filename and
    old blobs simply stop being found — and a blob found under the right
    name still carries its full world key in the envelope, which
    :func:`validate_blob` checks against the config (defending against
    fingerprint collisions and renamed files).
    """
    identity = (SNAPSHOT_SCHEMA, world_key(config))
    return hashlib.sha256(repr(identity).encode()).hexdigest()


def serialize_world(scenario):
    """Pickle a settled, checkpointed *scenario* into an immutable blob.

    The blob is a versioned envelope: magic, schema version, the full
    world key, a CRC of the payload, and the payload pickle of the whole
    scenario graph (journal included, so a deserialized world restores
    through the normal machinery).  The journal pickles the singletons'
    states and the pristine state of what is dirty right now: nothing
    more for a clean world, and a world serialized dirty still
    deserializes to the pristine one.
    """
    if scenario.world_checkpoint is None:
        raise ValueError("scenario has no world checkpoint; serialize only "
                         "worlds produced by build_world")
    if not scenario.sim.serializable:
        raise ValueError("cannot serialize a world with pending foreground "
                         "events (settle it first)")
    try:
        with _gc_paused():
            payload = pickle.dumps(scenario, protocol=pickle.HIGHEST_PROTOCOL)
    except RecursionError as error:
        # Routes still chain node -> next hop -> node, so the depth is
        # small (about 420 frames at 1 000 tiered sites) but not constant.
        raise SnapshotError(
            "world graph too deep to pickle",
            f"{scenario.config.topology} world of "
            f"{len(scenario.topology.sites)} sites") from error
    envelope = {
        "schema": SNAPSHOT_SCHEMA,
        "key": world_key(scenario.config),
        "crc": zlib.crc32(payload),
        "payload": payload,
    }
    return SNAPSHOT_MAGIC + pickle.dumps(envelope,
                                         protocol=pickle.HIGHEST_PROTOCOL)


def validate_blob(blob, config):
    """Check *blob*'s envelope against *config*; return it or raise.

    Cheap relative to a full restore: the payload is CRC-checked but not
    unpickled, so the pre-build stage can trust-or-rebuild file-backed
    blobs without paying deserialization per world.  Raises
    :class:`SnapshotError` naming the first failed check.
    """
    if not blob.startswith(SNAPSHOT_MAGIC):
        raise SnapshotError("bad magic")
    try:
        envelope = pickle.loads(blob[len(SNAPSHOT_MAGIC):])
        schema = envelope["schema"]
        key = envelope["key"]
        crc = envelope["crc"]
        payload = envelope["payload"]
    except Exception as error:
        raise SnapshotError("corrupt envelope", repr(error)) from error
    if schema != SNAPSHOT_SCHEMA:
        raise SnapshotError("schema mismatch",
                            f"blob v{schema}, expected v{SNAPSHOT_SCHEMA}")
    if key != world_key(config):
        raise SnapshotError("world-key mismatch",
                            "blob was built from a different config")
    if zlib.crc32(payload) != crc:
        raise SnapshotError("payload CRC mismatch")
    return envelope


def _world_from(envelope):
    """Unpickle a validated *envelope*'s payload into a pristine world."""
    try:
        with _gc_paused():
            scenario = pickle.loads(envelope["payload"])
    except Exception as error:
        raise SnapshotError("corrupt payload", repr(error)) from error
    restore_world(scenario)
    return scenario


def deserialize_world(blob, config):
    """Rebuild a live scenario from *blob*, validated against *config*.

    The unpickled world is reset through :func:`restore_world`, so it
    reaches the caller through the same reset a live store hit takes.
    Raises :class:`SnapshotError` on any validation or unpickling failure
    — callers rebuild, they never restore stale state.
    """
    return _world_from(validate_blob(blob, config))


#: How many worlds materialised on demand by :meth:`SnapshotStore.world_for`
#: stay live.  One: a run that visits its cells world by world (the sweep
#: orders them so) never asks for an older world again, and measured with
#: more slots the builds, hits and digests are identical while peak RSS
#: only rises.
ON_DEMAND_WORLDS = 1


class SnapshotStoreStats:
    """Counters for one :class:`SnapshotStore`.

    ``builds`` counts worlds this store built (pre-build stage and
    ``world_for`` misses alike; zero on a warm ``--snapshot-dir`` rerun),
    ``restores`` counts blobs deserialized back into live worlds, ``hits``
    counts valid blobs found already stored, and ``invalidated`` counts
    blobs rejected and discarded by validation.  In-place resets of live
    worlds are not counted here: they are the per-cell ``"hit"`` outcomes
    the sweep tallies.
    """

    __slots__ = ("builds", "restores", "hits", "invalidated")

    def __init__(self):
        self.builds = 0
        self.restores = 0
        self.hits = 0
        self.invalidated = 0

    def as_dict(self):
        return {"builds": self.builds, "restores": self.restores,
                "hits": self.hits, "invalidated": self.invalidated}


class SnapshotStore:
    """The world cache: live worlds and serialized blobs, by world key.

    *Live worlds* are built scenario graphs this process holds; serving
    one is an in-place checkpoint reset (:func:`restore_world`,
    milliseconds).  They come in two residencies.  ``ensure(config,
    live=True)`` *pins* a world until :meth:`release_worlds` — the fork
    fan-out tier: one build in the parent, inherited by every worker as
    copy-on-write memory.  :meth:`world_for` keeps the worlds it had to
    materialise itself, the :data:`ON_DEMAND_WORLDS` most recent of them.

    *Blobs* are the serialized tier: immutable pickled envelopes.  With a
    *directory* they live only there, as content-addressed files
    ``<fingerprint>.world`` that outlive the process — repeated sweeps
    pointed at the same ``--snapshot-dir`` skip building entirely, and
    spawn-platform workers (which cannot inherit parent memory) read them
    from disk — and each read validates the file; invalid ones are unlinked
    and rebuilt.  Without one they are kept in memory.
    """

    def __init__(self, directory=None):
        self.directory = directory
        self.stats = SnapshotStoreStats()
        #: Outcome of the most recent :meth:`world_for` call
        #: ("hit" | "restore" | "miss"), for per-cell reporting.
        self.last_outcome = None
        #: fingerprint -> envelope dict, for a store without a directory.
        #: Envelopes are kept instead of raw blobs so a restore never
        #: re-unpickles the envelope.
        self._envelopes = {}
        #: fingerprint -> live world pinned by ``ensure(live=True)``.
        self._pinned = {}
        #: fingerprint -> live world ``world_for`` materialised, oldest
        #: first, at most ON_DEMAND_WORLDS of them.
        self._recent = {}
        if directory is not None:
            os.makedirs(directory, exist_ok=True)

    def __len__(self):
        return len(self._envelopes.keys() | self._pinned.keys()
                   | self._recent.keys())

    def _path(self, fingerprint):
        return os.path.join(self.directory, f"{fingerprint}.world")

    def _live_world(self, fingerprint):
        scenario = self._pinned.get(fingerprint)
        return self._recent.get(fingerprint) if scenario is None else scenario

    def _envelope_for(self, config):
        """The validated envelope for *config*, or None.

        A directory's file is read and validated (magic, schema, key, CRC)
        on every call and not kept: the caller holds the multi-MB payload
        only while it uses it.  Invalid blobs are discarded (and unlinked).
        """
        fingerprint = snapshot_fingerprint(config)
        if self.directory is None:
            envelope = self._envelopes.get(fingerprint)
            if envelope is not None:
                self.stats.hits += 1
            return envelope
        try:
            with open(self._path(fingerprint), "rb") as handle:
                blob = handle.read()
        except OSError:
            return None
        try:
            envelope = validate_blob(blob, config)
        except SnapshotError:
            self._discard(fingerprint)
            return None
        self.stats.hits += 1
        return envelope

    def has_snapshot(self, config):
        """True when a valid stored snapshot exists for *config*."""
        return self._envelope_for(config) is not None

    def _store_blob(self, fingerprint, blob):
        """Write *blob* to the directory, or keep its envelope in memory.

        The blob was serialized by this process, so parsing the envelope
        is a header unpickle, not a validation round.
        """
        if self.directory is None:
            self._envelopes[fingerprint] = pickle.loads(blob[len(SNAPSHOT_MAGIC):])
        else:
            path = self._path(fingerprint)
            handle = tempfile.NamedTemporaryFile(
                dir=self.directory, prefix=".tmp-", delete=False)
            try:
                with handle:
                    handle.write(blob)
                os.replace(handle.name, path)  # atomic: readers never see partial blobs
            except BaseException:
                os.unlink(handle.name)
                raise

    def put_built(self, config, blob):
        """Store freshly built *blob* for *config*, counting one build."""
        self.stats.builds += 1
        self._store_blob(snapshot_fingerprint(config), blob)

    def _materialise(self, fingerprint, config, envelope):
        """A pristine world that is not live here yet, and how it was made.

        ``"restore"`` when *envelope* (a validated one, or None)
        deserializes; otherwise the world is built — ``"miss"`` — and a
        payload that failed unpickling is discarded like any other invalid
        blob.
        """
        if envelope is not None:
            try:
                scenario = _world_from(envelope)
            except SnapshotError:
                self._discard(fingerprint)
            else:
                self.stats.restores += 1
                return scenario, "restore"
        self.stats.builds += 1
        return build_world(config), "miss"

    def world_for(self, config):
        """The pristine world for *config* and where it came from.

        The store's one read path.  Returns ``(scenario, outcome)``:
        ``"hit"`` resets a live world in place; ``"restore"`` deserializes
        a valid blob; ``"miss"`` builds, and persists a blob when the
        store has a directory.  A restored or built world stays live as
        the most recent on-demand world (see :data:`ON_DEMAND_WORLDS`);
        the previous one is let go — collected, not just dereferenced —
        *before* its successor is made, so one on-demand world is resident
        at a time.
        """
        fingerprint = snapshot_fingerprint(config)
        scenario = self._live_world(fingerprint)
        if scenario is not None:
            restore_world(scenario)
            outcome = "hit"
        else:
            while len(self._recent) >= ON_DEMAND_WORLDS:
                del self._recent[next(iter(self._recent))]
                # A world is one reference cycle, so dropping the last
                # reference frees nothing, and its successor is made with
                # the collector paused: collect now or hold two worlds.
                gc.collect()
            scenario, outcome = self._materialise(
                fingerprint, config, self._envelope_for(config))
            if outcome == "miss" and self.directory is not None:
                self._store_blob(fingerprint, serialize_world(scenario))
            self._recent[fingerprint] = scenario
        self.last_outcome = outcome
        return scenario, outcome

    def ensure(self, config, live=False):
        """Guarantee this store can serve *config*'s world without a build.

        The pre-build stage of a fan-out run.  The world is built at most
        once.  With ``live=True`` (fork fan-out) a live world is pinned —
        hydrated from a valid stored blob when one exists, built otherwise
        — *and* a blob is still written when the store has a
        ``directory``, so persistence and the live tier compose.  Without
        it a blob is guaranteed, and a world built only to be serialized
        is collected before returning.  Returns ``"hit"`` or ``"build"``.
        """
        fingerprint = snapshot_fingerprint(config)
        scenario = self._live_world(fingerprint)
        envelope = self._envelope_for(config)
        outcome = "hit"
        if scenario is None and (live or envelope is None):
            scenario, source = self._materialise(fingerprint, config, envelope)
            if source == "miss":
                outcome, envelope = "build", None
        if live:
            self._pinned[fingerprint] = scenario
        if envelope is None and (self.directory is not None or not live):
            self._store_blob(fingerprint, serialize_world(scenario))
        if outcome == "build" and not live:
            del scenario
            gc.collect()  # worlds are cycles; see world_for
        return outcome

    def release_worlds(self):
        """Drop every held live world and in-memory envelope.

        Stats and on-disk blobs survive; memory does not.  The sweep
        calls this once its run phase ends — pinned worlds (and multi-MB
        envelopes) are held one per distinct world key with no eviction
        while workers may still ask for them, so releasing promptly is
        the memory bound.
        """
        held = bool(self._pinned or self._recent)
        self._pinned.clear()
        self._recent.clear()
        self._envelopes.clear()
        if held:
            gc.collect()  # worlds are cycles; see world_for

    def _discard(self, fingerprint):
        """Forget an invalid blob everywhere (memory, live tiers, disk)."""
        self.stats.invalidated += 1
        self._envelopes.pop(fingerprint, None)
        self._pinned.pop(fingerprint, None)
        self._recent.pop(fingerprint, None)
        if self.directory is not None:
            try:
                os.unlink(self._path(fingerprint))
            except OSError:
                pass
