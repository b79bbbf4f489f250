"""World construction and reuse: build scenarios once, reset them cheaply.

Building a sweep cell's world is the expensive part of running it: node and
link construction, DNS install, control-plane deployment and the provider
route build all scale with the site count, while the workload itself is a
few hundred flows.  Cells that share a
:class:`~repro.experiments.scenario.ScenarioConfig` (same control plane,
site count, seed, ...) build *identical* worlds and differ only in the
workload they run — so the world can be built once and recycled.

The mechanism is checkpoint/restore rather than rebuild:

- :func:`build_world` builds a scenario (through the memoized
  :class:`~repro.net.routing.RoutingPlan` route build), settles any
  deployment-time events, and captures a checkpoint of every stateful
  component (``Scenario.stateful_components``).
- :func:`restore_world` puts all of them back — simulator clock, RNG
  stream states, FIB dynamic entries, map-caches, DNS caches, counters,
  link stats — so a restored world is byte-for-byte the world the build
  produced.  Determinism tests diff fresh-build vs reused-world summaries.
  State a run never touched is skipped by version stamp (``Fib.version``,
  the ``Node`` wiring version, ``LinkStats.bytes_offered``); the "World
  lifecycle cost" contract in ``docs/contracts.md`` has the rule for new
  mutators.

Builds and (de)serialization run with the cyclic collector paused
(:func:`_gc_paused`): each is one burst of reachable allocations.

Periodic background processes (RLOC probing, a started IRC measurement
loop) are no obstacle to any of this: they run as engine-owned
:class:`~repro.sim.periodic.PeriodicTask` objects whose timers are plain
engine state, not pending generator frames.  Settling drains *foreground*
work only — an armed periodic tick is not pending work — and the
simulator's checkpoint captures each task's armed flag, next-fire time and
tick counter, **re-arming the timers on restore** so a restored probing
world starts ticking at exactly the instants the fresh build would have.
Every config is therefore cacheable; there is no bypass path.

:class:`WorldBuilder` is the per-process cache the sweep workers hold: a
small LRU keyed on the full scenario config, with hit/miss counters that
the sweep surfaces in its output (the historical ``bypasses`` counter is
retained in the reported dict as an assertion-only zero).

Shared snapshot store
---------------------

A built world is also *serializable*: once settled, the whole object graph
(engine, topology, control plane, checkpoint) is plain picklable data —
see :data:`repro.sim.engine.STATE_VERSION` for the engine's side of that
contract.  :func:`serialize_world` wraps the pickle in a versioned
envelope (magic + schema + engine state version + world key + CRC) and
:class:`SnapshotStore` keeps the resulting immutable blobs keyed by world
key — in memory, and content-addressed on disk under ``directory`` when
one is given.  The sweep pre-builds each distinct world exactly once into
the store; every worker then *restores* (deserializes) from the shared
blob instead of building: fork-inherited read-only memory on ``fork``
platforms, file-backed everywhere else — and with a persistent
``--snapshot-dir``, across invocations too.

Invalidation is rebuild-only, never stale-restore: a blob whose magic,
schema version, engine state version, world key or CRC does not match
expectations is discarded (and unlinked on disk) and the world is rebuilt
from the config.  :func:`deserialize_world` additionally funnels the
unpickled world through :func:`restore_world`, so a store-restored world
reaches the workload through the exact restore machinery a same-process
cache hit uses — fresh, cache-hit and blob-restored worlds are
byte-identical by construction.
"""

import gc
import hashlib
import os
import pickle
import tempfile
import zlib
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import astuple

from repro.experiments.scenario import build_scenario
from repro.sim.engine import STATE_VERSION


def world_key(config):
    """Hashable identity of the world *config* builds.

    Every :class:`ScenarioConfig` field participates: two configs differing
    in any knob (mapping TTL, miss policy, delay ranges, ...) build
    different worlds and must not share a cache slot.
    """
    return astuple(config)


def build_world(config):
    """Build the world for *config* and checkpoint it.

    The world is settled first (the foreground queue is drained of finite
    deployment-time events, e.g. NERD's initial database push — armed
    periodic tasks do not count as pending work) so the checkpoint captures
    a quiescent world; the workload then starts from the same instant on
    fresh builds and reuses alike.  The checkpoint is attached as
    ``scenario.world_checkpoint``.

    Runs with the cyclic collector paused (see :func:`_gc_paused`): a
    build only ever adds reachable objects, so every collection it would
    trigger re-walks the growing world and frees nothing.
    """
    with _gc_paused():
        scenario = build_scenario(config)
        scenario.sim.run()  # settle: drain finite deployment-time events
        scenario.world_checkpoint = capture_world(scenario)
    return scenario


def capture_world(scenario):
    """Checkpoint every stateful component of *scenario*."""
    return [(component, component.snapshot_state())
            for component in scenario.stateful_components()]


def restore_world(scenario):
    """Reset *scenario* to its post-build checkpoint, ready for a new run."""
    if scenario.world_checkpoint is None:
        raise ValueError("scenario has no world checkpoint")
    for component, state in scenario.world_checkpoint:
        component.restore_state(state)
    scenario.stubs.clear()


# --------------------------------------------------------------------- #
# Snapshot blobs: versioned, immutable, picklable world serializations
# --------------------------------------------------------------------- #

#: Leading bytes of every snapshot blob; anything else is not a snapshot.
SNAPSHOT_MAGIC = b"repro-world-snapshot\n"

#: Version of the snapshot envelope layout.  Bumping it (or the engine's
#: :data:`~repro.sim.engine.STATE_VERSION`) invalidates every existing
#: blob: mismatched snapshots are rebuilt, never restored.  v2: link
#: checkpoints carry per-flow byte accounting and utilization windows, and
#: :class:`~repro.experiments.scenario.ScenarioConfig` grew
#: ``access_rate_bps`` (world keys shifted).  v3:
#: :class:`~repro.lisp.probing.RlocProber` checkpoints grew the
#: ``on_down``/``on_up`` transition-listener lists.  v4: the fluid data
#: plane — :class:`~repro.net.link.LinkStats` checkpoints carry
#: ``fluid_bytes``, :class:`~repro.traffic.flows.UdpSink` carries fluid
#: byte counters, and worlds gained the per-world
#: :class:`~repro.traffic.flows.FlowIdAllocator` component.  v5:
#: :class:`~repro.experiments.scenario.ScenarioConfig` grew the
#: ``topology`` family field (world keys shifted) and tiered worlds carry
#: a :class:`~repro.net.routing.TierLayout` plus hierarchical routing
#: plans and IX routers in the pickled graph.  v6: the pickled graph
#: carries the forwarding fast-path state — :class:`~repro.net.fib.Fib`
#: tables their lookup memo slot, nodes their local-address value set.
#: v7: pickled :class:`~repro.net.fib.Fib` tables are per-length hash
#: tables (no trie), ALT RIBs are ``Fib`` tables, node checkpoints split
#: counters from version-stamped wiring.
SNAPSHOT_SCHEMA = 7


@contextmanager
def _gc_paused():
    """Pause the cyclic GC for the block, leaving it as it was found.

    Building or (de)serializing a world allocates hundreds of thousands of
    objects in one burst; every collection in the middle scans the whole
    growing graph for garbage that cannot exist yet.  Pausing collection
    for the duration is a ~3x wall-time win on blob restores and takes the
    generation-2 passes out of builds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
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
    """Content address of *config*'s snapshot: world key + schema versions.

    The schema and engine state versions participate, so a version bump
    changes every filename and old blobs simply stop being found — and a
    blob found under the right name still carries its full world key in
    the envelope, which :func:`validate_blob` checks against the config
    (defending against fingerprint collisions and renamed files).
    """
    identity = (SNAPSHOT_SCHEMA, STATE_VERSION, world_key(config))
    return hashlib.sha256(repr(identity).encode()).hexdigest()


def serialize_world(scenario):
    """Pickle a settled, checkpointed *scenario* into an immutable blob.

    The blob is a versioned envelope: magic, schema + engine state
    versions, the full world key, a CRC of the payload, and the payload
    pickle of the whole scenario graph (checkpoint included, so a
    deserialized world restores through the normal machinery).
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
        # pickle recurses link -> interface -> node -> link along the
        # topology; big tiered graphs outrun the interpreter's stack.
        spec = scenario.config.topology_spec()
        raise SnapshotError(
            "world graph too deep to pickle",
            f"{spec.family} world of {spec.num_sites} sites") from error
    envelope = {
        "schema": SNAPSHOT_SCHEMA,
        "engine": STATE_VERSION,
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
        engine = envelope["engine"]
        key = envelope["key"]
        crc = envelope["crc"]
        payload = envelope["payload"]
    except Exception as error:
        raise SnapshotError("corrupt envelope", repr(error)) from error
    if schema != SNAPSHOT_SCHEMA:
        raise SnapshotError("schema mismatch",
                            f"blob v{schema}, expected v{SNAPSHOT_SCHEMA}")
    if engine != STATE_VERSION:
        raise SnapshotError("engine state-version mismatch",
                            f"blob v{engine}, expected v{STATE_VERSION}")
    if key != world_key(config):
        raise SnapshotError("world-key mismatch",
                            "blob was built from a different config")
    if zlib.crc32(payload) != crc:
        raise SnapshotError("payload CRC mismatch")
    return envelope


def deserialize_world(blob, config):
    """Rebuild a live scenario from *blob*, validated against *config*.

    The unpickled world is reset through :func:`restore_world`, so it
    reaches the caller through the same restore path a same-process cache
    hit takes.  Raises :class:`SnapshotError` on any validation or
    unpickling failure — callers rebuild, they never restore stale state.
    """
    envelope = validate_blob(blob, config)
    try:
        with _gc_paused():
            scenario = pickle.loads(envelope["payload"])
    except Exception as error:
        raise SnapshotError("corrupt payload", repr(error)) from error
    restore_world(scenario)
    return scenario


class SnapshotStoreStats:
    """Counters for one :class:`SnapshotStore`.

    ``builds`` counts worlds built *into* the store (the acceptance
    criterion: exactly one per distinct world key per cold sweep, zero on
    a warm ``--snapshot-dir`` rerun), ``restores`` counts blobs
    deserialized back into live worlds, ``hits`` counts valid blobs found
    already stored, and ``invalidated`` counts blobs rejected and
    discarded by validation.
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
    """World snapshots keyed by world key, in two tiers.

    *Live worlds* (``ensure(config, live=True)``) are built scenario
    graphs held by the parent process; on ``fork`` platforms every worker
    inherits them as read-only memory and a restore is an in-place
    checkpoint reset (:func:`restore_world`, milliseconds) — no
    serialization on the hot path at all.  This is the fan-out tier: one
    build in the parent amortizes across all workers.  It composes with
    a *directory*: the same ``ensure`` call also persists a blob, and on
    warm runs hydrates the live world from the stored blob instead of
    rebuilding.

    *Blobs* (:meth:`ensure`) are the serialized tier: immutable pickled
    envelopes kept in memory and, when *directory* is given, as
    content-addressed files ``<fingerprint>.world`` that outlive the
    process — repeated sweeps pointed at the same ``--snapshot-dir`` skip
    building entirely, and spawn-platform workers (which cannot inherit
    parent memory) read them from disk.  Disk blobs are validated on
    first touch and cached in memory; invalid ones are unlinked and
    rebuilt.
    """

    def __init__(self, directory=None):
        self.directory = directory
        self.stats = SnapshotStoreStats()
        #: fingerprint -> *validated* envelope dict.  Envelopes are cached
        #: instead of raw blobs so a restore never re-validates or
        #: re-unpickles the envelope (and never holds two copies of the
        #: multi-MB payload bytes).
        self._envelopes = {}
        #: fingerprint -> live built scenario (the fork tier).
        self._live = {}
        if directory is not None:
            os.makedirs(directory, exist_ok=True)

    def __len__(self):
        return len(self._envelopes.keys() | self._live.keys())

    def _path(self, fingerprint):
        return os.path.join(self.directory, f"{fingerprint}.world")

    def _envelope_for(self, config):
        """The validated envelope for *config*, or None.

        Validation (magic, schema, engine version, key, CRC) runs at most
        once per process per world: a cache hit returns the envelope
        as-is.  Invalid blobs are discarded (and unlinked on disk).
        """
        fingerprint = snapshot_fingerprint(config)
        envelope = self._envelopes.get(fingerprint)
        if envelope is not None:
            self.stats.hits += 1
            return envelope
        if self.directory is None:
            return None
        try:
            with open(self._path(fingerprint), "rb") as handle:
                blob = handle.read()
        except OSError:
            return None
        try:
            envelope = validate_blob(blob, config)
        except SnapshotError:
            self._discard(fingerprint)
            self.stats.invalidated += 1
            return None
        self._envelopes[fingerprint] = envelope
        self.stats.hits += 1
        return envelope

    def has_snapshot(self, config):
        """True when a valid stored snapshot exists for *config*."""
        return self._envelope_for(config) is not None

    def _store_blob(self, fingerprint, blob):
        """Cache *blob*'s envelope and persist it when a directory is set.

        The blob was serialized by this process, so parsing the envelope
        is a header unpickle, not a validation round.
        """
        self._envelopes[fingerprint] = pickle.loads(blob[len(SNAPSHOT_MAGIC):])
        if self.directory is not None:
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

    def ensure(self, config, live=False):
        """Guarantee this store can restore *config*'s world.

        The world is built at most once.  With ``live=True`` (the fork
        fan-out tier) a live in-store world is guaranteed too — hydrated
        from a valid stored blob when one exists, built otherwise — *and* a
        blob is still written when the store has a ``directory``, so
        persistence and the live tier compose.  Returns ``"hit"`` or
        ``"build"``.
        """
        fingerprint = snapshot_fingerprint(config)
        scenario = self._live.get(fingerprint)
        envelope = self._envelope_for(config)
        if live and scenario is None and envelope is not None:
            scenario = self._deserialize(fingerprint, envelope, config)
            if scenario is not None:
                self._live[fingerprint] = scenario
            envelope = self._envelopes.get(fingerprint)  # None if corrupt
        if envelope is not None and (scenario is not None or not live):
            self._trim_envelope(fingerprint)
            return "hit"
        outcome = "hit"
        if scenario is None:
            scenario = build_world(config)
            self.stats.builds += 1
            outcome = "build"
            if live:
                self._live[fingerprint] = scenario
        if envelope is None and (self.directory is not None or not live):
            self._store_blob(fingerprint, serialize_world(scenario))
            self._trim_envelope(fingerprint)
        return outcome

    def _trim_envelope(self, fingerprint):
        """Drop a cached envelope that is redundant with a live world.

        With both a live world and an on-disk blob for *fingerprint*,
        restores use the live tier and warm processes re-read the disk —
        keeping the multi-MB payload bytes cached too would roughly
        double parent memory per world for nothing.
        """
        if fingerprint in self._live and self.directory is not None:
            self._envelopes.pop(fingerprint, None)

    def restore(self, config):
        """A pristine world for *config* from the store, or None.

        A live world is reset in place (cheap, and the object is shared
        with the store — callers in forked workers each hold their own
        copy-on-write image of it); otherwise the stored, pre-validated
        envelope payload is deserialized into an independent world.  A
        payload that fails unpickling is discarded like any other invalid
        blob — the caller falls back to a build.
        """
        fingerprint = snapshot_fingerprint(config)
        live = self._live.get(fingerprint)
        if live is not None:
            restore_world(live)
            self.stats.restores += 1
            return live
        envelope = self._envelope_for(config)
        if envelope is None:
            return None
        scenario = self._deserialize(fingerprint, envelope, config)
        if scenario is None:
            return None
        self.stats.restores += 1
        return scenario

    def _deserialize(self, fingerprint, envelope, config):
        """Unpickle a validated envelope's payload; None (and discard) on
        failure.  Skips re-validation: envelopes in the cache already
        passed every check."""
        try:
            with _gc_paused():
                scenario = pickle.loads(envelope["payload"])
        except Exception:
            self._discard(fingerprint)
            self.stats.invalidated += 1
            return None
        restore_world(scenario)
        return scenario

    def release_worlds(self):
        """Drop every held live world and cached envelope.

        Stats and on-disk blobs survive; memory does not.  The sweep
        calls this once its run phase ends — the store retains one world
        (or multi-MB envelope) per distinct world key with no eviction
        while restores may still arrive, so releasing promptly is the
        memory bound.
        """
        self._live.clear()
        self._envelopes.clear()

    def _discard(self, fingerprint):
        self._envelopes.pop(fingerprint, None)
        self._live.pop(fingerprint, None)
        if self.directory is not None:
            try:
                os.unlink(self._path(fingerprint))
            except OSError:
                pass


class WorldCacheStats:
    """Counters for one :class:`WorldBuilder` (surfaced by the sweep).

    ``misses`` counts cells the in-process LRU could not serve; each miss
    is resolved either by deserializing a shared snapshot (``restores``)
    or by a full build (``builds``) — so "one build, N restores" is
    directly observable.  ``bypasses`` is assertion-only: every world is
    checkpointable since periodic processes became engine-owned tasks, so
    nothing increments it — it stays in the reported dict so downstream
    consumers can assert it is zero.
    """

    __slots__ = ("builds", "hits", "misses", "restores", "bypasses")

    def __init__(self):
        self.builds = 0
        self.hits = 0
        self.misses = 0
        self.restores = 0
        self.bypasses = 0

    def as_dict(self):
        return {"builds": self.builds, "hits": self.hits,
                "misses": self.misses, "restores": self.restores,
                "bypasses": self.bypasses}

    def count(self, outcome):
        """Tally one ``scenario_for`` outcome ("hit" | "restore" | "miss")."""
        if outcome == "hit":
            self.hits += 1
        elif outcome == "restore":
            self.restores += 1
            self.misses += 1
        elif outcome == "miss":
            self.builds += 1
            self.misses += 1
        else:
            raise ValueError(f"unexpected world-cache outcome {outcome!r}")


class WorldBuilder:
    """A keyed LRU cache of built worlds with checkpoint-based reset.

    One lives in every persistent sweep worker; cells arriving with a
    config seen before get the cached world restored to pristine state
    instead of a rebuild.  ``max_worlds`` bounds resident memory (large
    worlds are the whole point of reuse, and also the reason not to keep
    too many of them alive).

    With a :class:`SnapshotStore`, an LRU miss first tries to restore
    from the shared store (outcome ``"restore"``) and only falls back to
    a full build (outcome ``"miss"``) when the store has no valid
    snapshot — so N workers sharing one store build each distinct world
    at most once between them instead of once each.  Note that
    ``max_worlds`` then bounds only worlds this builder built or
    blob-deserialized itself: a store-held *live* world is shared with
    (and retained by) the store, so evicting it here frees only this
    process's copy-on-write pages.
    """

    def __init__(self, max_worlds=4, store=None):
        if max_worlds < 1:
            raise ValueError("max_worlds must be >= 1")
        self.max_worlds = max_worlds
        self.store = store
        self.stats = WorldCacheStats()
        #: Cache outcome of the most recent scenario_for call
        #: ("hit" | "restore" | "miss"), for per-cell reporting.
        self.last_outcome = None
        self._cache = OrderedDict()

    def __len__(self):
        return len(self._cache)

    def scenario_for(self, config):
        """The world for *config*: cached-and-reset when possible."""
        key = world_key(config)
        scenario = self._cache.get(key)
        if scenario is not None:
            self._cache.move_to_end(key)
            restore_world(scenario)
            self._record("hit")
            return scenario
        outcome = "miss"
        if self.store is not None:
            scenario = self.store.restore(config)
            if scenario is not None:
                outcome = "restore"
        if scenario is None:
            scenario = build_world(config)
        self._record(outcome)
        self._cache[key] = scenario
        while len(self._cache) > self.max_worlds:
            self._cache.popitem(last=False)
        return scenario

    def _record(self, outcome):
        self.stats.count(outcome)
        self.last_outcome = outcome

    def clear(self):
        self._cache.clear()
