"""Sharded fleet serving: one fleet partitioned into in-process shards.

:class:`ShardedFleet` deals streams round-robin, in attach order, to
shards — each an in-process :class:`~repro.serving.DeploymentFleet` with
its own micro-batcher and its own copy of its missions' weight sets —
and merges each round's events back in stable stream order.  Shards
share only read-only objects (the embedding model, the frame
generator), so no two shards ever touch one model, token-side cache or
``codes_of`` memo, and scores are bit-identical to one fleet's.

When this process may run on two or more CPUs (``os.sched_getaffinity``)
a round whose streams span several shards runs them on a pool of
``min(shards, CPUs)`` threads: numpy releases the GIL in BLAS and ufunc
loops, and a mission's coalesced forward is GEMM-bound.  On one CPU
threads only queue behind the GIL, so shards run one after another on
the round thread and no thread starts; so does a round with one busy
shard.

Construction loads no model.  :func:`build_sharded_fleet` and
:meth:`ShardedFleet.from_dict` record how to build each shard (from the
model registry with :func:`~repro.serving.build_fleet`'s per-slot code,
or from the shard's slice of a fleet checkpoint); the first request
builds them, and a shard that cannot be built fails it, and every later
one, with a :class:`~repro.errors.WorkerStartupError` naming it.  A
sharded fleet checkpoints to one file in the plain fleet format plus a
``"shards"`` hint, so either fleet class loads the other's checkpoints.
"""

from __future__ import annotations

import functools
import inspect
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from ..api.deployment import Deployment
from ..api.pipeline import Pipeline
from ..data.streams import TrendShiftStream
from ..data.synthetic import FrameGenerator
from ..errors import (CheckpointError, ConfigError, FleetError,
                      WorkerStartupError)
from ..runtime.engine import ServingEngine
from ..utils import binframe
from .batcher import MicroBatcher
from .fleet import (FLEET_FORMAT_VERSION, DeploymentFleet, _build_slot,
                    _FleetFacade, _slot_specs)

__all__ = ["FleetInfra", "ShardedFleet", "build_sharded_fleet",
           "partition_fleet_payload"]

#: FrameGenerator hyperparameters that shape generated frames; they must
#: match between a fleet's streams and the generator its checkpoint is
#: rebuilt over, or restored scores silently diverge.
_GENERATOR_PARAMS = ("anchor_weight", "normal_anchor_weight",
                     "concept_weight", "concepts_per_frame",
                     "semantic_noise", "sensor_noise")


def _generator_param_defaults() -> dict:
    signature = inspect.signature(FrameGenerator.__init__)
    return {name: signature.parameters[name].default
            for name in _GENERATOR_PARAMS}


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask, not the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class FleetInfra:
    """Seeds + hyperparameters from which a fleet checkpoint's shared
    infrastructure is rebuilt.

    The joint embedding model and the synthetic frame generator are
    infrastructure shipped once, not per deployment (see
    :meth:`Deployment.load`); a checkpoint stores them as the seeds that
    rebuild them deterministically.  ``generator_params`` carries any
    non-default :class:`~repro.data.FrameGenerator` hyperparameters
    (which shape the frames streams emit); stream *contents* do not
    depend on the generator's own seed, so that one is carried for
    fidelity, not determinism.
    """

    embedding_seed: int = 7
    generator_seed: int = 7
    generator_params: dict = field(default_factory=dict)

    @classmethod
    def from_pipeline(cls, pipeline) -> "FleetInfra":
        """What ``pipeline`` builds, read from its config (builds nothing)."""
        seed = pipeline.config.experiment.seed
        return cls(embedding_seed=seed, generator_seed=seed)

    @classmethod
    def from_generator(cls, embedding_seed: int,
                       generator: FrameGenerator) -> "FleetInfra":
        return cls(embedding_seed=embedding_seed,
                   generator_seed=generator.seed,
                   generator_params={name: getattr(generator, name)
                                     for name in _GENERATOR_PARAMS})

    def effective_generator_params(self) -> dict:
        return {**_generator_param_defaults(), **self.generator_params}

    def build(self):
        """(embedding_model, frame_generator)."""
        from ..embedding.joint_space import build_default_embedding_model
        embedding = build_default_embedding_model(seed=self.embedding_seed)
        return embedding, FrameGenerator(embedding, seed=self.generator_seed,
                                         **self.generator_params)

    def to_payload(self) -> dict:
        return {"embedding_seed": self.embedding_seed,
                "generator_seed": self.generator_seed,
                "generator_params": dict(self.generator_params)}

    @classmethod
    def from_payload(cls, payload: dict) -> "FleetInfra":
        return cls(embedding_seed=int(payload["embedding_seed"]),
                   generator_seed=int(payload["generator_seed"]),
                   generator_params=dict(payload.get("generator_params")
                                         or {}))


def _empty_fleet_payload(max_batch_windows: int | None, rounds: int = 0) -> dict:
    return {"fleet_format_version": FLEET_FORMAT_VERSION,
            "weights": [], "anchors": [], "models": [], "slots": [],
            "max_batch_windows": max_batch_windows, "rounds": rounds}


def partition_fleet_payload(payload: dict, shards: int) -> list[dict]:
    """Split a whole-fleet checkpoint payload into per-shard payloads.

    Slots are assigned round-robin in stored (= attach) order; each shard
    payload keeps only the models, weight sets and anchor arrays its slots
    reference, re-indexed, so what was shared stays shared *within* a shard.
    """
    if shards < 1:
        raise ConfigError("need at least one shard")
    return [_carry(_empty_fleet_payload(payload.get("max_batch_windows"),
                                        int(payload.get("rounds", 0))),
                   payload, payload["slots"][shard::shards])
            for shard in range(shards)]


def _carry(into: dict, payload: dict, slots: list[dict]) -> dict:
    """Append ``slots`` of ``payload`` to the payload ``into``, with the
    models, weight sets and anchors they reference, re-indexed."""
    moved: dict[tuple[str, int], int] = {}

    def move(kind: str, old: int) -> int:
        if (kind, old) not in moved:
            item = payload[kind][old]
            if kind == "models":
                item = {**item, "weights": move("weights", item["weights"])}
            moved[kind, old] = len(into[kind])
            into[kind].append(item)
        return moved[kind, old]

    for entry in slots:
        anchors = entry["anchors_index"]
        into["slots"].append({
            **entry, "model_index": move("models", entry["model_index"]),
            "anchors_index": None if anchors is None
            else move("anchors", anchors)})
    return into


class _RegistryOnly(Pipeline):
    """A shard's pipeline: serves missions from the registry, never trains."""

    def train(self, mission: str):
        model = self.registry.load(mission, self._fingerprint(),
                                   self.embedding_model)
        if model is None:
            raise CheckpointError("no artifact in the model registry")
        return model


def _build_shard(pipeline, slots: list[dict], max_batch_windows,
                 embedding, generator) -> DeploymentFleet:
    """Attach ``slots`` as ``build_fleet`` does, over a pipeline of the
    shard's own (so its own weight sets) that shares ``pipeline``'s
    config, registry, embedding model and generator; never trains."""
    own = _RegistryOnly(pipeline.config, pipeline.registry)
    own._embedding_model, own._generator = embedding, generator
    fleet, shared = DeploymentFleet(MicroBatcher(max_batch_windows)), {}
    for spec in slots:
        try:
            fleet.add(*_build_slot(own, shared, **spec))
        except Exception as exc:
            raise CheckpointError(f"mission {spec['mission']!r}: {exc!r}") from exc
    return fleet


class ShardedFleet(_FleetFacade):
    """A :class:`DeploymentFleet` partitioned into in-process shards.

    Mirrors the single fleet's surface — ``add``/``remove``,
    ``step``/``serve``, ``save``/``load`` — while each shard scores its
    own streams with its own models; events merge back in attach order.
    Streams must be :class:`~repro.data.TrendShiftStream` instances, so
    that the whole fleet stays checkpointable.  ``shared_infra()``
    returns the (embedding model, frame generator) pair that shards
    built from a checkpoint or the registry share, built on first call.

    Unlike one fleet, a multi-shard round is not atomic: if one shard
    raises, the others have already ingested their slices, so a raised
    ``ingest_round`` or wave is indeterminate and must not be blindly
    re-sent (:meth:`score_only` first is stateless and retryable).

    Use as a context manager, or call :meth:`close` when done, which
    stops the shard thread pool if one was started.
    """

    #: The ``backend`` name ``engine.stats()`` reports.
    backend = "sharded"
    #: The first :meth:`batcher_stats` builds the shards, so concurrent
    #: ``engine.stats()`` readers skip it.
    concurrent_safe_stats = False

    def __init__(self, shards: int, infra: FleetInfra | None = None,
                 max_batch_windows: int | None = None):
        self._setup(shards, infra, max_batch_windows, names=[])
        self._shards = [DeploymentFleet(MicroBatcher(max_batch_windows))
                        for _ in range(shards)]

    def _setup(self, shards: int, infra: FleetInfra | None,
               max_batch_windows: int | None, names: list[str],
               rounds: int = 0) -> "ShardedFleet":
        """All but the shards, ``names`` attached round-robin in order."""
        if shards < 1:
            raise ConfigError("need at least one shard")
        self.shards = shards
        self.infra = infra or FleetInfra()
        self.max_batch_windows = max_batch_windows
        self._order = list(names)          # global attach order
        self._assignment = {name: index % shards
                            for index, name in enumerate(names)}
        self._attach_counter = len(names)  # round-robin cursor
        # add() hands each shard its own copy of a model, made once per
        # (shard, model); the strong reference to the original pins its
        # id() for the fleet's lifetime, so keys never alias.
        self._copies: dict[tuple[int, int], tuple[object, object]] = {}
        self._shards: list[DeploymentFleet] = []
        self._pending: list | None = None  # per-shard builders, until used
        self.shared_infra = functools.cache(self.infra.build)
        self._startup_error: WorkerStartupError | None = None
        threads = min(shards, _cpu_count())
        self.pool_threads = threads if threads > 1 else 0
        self._pool: ThreadPoolExecutor | None = None
        self.fused_rounds = 0
        self._closed = False
        self.engine = ServingEngine(self)
        self.rounds = rounds
        return self

    # ------------------------------------------------------------------
    # Shards
    # ------------------------------------------------------------------
    def _fleets(self) -> list[DeploymentFleet]:
        """The shard fleets; the first call builds them.

        Every shard is attempted; any that fail make this call, and every
        later one, raise one :class:`~repro.errors.WorkerStartupError`
        naming each failed shard.  Not thread-safe until built: the first
        request comes from the thread that runs rounds.
        """
        if self._closed:
            raise FleetError("fleet is closed")
        if self._pending is not None:
            builders, self._pending, failed = self._pending, None, []
            for shard, build in enumerate(builders):
                try:
                    self._shards.append(build(*self.shared_infra()))
                except Exception as exc:  # noqa: BLE001 — reported below
                    failed.append((shard, f"shard {shard}: startup failed: "
                                          f"{type(exc).__name__}: {exc}"))
            if failed:
                self._startup_error = WorkerStartupError(
                    "; ".join(text for _, text in failed), shard=failed[0][0])
        if self._startup_error is not None:
            raise self._startup_error
        return self._shards

    def _each(self, call, parts: dict[int, object]) -> dict[int, object]:
        """``{shard: call(that shard's fleet, part)}`` for each of ``parts``.

        Concurrent on the pool when two or more shards are busy and this
        process has CPUs for threads, else in order on this thread.  Every
        call runs even if another raises; the first exception in shard
        order is raised afterwards.
        """
        fleets = self._fleets()
        if self.pool_threads and len(parts) > 1:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    self.pool_threads, thread_name_prefix="shard")
            runs = {shard: self._pool.submit(call, fleets[shard], part).result
                    for shard, part in parts.items()}
        else:
            runs = {shard: functools.partial(call, fleets[shard], part)
                    for shard, part in parts.items()}
        results, errors = {}, []
        for shard, run in runs.items():
            try:
                results[shard] = run()
            except Exception as exc:  # noqa: BLE001 — re-raised below
                errors.append(exc)
        if errors:
            raise errors[0]
        return results

    def close(self) -> None:
        """Stop the shard thread pool and drop the shards (idempotent);
        the fleet serves nothing afterwards."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown()
        self._shards, self._pending = [], None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def add(self, name: str, deployment: Deployment, stream) -> int:
        """Attach a stream; returns the shard index it was assigned to.

        Assignment is deterministic round-robin over the attach sequence.
        The shard serves its own copy of the deployment; streams whose
        deployments share a model share that shard's one copy of it.
        Reloading a checkpoint re-derives assignments round-robin over
        the *stored* stream order — the same layout unless streams were
        removed mid-run, in which case the layout may shift (scores are
        unaffected either way; shards are disjoint).
        """
        if name in self._assignment:
            raise ConfigError(f"stream {name!r} already attached")
        if not isinstance(stream, TrendShiftStream):
            raise ConfigError(
                f"stream {name!r} is not a TrendShiftStream; only "
                "checkpointable streams can be sharded")
        expected = self.infra.effective_generator_params()
        actual = {param: getattr(stream.generator, param)
                  for param in _GENERATOR_PARAMS}
        if actual != expected:
            raise ConfigError(
                f"stream {name!r} was built over a FrameGenerator whose "
                f"hyperparameters {actual} differ from this fleet's "
                f"FleetInfra {expected}, so its checkpoint would restore "
                "other frames; use FleetInfra.from_generator(...)")
        shard = self._attach_counter % self.shards
        fleets = self._fleets()
        model = deployment.model
        copy = self._copies.get((shard, id(model)), (None, None))[1]
        own = Deployment.from_dict(deployment.to_dict(include_model=copy is None),
                                   model.embedding_model, model=copy)
        self._copies[shard, id(model)] = (model, own.model)
        fleets[shard].add(name, own, stream)
        self._attach_counter += 1
        self._assignment[name] = shard
        self._order.append(name)
        return shard

    def remove(self, name: str) -> Deployment:
        """Detach a stream; returns the deployment its shard served."""
        shard = self._assignment.get(name)
        if shard is None:
            raise KeyError(f"no stream named {name!r} attached")
        deployment = self._fleets()[shard].remove(name)
        del self._assignment[name]
        self._order.remove(name)
        return deployment

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, name: str) -> bool:
        return name in self._assignment

    @property
    def names(self) -> list[str]:
        return list(self._order)

    @property
    def assignment(self) -> dict[str, int]:
        """Stream name -> shard index."""
        return dict(self._assignment)

    def batcher_stats(self) -> dict | None:
        """Micro-batcher counters and held weight sets / token states,
        summed across shards; ``None`` once closed."""
        if self._closed:
            return None
        stats = [fleet.batcher_stats() for fleet in self._fleets()]
        return {key: sum(shard[key] for shard in stats) for key in stats[0]}

    def transport_stats(self) -> dict | None:
        """``shards``, ``pool_threads`` (0: shards run in turn on the round
        thread) and ``fused_rounds`` (waves through :meth:`serve_round`);
        ``None`` once closed.  Plain attribute reads, so safe from any
        thread: the gateway ``stats`` op surfaces them."""
        if self._closed:
            return None
        return {"shards": self.shards, "pool_threads": self.pool_threads,
                "fused_rounds": self.fused_rounds}

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _exchange(self, arrivals: dict, call) -> dict[int, object]:
        """Partition a per-stream mapping by shard assignment and return
        ``{shard: call(its fleet, its slice)}`` in shard order."""
        per_shard: dict[int, dict] = {}
        for name, value in arrivals.items():
            shard = self._assignment.get(name)
            if shard is None:
                raise KeyError(f"no stream named {name!r} attached")
            per_shard.setdefault(shard, {})[name] = value
        return self._each(call, dict(sorted(per_shard.items())))

    def _scatter(self, call, arrivals: dict) -> dict:
        """One split call (scoring or ingest) across the involved shards;
        merges the per-shard dict results."""
        merged: dict = {}
        for reply in self._exchange(arrivals, call).values():
            merged.update(reply)
        return merged

    def pull(self) -> dict:
        """Each live stream's next arrival batch, ``{name: batch}`` in
        global attach order."""
        batches = {name: batch for fleet in self._fleets()
                   for name, batch in fleet.pull().items()}
        return {name: batches[name] for name in self._order
                if name in batches}

    def score(self, arrivals: dict) -> dict:
        """Stateless scoring, each shard's slice coalesced on that shard
        (:meth:`DeploymentFleet.score`)."""
        return self._scatter(lambda fleet, part: fleet.score(part), arrivals)

    def ingest(self, arrivals: dict, scores: dict) -> dict:
        """Each shard's slice through :meth:`DeploymentFleet.ingest`
        (events, or a failed stream's exception), merged."""
        return self._scatter(lambda fleet, part: fleet.ingest(part, scores),
                             arrivals)

    def serve_round(self, arrivals: dict, ingest: list[str]) \
            -> tuple[dict, dict, list[str], list[dict]]:
        """One whole wave: each involved shard fleet scores its slice
        (same batch composition as a split ``score_only``, so
        bit-identical scores) and ingests the ``ingest`` subset.  Returns
        the merged ``(scored, events, unscored, timings)`` of
        :meth:`DeploymentFleet.serve_round` — ``unscored`` lists the
        streams of any shard whose coalesced score failed *cleanly* (that
        shard ingested nothing), and every timing entry gains the
        ``shard`` index and the ``pid`` that stamped it.
        """
        ingest_set = set(ingest)
        replies = self._exchange(arrivals, lambda fleet, part: (
            fleet.serve_round(
                part, [name for name in part if name in ingest_set])))
        self.fused_rounds += 1
        scored: dict = {}
        events: dict = {}
        unscored: list[str] = []
        timings: list[dict] = []
        pid = os.getpid()
        for shard, (part_scored, part_events, part_unscored,
                    part_timings) in replies.items():
            scored.update(part_scored)
            events.update(part_events)
            unscored.extend(part_unscored)
            timings.extend({**entry, "shard": shard, "pid": pid}
                           for entry in part_timings)
        return scored, events, unscored, timings

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def to_dict(self, blobs=None) -> dict:
        """Whole-fleet snapshot in the plain fleet format (slots in global
        attach order, what they reference concatenated across shards) plus
        a ``"shards"`` hint; loadable by :class:`DeploymentFleet` too.
        ``blobs`` as in :meth:`DeploymentFleet.to_dict` (WAL snapshots)."""
        merged = _empty_fleet_payload(self.max_batch_windows, self.rounds)
        for fleet in self._fleets():
            snapshot = fleet.to_dict(blobs=blobs)
            _carry(merged, snapshot, snapshot["slots"])
        by_name = {entry["name"]: entry for entry in merged["slots"]}
        merged["slots"] = [by_name[name] for name in self._order]
        return {**merged, "shards": self.shards,
                "infra": self.infra.to_payload()}

    @classmethod
    def from_dict(cls, payload: dict, shards: int | None = None,
                  infra: FleetInfra | None = None) -> "ShardedFleet":
        """Rebuild a sharded fleet from a whole-fleet payload.

        ``shards`` defaults to the payload's ``"shards"`` hint (1 for a
        checkpoint written by a plain :class:`DeploymentFleet`); passing a
        different count re-partitions the same streams.  ``infra``
        defaults to the payload's stored ``"infra"`` section (sharded
        checkpoints are self-describing); an explicit argument overrides
        it, and default seeds are the last resort for plain-fleet files.
        The shards are built from the payload at the first request.
        """
        version = payload.get("fleet_format_version")
        if version != FLEET_FORMAT_VERSION:
            raise CheckpointError(f"unsupported fleet format version: {version}")
        if shards is None:
            shards = int(payload.get("shards", 1))
        if infra is None and payload.get("infra") is not None:
            infra = FleetInfra.from_payload(payload["infra"])
        fleet = cls.__new__(cls)._setup(
            shards, infra, payload.get("max_batch_windows"),
            [entry["name"] for entry in payload["slots"]],
            int(payload.get("rounds", 0)))
        fleet._pending = [functools.partial(DeploymentFleet.from_dict, part)
                          for part in partition_fleet_payload(payload, shards)]
        return fleet

    @classmethod
    def load(cls, path: str | Path, shards: int | None = None,
             infra: FleetInfra | None = None) -> "ShardedFleet":
        return cls.from_dict(binframe.read_file(path), shards=shards,
                             infra=infra)

    @classmethod
    def from_fleet(cls, fleet: DeploymentFleet, shards: int,
                   infra: FleetInfra | None = None) -> "ShardedFleet":
        """Partition ``fleet`` into ``shards`` shards, through its
        checkpoint format (exact round-trips, so bit-identical scores).
        ``infra`` defaults to the first slot's stream generator's (all
        slots are assumed to share one generator configuration)."""
        if infra is None and fleet.slots:
            generator = fleet.slots[0].stream.generator
            infra = FleetInfra.from_generator(generator.model.seed,
                                              generator)
        return cls.from_dict(fleet.to_dict(), shards=shards, infra=infra)


def build_sharded_fleet(pipeline, missions: list[str], streams: int,
                        shards: int, adaptive: bool = False,
                        windows_per_step: int = 2, stream_seed: int = 100,
                        max_batch_windows: int | None = None,
                        **stream_overrides) -> ShardedFleet:
    """Assemble a sharded fleet over a :class:`~repro.api.Pipeline`.

    :func:`~repro.serving.build_fleet`'s fleet for the same arguments,
    streams dealt round-robin to ``shards`` shards.  Construction only
    trains missions missing from the registry (loading nothing on a
    hit); the first request builds each shard from the registry with
    its own copy of its missions' weights, over ``pipeline``'s embedding
    model and frame generator.
    """
    specs = _slot_specs(missions, streams, adaptive, windows_per_step,
                        stream_seed, stream_overrides)
    fleet = ShardedFleet.__new__(ShardedFleet)._setup(
        shards, FleetInfra.from_pipeline(pipeline), max_batch_windows,
        [spec["name"] for spec in specs])
    registry, fingerprint = pipeline.registry, pipeline._fingerprint()
    for mission in dict.fromkeys(spec["mission"] for spec in specs):
        if not registry.contains(mission, fingerprint):
            pipeline.train(mission)
    fleet.shared_infra = lambda: (pipeline.embedding_model, pipeline.generator)
    fleet._pending = [functools.partial(_build_shard, pipeline,
                                        specs[shard::shards], max_batch_windows)
                      for shard in range(shards)]
    return fleet
