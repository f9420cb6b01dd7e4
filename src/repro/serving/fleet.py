"""The deployment fleet: many concurrent streams behind one serving loop.

The paper deploys one edge camera against one drifting anomaly stream;
production serving means N cameras with mixed missions, each backed by a
:class:`~repro.api.Deployment`, all scored as fast as the hardware
allows.  :class:`DeploymentFleet` owns the per-stream runtimes and drives
them in lock-step rounds: each round pulls every live stream's arrival
batch, scores all pending windows through the :class:`MicroBatcher`
(streams whose models run through one weight set coalesce into one
forward), and dispatches the per-stream score slices back into each
deployment's monitor/controller.

Streams can be attached and detached mid-run, and a whole fleet —
deployments, adaptation state, stream positions — checkpoints to a single
file that stores what slots share (weights, anchors, models) once.

The fleet owns stream *state* (slots, batcher, checkpoints) and the one
wave its rounds run (:meth:`DeploymentFleet.serve_round`: coalesced
scoring, then each deployment ingests its slice); the round loop itself
lives in :class:`~repro.runtime.ServingEngine`, which serves over the
fleet (``FleetEvent`` lives there too and is re-exported here).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle
from pathlib import Path

import numpy as np

from ..api.config import config_from_dict, config_to_dict
from ..api.deployment import Deployment
from ..data.streams import TrendShiftConfig, TrendShiftStream
from ..data.synthetic import FrameGenerator
from ..runtime.engine import FleetEvent, ServingEngine
from ..runtime.timeline import stage_timing
from ..gnn.checkpoint import deployment_from_dict, deployment_to_dict
from ..utils import binframe
from .batcher import MicroBatcher, ScoreRequest
from ..errors import CheckpointError, ConfigError, WindowShapeError

__all__ = ["FLEET_FORMAT_VERSION", "FleetEvent", "FleetInfra", "StreamSlot",
           "DeploymentFleet", "build_fleet", "build_sharded_fleet"]

FLEET_FORMAT_VERSION = 4  # arrays are raw float64 buffers, not base64 text

#: FrameGenerator hyperparameters that shape generated frames; they must
#: match between a fleet's streams and the generator its checkpoint is
#: rebuilt over, or restored scores silently diverge.
_GENERATOR_PARAMS = ("anchor_weight", "normal_anchor_weight",
                     "concept_weight", "concepts_per_frame",
                     "semantic_noise", "sensor_noise")


@dataclass(frozen=True)
class FleetInfra:
    """Seeds + hyperparameters from which a fleet checkpoint's shared
    infrastructure is rebuilt (a WAL snapshot stores one beside its
    fleet payload).

    The joint embedding model and the synthetic frame generator are
    infrastructure shipped once, not per deployment (see
    :meth:`Deployment.load`); a snapshot stores them as the seeds that
    rebuild them deterministically.  ``generator_params`` carries the
    :class:`~repro.data.FrameGenerator` hyperparameters (which shape the
    frames streams emit); stream *contents* do not depend on the
    generator's own seed, so that one is carried for fidelity, not
    determinism.
    """

    embedding_seed: int
    generator_seed: int
    generator_params: dict

    @classmethod
    def from_generator(cls, embedding_seed: int,
                       generator: FrameGenerator) -> "FleetInfra":
        return cls(embedding_seed=embedding_seed,
                   generator_seed=generator.seed,
                   generator_params={name: getattr(generator, name)
                                     for name in _GENERATOR_PARAMS})

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


class StreamSlot:
    """One attached stream: a deployment plus its arrival source.

    ``stream`` is ideally a :class:`~repro.data.TrendShiftStream` (or any
    object with ``batch(step)`` and ``__len__``), which makes the slot
    random-access and therefore checkpointable; any iterable of
    :class:`~repro.data.StreamBatch` objects or raw ``(B, T, frame_dim)``
    arrays also works but cannot be saved mid-run.
    """

    def __init__(self, name: str, deployment: Deployment, stream):
        self.name = name
        self.deployment = deployment
        self.stream = stream
        self.cursor = 0       # next step for random-access streams
        self.done = False
        self._iterator = None  # lazily created for plain iterables

    @property
    def indexable(self) -> bool:
        return hasattr(self.stream, "batch") and hasattr(self.stream, "__len__")

    def next_batch(self):
        """The stream's next arrival batch, or ``None`` when exhausted."""
        if self.done:
            return None
        if self.indexable:
            if self.cursor >= len(self.stream):
                self.done = True
                return None
            batch = self.stream.batch(self.cursor)
            self.cursor += 1
            return batch
        if self._iterator is None:
            self._iterator = iter(self.stream)
        try:
            batch = next(self._iterator)
        except StopIteration:
            self.done = True
            return None
        self.cursor += 1
        return batch


class DeploymentFleet:
    """Batched lock-step serving over many concurrent deployment streams.

    The fleet owns the slots and the micro-batcher (state,
    checkpointing) and runs each wave on the caller's thread; its engine
    (``engine``, a :class:`~repro.runtime.ServingEngine`) owns the round
    loop and its metrics, and the serving methods below are a facade
    over it, so callers (GatewayServer, examples) drive the engine
    through the fleet.
    """

    def __init__(self, batcher: MicroBatcher | None = None,
                 metrics=None):
        self.batcher = batcher or MicroBatcher()
        self._slots: dict[str, StreamSlot] = {}
        self.engine = ServingEngine(self, metrics=metrics)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def add(self, name: str, deployment: Deployment, stream) -> StreamSlot:
        """Attach a stream under ``name``; serving picks it up next round.

        A model instance may be shared across *static* deployments, but
        never where any sharer is adaptive: adaptation mutates its KG tokens
        mid-round, which would make coalesced scores diverge from each
        deployment scoring alone and entangle the streams.  Frozen weights (``model.sharer()``) may.
        """
        if name in self._slots:
            raise ConfigError(f"stream {name!r} already attached")
        for other in self._slots.values():
            if (other.deployment.model is deployment.model
                    and (deployment.adaptive or other.deployment.adaptive)):
                raise ConfigError(
                    f"stream {name!r} shares a scoring model with "
                    f"{other.name!r} and at least one of them is adaptive; "
                    "adaptive deployments need private model copies of the "
                    "KG state (model.sharer() keeps the weights shared)")
        slot = StreamSlot(name, deployment, stream)
        self._slots[name] = slot
        return slot

    def remove(self, name: str) -> Deployment:
        """Detach a stream mid-run; returns its deployment for disposal."""
        try:
            slot = self._slots.pop(name)
        except KeyError:
            raise KeyError(f"no stream named {name!r} attached") from None
        return slot.deployment

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, name: str) -> bool:
        return name in self._slots

    @property
    def names(self) -> list[str]:
        return list(self._slots)

    @property
    def slots(self) -> list[StreamSlot]:
        return list(self._slots.values())

    @property
    def active_count(self) -> int:
        return sum(not slot.done for slot in self._slots.values())

    @property
    def rounds(self) -> int:
        """Serving rounds run so far (counted by the engine)."""
        return self.engine.rounds

    @rounds.setter
    def rounds(self, value: int) -> None:
        self.engine.rounds = int(value)

    def close(self) -> None:
        """Nothing to release; a served fleet may be closed, or used as a
        context manager, all the same."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Serving (the engine's round loop)
    # ------------------------------------------------------------------
    def step(self) -> list[FleetEvent]:
        """One serving round over every live stream: all pending windows
        are scored through the micro-batcher — one coalesced forward per
        distinct scoring model — and each deployment ingests its
        precomputed score slice, with scores and adaptation decisions
        bit-identical to each deployment scoring its own windows.
        """
        return self.engine.step()

    def serve(self, max_rounds: int | None = None):
        """Yield per-round event lists until every stream is exhausted
        (or ``max_rounds`` rounds have run)."""
        return self.engine.serve(max_rounds=max_rounds)

    def ingest_round(self, arrivals: dict) -> dict[str, FleetEvent]:
        """One serving round over externally supplied arrival windows.

        ``arrivals`` maps attached stream names to ``(B, T, frame_dim)``
        window batches — the network gateway's entry point, where windows
        come over the wire instead of from each slot's own stream.  The
        round is scored exactly like :meth:`step` (one micro-batched
        forward per distinct scoring model, each deployment ingesting its
        precomputed slice), so gateway-served scores are bit-identical to
        a direct ``step()`` run over the same per-stream window sequence.
        Slot stream cursors are untouched.

        The forward is score-then-ingest, so a scoring failure (bad
        shapes, mixed window lengths) raises before any deployment's
        state is touched; a stream whose ingest fails raises after the
        other streams have ingested.
        """
        return self.engine.ingest_round(arrivals)

    def score_only(self, arrivals: dict) -> dict[str, np.ndarray]:
        """Score externally supplied windows without feeding any
        deployment's monitor (the gateway's ``scores`` op); same
        micro-batched forward as :meth:`ingest_round`."""
        return self.engine.score_only(arrivals)

    # ------------------------------------------------------------------
    # Waves (what the engine serves with)
    # ------------------------------------------------------------------
    def pull(self) -> dict:
        """Each live slot's next arrival batch, ``{name: batch}`` in attach
        order (exhausted slots are left out)."""
        return {slot.name: batch for slot in self._slots.values()
                if (batch := slot.next_batch()) is not None}

    def serve_round(self, arrivals: dict, ingest_names: list[str]) \
            -> tuple[dict, dict, list[str], list[dict]]:
        """One wave: score every arrival coalesced, then ingest the
        ``ingest_names`` subset with its precomputed slices.  Returns
        ``(scored, events, unscored, timings)``: per-stream scores; the
        ingested subset's :meth:`ingest` results; the streams whose
        coalesced score failed *cleanly* (nothing of theirs ingested, so
        the caller may retry them one by one through :meth:`score` +
        :meth:`ingest`); and the :func:`~repro.runtime.timeline.
        stage_timing` entries stamped on the way."""
        timings: list[dict] = []
        try:
            with stage_timing(timings, "score", list(arrivals)):
                scored = self.score(arrivals)
        except Exception:  # noqa: BLE001 — a clean failure: scoring is
            # stateless and nothing was ingested, so the caller isolates
            # the offending entry by re-scoring each stream alone.
            return {}, {}, list(arrivals), timings
        todo = {name: arrivals[name] for name in ingest_names}
        events = {}
        if todo:
            with stage_timing(timings, "ingest", list(todo)):
                events = self.ingest(todo, scored)
        return scored, events, [], timings

    def score(self, arrivals: dict) -> dict[str, np.ndarray]:
        """Stateless coalesced scoring of externally supplied windows
        (``{stream name: (B, T, frame_dim) windows}``); no deployment
        monitor is touched, so a failed or repeated call is safe."""
        slots, windows = self._gather(arrivals)
        if not slots:
            return {}
        all_scores = self.batcher.score(
            [ScoreRequest(slot.deployment.model, batch)
             for slot, batch in zip(slots, windows)])
        return {slot.name: scores
                for slot, scores in zip(slots, all_scores)}

    def ingest(self, arrivals: dict, scores: dict) -> dict:
        """Each stream's deployment ingests its windows with its
        precomputed ``scores`` slice, in attach order.  Returns
        ``{stream: FleetEvent}``, except that a stream whose ingest
        raised maps to the exception instead: one stream's failure is
        its own, and the streams that ingested keep their events."""
        slots, windows = self._gather(arrivals)
        missing = [slot.name for slot in slots if slot.name not in scores]
        if missing:
            raise KeyError(f"no precomputed scores for stream "
                           f"{missing[0]!r}")
        events: dict = {}
        for slot, batch in zip(slots, windows):
            deployment = slot.deployment
            try:
                log = deployment.ingest(batch, scores=np.asarray(
                    scores[slot.name], dtype=np.float64))
            except Exception as exc:  # noqa: BLE001 — the stream's outcome
                events[slot.name] = exc
                continue
            events[slot.name] = FleetEvent(
                stream=slot.name, mission=deployment.mission,
                step=log.step, scores=log.scores, log=log)
        return events

    def _gather(self, arrivals: dict):
        """Validate externally supplied arrivals and order them by slot
        attach order (the order rounds score in)."""
        unknown = sorted(set(arrivals) - set(self._slots))
        if unknown:
            raise KeyError(f"no stream named {unknown[0]!r} attached")
        slots = [slot for name, slot in self._slots.items()
                 if name in arrivals]
        windows = []
        for slot in slots:
            batch = np.asarray(arrivals[slot.name], dtype=np.float64)
            if batch.ndim != 3 or 0 in batch.shape:
                raise WindowShapeError(
                    f"stream {slot.name!r}: expected non-empty "
                    f"(B, T, frame_dim) windows, got shape {batch.shape}")
            windows.append(batch)
        return slots, windows

    def batcher_stats(self) -> dict:
        """Coalescing counters (``batches_run``/``windows_scored``) and
        the distinct ``weight_sets``/``token_states`` (scoring models)
        the slots hold."""
        models = [slot.deployment.model for slot in list(self._slots.values())]
        return {"batches_run": self.batcher.batches_run,
                "windows_scored": self.batcher.windows_scored,
                "weight_sets": len({id(getattr(model, "weight_set", model))
                                    for model in models}),
                "token_states": len({id(model) for model in models})}

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def to_dict(self, blobs=None) -> dict:
        """Whole-fleet snapshot.  What slots share is stored once and
        re-shared on restore: each weight set in ``weights``, each anchor
        array in ``anchors``, each scoring model's KGs (plus the index of
        its weights) in ``models``; a slot names its two by index.  With
        ``blobs`` (a :class:`repro.wal.BlobStore`: WAL snapshots) those two
        lists hold each entry's ``{"blob": digest}`` reference instead."""
        weights, anchors, models = [], [], []
        position: dict[int, int] = {}  # id(shared object) -> index in its list

        def once(shared, into: list, encode) -> int:
            """Index of ``shared`` in ``into``, encoded on first sight."""
            if id(shared) not in position:
                position[id(shared)] = len(into)
                into.append(encode())
            return position[id(shared)]

        def blob(key: tuple, encode):
            """``encode()``, or its reference; ``key``: owner + its arrays."""
            return encode() if blobs is None else blobs.reference(key, encode)

        slots = []
        for slot in self._slots.values():
            if not slot.indexable or not isinstance(slot.stream,
                                                    TrendShiftStream):
                raise CheckpointError(
                    f"stream {slot.name!r} is not a TrendShiftStream; "
                    "only random-access streams can be checkpointed")
            deployment, model = slot.deployment, slot.deployment.model
            windows = deployment.normal_anchor_windows
            slots.append({
                "name": slot.name,
                "model_index": once(model, models, lambda: {
                    **deployment_to_dict(model, weights=False),
                    "weights": once(model.weight_set, weights, lambda: blob(
                        (model.weight_set, *model.buffers(),
                         *(param.data for param in model.parameters())),
                        model.state_dict))}),
                "anchors_index": None if windows is None else once(
                    windows, anchors, lambda: blob(
                        (windows,), lambda: windows)),
                "deployment": deployment.to_dict(include_model=False,
                                                 include_anchors=False),
                "stream_config": config_to_dict(slot.stream.config),
                "cursor": slot.cursor,
                "done": slot.done,
            })
        return {"fleet_format_version": FLEET_FORMAT_VERSION,
                "weights": weights, "anchors": anchors,
                "models": models, "slots": slots,
                "max_batch_windows": self.batcher.max_batch_windows,
                "rounds": self.rounds}

    @classmethod
    def from_dict(cls, payload: dict, embedding_model,
                  generator) -> "DeploymentFleet":
        """Rebuild a fleet saved by :meth:`save`.

        Like :meth:`Deployment.load`, the shared joint embedding model —
        and here also the frame generator backing the synthetic streams —
        are infrastructure passed in rather than stored.
        """
        version = payload.get("fleet_format_version")
        if version != FLEET_FORMAT_VERSION:
            raise CheckpointError(f"unsupported fleet format version: {version}")
        fleet = cls(MicroBatcher(payload.get("max_batch_windows")))
        fleet.rounds = int(payload.get("rounds", 0))
        # First model over a weight set: rebuilt in full; the rest: its sharers.
        bases, models = {}, []
        for entry in payload["models"]:
            key = entry["weights"]
            models.append(deployment_from_dict(
                {**entry, "weights": payload["weights"][key]},
                embedding_model, base=bases.get(key)))
            bases.setdefault(key, models[-1])
        anchors = [entry.view() for entry in payload["anchors"]]
        for array in anchors:
            array.flags.writeable = False  # shared, like Pipeline's
        for entry in payload["slots"]:
            index = entry["anchors_index"]
            deployment = Deployment.from_dict(
                entry["deployment"], embedding_model,
                model=models[entry["model_index"]],
                anchors=None if index is None else anchors[index])
            stream = TrendShiftStream(
                generator,
                config_from_dict(TrendShiftConfig, entry["stream_config"]))
            slot = fleet.add(entry["name"], deployment, stream)
            slot.cursor = int(entry["cursor"])
            slot.done = bool(entry["done"])
        return fleet

    def save(self, path: str | Path) -> None:
        binframe.write_file(path, self.to_dict())

    @classmethod
    def load(cls, path: str | Path, embedding_model,
             generator) -> "DeploymentFleet":
        return cls.from_dict(binframe.read_file(path), embedding_model,
                             generator)


def build_fleet(pipeline, missions: list[str], streams: int,
                adaptive: bool = False,
                windows_per_step: int = 2, stream_seed: int = 100,
                max_batch_windows: int | None = None,
                **stream_overrides) -> DeploymentFleet:
    """Assemble a fleet of ``streams`` trend-shift streams over a
    :class:`~repro.api.Pipeline`.

    Missions are assigned round-robin.  Static streams reuse one scoring
    model per mission; adaptive ones each get a model of their own over the
    mission's one set of frozen weights (``Pipeline.deploy``), since
    continuous KG adaptation makes each stream's KG tokens diverge.  Either
    way a mission's streams coalesce into one forward per round.
    """
    if streams < 1:
        raise ConfigError("need at least one stream")
    if not missions:
        raise ConfigError("need at least one mission")
    fleet = DeploymentFleet(MicroBatcher(max_batch_windows))
    static: dict[str, object] = {}  # mission -> its shared scoring model
    for index, mission in zip(range(streams), cycle(missions)):
        if adaptive:
            deployment = pipeline.deploy(mission)
        else:
            if mission not in static:
                static[mission] = pipeline.train(mission)
            deployment = Deployment(static[mission], mission=mission,
                                    adaptive=False)
        fleet.add(f"{mission.lower()}-{index}", deployment, pipeline.stream(
            mission, None, **{"windows_per_step": windows_per_step,
                              "seed": stream_seed + index,
                              **stream_overrides}))
    return fleet


def build_sharded_fleet(pipeline, missions: list[str], streams: int,
                        shards: int, **kwargs) -> DeploymentFleet:
    """:func:`build_fleet`'s fleet; ``shards`` is only checked.  Exists
    only because perfbench's ``sharded_large`` workload calls it;
    ROADMAP item 1(a) removes it."""
    if shards < 1:
        raise ConfigError("need at least one shard")
    return build_fleet(pipeline, missions, streams, **kwargs)
