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
JSON file that stores what slots share (weights, anchors, models) once.

Since the ``repro.runtime`` extraction the fleet is a thin facade: it
owns stream *state* (slots, batcher, checkpoints) while the round loop
itself lives in :class:`~repro.runtime.ServingEngine` over an
:class:`~repro.runtime.InlineBackend` (``FleetEvent`` moved there too and
is re-exported here for compatibility).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..api.config import config_from_dict, config_to_dict
from ..api.deployment import Deployment
from ..data.streams import TrendShiftConfig, TrendShiftStream
from ..runtime.engine import FleetEvent, ServingEngine
from ..gnn.checkpoint import deployment_from_dict, deployment_to_dict
from ..utils.serialization import atomic_write_json, decode_array, encode_array
from .batcher import MicroBatcher
from ..errors import CheckpointError, ConfigError

__all__ = ["FLEET_FORMAT_VERSION", "FleetEvent", "StreamSlot",
           "DeploymentFleet", "build_fleet"]

FLEET_FORMAT_VERSION = 2


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

    A facade over a :class:`~repro.runtime.ServingEngine` with an
    :class:`~repro.runtime.InlineBackend`: the fleet owns the slots and
    the micro-batcher (state, checkpointing), the engine owns the round
    loop and its metrics.
    """

    def __init__(self, batcher: MicroBatcher | None = None,
                 policy=None, metrics=None):
        from ..runtime.backends import InlineBackend
        self.batcher = batcher or MicroBatcher()
        self._slots: dict[str, StreamSlot] = {}
        self.engine = ServingEngine(InlineBackend(self), policy=policy,
                                    metrics=metrics)

    @property
    def rounds(self) -> int:
        """Serving rounds run so far (counted by the engine)."""
        return self.engine.rounds

    @rounds.setter
    def rounds(self, value: int) -> None:
        self.engine.rounds = int(value)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def add(self, name: str, deployment: Deployment, stream) -> StreamSlot:
        """Attach a stream under ``name``; serving picks it up next round.

        A model instance may be shared across *static* deployments, but
        never where any sharer is adaptive: adaptation mutates its KG tokens
        mid-round, which would make batched and sequential serving diverge
        and entangle the streams.  Frozen weights (``model.sharer()``) may.
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

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def step(self, batched: bool = True) -> list[FleetEvent]:
        """One serving round over every live stream.

        With ``batched`` (the default) all pending windows are scored
        through the micro-batcher — one coalesced forward per distinct
        scoring model — and each deployment ingests its precomputed score
        slice.  With ``batched=False`` each deployment scores its own
        windows (the sequential per-deployment loop; the benchmark's
        baseline).  Both paths produce bit-identical scores and adaptation
        decisions.
        """
        return self.engine.step(batched=batched)

    def serve(self, max_rounds: int | None = None, batched: bool = True):
        """Yield per-round event lists until every stream is exhausted
        (or ``max_rounds`` rounds have run)."""
        return self.engine.serve(max_rounds=max_rounds, batched=batched)

    def ingest_round(self, arrivals: dict, batched: bool = True,
                     scores: dict | None = None) -> dict[str, FleetEvent]:
        """One serving round over externally supplied arrival windows.

        ``arrivals`` maps attached stream names to ``(B, T, frame_dim)``
        window batches — the network gateway's entry point, where windows
        come over the wire instead of from each slot's own stream.  The
        round is scored exactly like :meth:`step` (one micro-batched
        forward per distinct scoring model, each deployment ingesting its
        precomputed slice), so gateway-served scores are bit-identical to
        a direct ``step()`` run over the same per-stream window sequence.
        Slot stream cursors are untouched.

        ``scores`` may carry each stream's precomputed anomaly scores
        (e.g. from a prior :meth:`score_only` call over the same
        windows); scoring is then skipped and the deployments ingest the
        given slices.  The forward is score-then-ingest either way, so a
        scoring failure (bad shapes, mixed window lengths) raises before
        any deployment's state is touched.
        """
        return self.engine.ingest_round(arrivals, batched=batched,
                                        scores=scores)

    def score_only(self, arrivals: dict) -> dict[str, np.ndarray]:
        """Score externally supplied windows without feeding any
        deployment's monitor (the gateway's ``scores`` op); same
        micro-batched forward as :meth:`ingest_round`."""
        return self.engine.score_only(arrivals)

    # ------------------------------------------------------------------
    # Resource management — no-ops, mirroring ShardedFleet's surface so
    # callers (GatewayServer, examples) can manage either fleet type
    # uniformly.
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Nothing to release in-process; exists for fleet-type parity."""

    def __enter__(self) -> "DeploymentFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Whole-fleet snapshot.  What slots share is stored once and
        re-shared on restore: each weight set in ``weights``, each anchor
        array in ``anchors``, each scoring model's KGs (plus the index of
        its weights) in ``models``; a slot names its two by index."""
        weights, anchors, models = [], [], []
        position: dict[int, int] = {}  # id(shared object) -> index in its list

        def once(shared, into: list, encode) -> int:
            """Index of ``shared`` in ``into``, encoded on first sight."""
            if id(shared) not in position:
                position[id(shared)] = len(into)
                into.append(encode())
            return position[id(shared)]

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
                    "weights": once(model.weight_set, weights, lambda: {
                        name: encode_array(value)
                        for name, value in model.state_dict().items()})}),
                "anchors_index": None if windows is None else once(
                    windows, anchors, lambda: encode_array(windows)),
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

    def save(self, path: str | Path) -> None:
        atomic_write_json(path, self.to_dict())

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
        anchors = [decode_array(entry) for entry in payload["anchors"]]
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

    @classmethod
    def load(cls, path: str | Path, embedding_model,
             generator) -> "DeploymentFleet":
        return cls.from_dict(json.loads(Path(path).read_text()),
                             embedding_model, generator)


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
    shared: dict[str, object] = {}
    for index in range(streams):
        mission = missions[index % len(missions)]
        if adaptive:
            deployment = pipeline.deploy(mission)
        else:
            if mission not in shared:
                shared[mission] = pipeline.train(mission)
            deployment = Deployment(shared[mission], mission=mission,
                                    adaptive=False)
        stream = pipeline.stream(mission, None,
                                 windows_per_step=windows_per_step,
                                 seed=stream_seed + index, **stream_overrides)
        fleet.add(f"{mission.lower()}-{index}", deployment, stream)
    return fleet
