"""Sharded multi-process fleet serving.

:class:`~repro.serving.DeploymentFleet` coalesces N streams into batched
forwards, but the whole fleet still runs in one Python process on one
core: throughput is capped by a single GEMM queue no matter how many
cameras attach.  :class:`ShardedFleet` partitions a fleet across worker
processes — deterministic round-robin shard assignment in stream attach
order — runs one :class:`~repro.serving.MicroBatcher` per shard, and
merges per-round :class:`~repro.serving.FleetEvent` lists back in stable
stream order.

Scores are bit-identical to single-process batched serving: shards own
disjoint streams and models, per-shard coalescing keeps the row-stable
GEMM guarantees, and each worker rebuilds the embedding model and frame
generator from seeds, then its streams from its slice of a fleet
checkpoint (whose round-trip is exact) or — :func:`build_sharded_fleet`,
whose parent loads no model — from the registry, with the per-slot code
of :func:`~repro.serving.build_fleet`.  Only JSON and pickled arrays
ever cross the process boundary.

A whole sharded fleet checkpoints to a *single* file in the plain fleet
format (plus a ``"shards"`` hint), so ``DeploymentFleet.load`` can open a
sharded checkpoint and vice versa.

Like :class:`~repro.serving.DeploymentFleet`, the sharded fleet is a
facade over :class:`~repro.runtime.ServingEngine` — here with a
:class:`~repro.runtime.ShardedBackend` that scatters rounds across the
worker pool, while each worker's in-process fleet runs the same engine
loop over its own shard.

Workers are plain ``python -c`` subprocesses, not :mod:`multiprocessing`
children, so sharding needs a POSIX system.  Each inherits exactly three
descriptors: its end of a socketpair carrying a
:class:`multiprocessing.connection.Connection`, and one anonymous
:mod:`~repro.serving.shm_ring` buffer per direction.  Nothing re-imports
the parent's ``__main__`` (a script needs no ``if __name__ ==
"__main__"`` guard), no resource-tracker process starts, and no name
ever appears in ``/dev/shm``.

Parent<->worker payloads ride those buffers; the connection is the
control plane — a ``("shm", length)`` doorbell per message (which also
provides the happens-before edge that makes the lock-free buffers safe
under the fleet's strict request/response alternation), ``("inline",
payload)`` fallbacks for messages that outsize a buffer, and
error/``stop`` signaling.  :meth:`ShardedFleet.transport_stats` counts
buffer traffic and pipe fallbacks.
"""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, Pipe
from pathlib import Path

from ..api.config import ReproConfig, config_from_dict, config_to_dict
from ..api.deployment import Deployment
from ..api.pipeline import Pipeline
from ..api.registry import ModelRegistry
from ..data.streams import TrendShiftConfig, TrendShiftStream
from ..data.synthetic import FrameGenerator
from ..errors import (CheckpointError, ConfigError, FleetError,
                      WorkerError, WorkerStartupError)
from ..runtime.engine import FleetEvent, ServingEngine
from ..utils.serialization import atomic_write_json
from .fleet import (FLEET_FORMAT_VERSION, DeploymentFleet, _build_slot,
                    _slot_specs)
from .shm_ring import (DEFAULT_RING_BYTES, RingBuffer, RingError,
                       dumps_message, loads_message)

__all__ = ["FleetInfra", "ShardedFleet", "build_sharded_fleet",
           "partition_fleet_payload"]

#: FrameGenerator hyperparameters that shape generated frames; they must
#: match between the parent's streams and the workers' rebuilt generator
#: or sharded scores silently diverge from single-process serving.
_GENERATOR_PARAMS = ("anchor_weight", "normal_anchor_weight",
                     "concept_weight", "concepts_per_frame",
                     "semantic_noise", "sensor_noise")

#: What a shard worker runs under ``python -c``; its three descriptors
#: follow in ``sys.argv``.  (``-m repro.serving.sharded`` would import
#: this module a second time, as ``__main__``.)
_WORKER_ENTRY = ("from repro.serving.sharded import _shard_worker_main; "
                 "_shard_worker_main()")

#: The directory holding this ``repro`` package, put first on every
#: worker's ``PYTHONPATH`` so workers import the parent's code.
_PACKAGE_ROOT = str(Path(__file__).resolve().parents[2])


def _generator_param_defaults() -> dict:
    signature = inspect.signature(FrameGenerator.__init__)
    return {name: signature.parameters[name].default
            for name in _GENERATOR_PARAMS}


@dataclass(frozen=True)
class FleetInfra:
    """Seeds + hyperparameters from which a worker rebuilds the shared
    infrastructure.

    The joint embedding model and the synthetic frame generator are
    infrastructure shipped once, not per deployment (see
    :meth:`Deployment.load`); across a process boundary "shipped" means
    rebuilt deterministically from seeds.  ``generator_params`` carries
    any non-default :class:`~repro.data.FrameGenerator` hyperparameters
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
        """(embedding_model, frame_generator) for one process."""
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


def _shard_worker_main() -> None:
    """One shard's process: a private DeploymentFleet behind a pipe.

    Runs under ``python -c`` (:data:`_WORKER_ENTRY`) with three inherited
    descriptors in ``sys.argv``: the control connection, then the
    parent->worker and worker->parent buffers.  The first message on the
    connection is the boot payload (see :meth:`ShardedFleet._start_workers`),
    which the worker parses, builds from and drops.  Every later request
    is answered with ``("ok", result)`` or ``("error", message)`` —
    worker exceptions surface in the parent instead of killing the shard.
    Startup failures (bad payload, embedding-fingerprint mismatch, a
    mission missing from the registry) are relayed as a ``("fatal",
    message)`` reply so the parent's next request reports the real cause
    rather than a bare EOFError.

    The payload bytes of every request and reply ride the buffers (see
    :mod:`repro.serving.shm_ring`); the connection carries only
    transport tokens — ``("shm", length)`` doorbells or ``("inline",
    payload)`` fallbacks for messages that outsize a buffer.
    """
    conn_fd, in_fd, out_fd = map(int, sys.argv[1:4])
    conn = Connection(conn_fd)
    ring_in, ring_out = RingBuffer(in_fd), RingBuffer(out_fd)

    def reply(payload: tuple) -> None:
        blob = dumps_message(payload)
        if ring_out.write(blob):
            conn.send(("shm", len(blob)))
        else:
            conn.send(("inline", payload))

    try:
        boot = json.loads(conn.recv_bytes())
        embedding, generator = FleetInfra.from_payload(boot["infra"]).build()
        fleet = DeploymentFleet.from_dict(boot["fleet"], embedding, generator)
        if "build" in boot:
            _build_shard(fleet, boot["build"], embedding, generator)
        del boot  # serve without the payload text or its parsed dict
    except Exception as exc:  # noqa: BLE001 — relayed to the parent
        conn.send(("inline", ("fatal", f"worker startup failed: "
                                       f"{type(exc).__name__}: {exc}")))
        return
    models_by_token: dict[str, object] = {}  # "add"-shipped shared models

    def execute(command: str, args: list):
        """Run one worker command and return its result."""
        if command == "step":
            return fleet.step(batched=args[0])
        if command == "add":
            entry = args[0]
            # Streams sharing a scoring model in the parent keep
            # sharing it here (the parent ships each model once per
            # shard, keyed by token), so the shard's micro-batcher
            # still coalesces them and snapshots store the model once.
            token = entry.get("model_token")
            deployment = Deployment.from_dict(
                entry["deployment"], embedding,
                model=models_by_token.get(token))
            if token is not None:
                models_by_token[token] = deployment.model
            stream = TrendShiftStream(
                generator,
                config_from_dict(TrendShiftConfig,
                                 entry["stream_config"]))
            slot = fleet.add(entry["name"], deployment, stream)
            slot.cursor = int(entry.get("cursor", 0))
            slot.done = bool(entry.get("done", False))
            return None
        if command == "remove":
            return fleet.remove(args[0]).to_dict(include_model=True)
        if command == "ingest_round":
            arrivals, batched, scores = args
            if scores is not None:
                scores = {name: scores[name] for name in arrivals}
            return fleet.ingest_round(arrivals, batched=batched,
                                      scores=scores)
        if command == "score_only":
            return fleet.score_only(args[0])
        if command == "serve_round":
            # The whole wave in one ring round-trip: the shard's own
            # inline backend scores then ingests exactly as a
            # single-process fleet would (same per-shard batch
            # composition, so bit-identical scores) and its stage
            # timings ride the reply.
            return fleet.engine.backend.serve_round(*args)
        if command == "snapshot":
            return fleet.to_dict()
        if command == "stats":
            return fleet.engine.backend.batch_stats()
        raise ConfigError(f"unknown worker command {command!r}")

    while True:
        try:
            token = conn.recv()
        except EOFError:
            return
        try:
            kind = token[0] if isinstance(token, tuple) and token else None
            if kind == "shm":
                message = loads_message(ring_in.read(token[1]))
            elif kind == "inline":
                message = token[1]
            else:
                raise RingError(f"unexpected transport token {token!r}")
        except RingError as exc:
            reply(("error", f"shared-memory transport failure: {exc}"))
            continue
        command, *args = message
        if command == "stop":
            reply(("ok", None))
            return
        try:
            reply(("ok", execute(command, args)))
        except Exception as exc:  # noqa: BLE001 — relayed to the parent
            reply(("error", f"{type(exc).__name__}: {exc}"))


def _build_shard(fleet, build: dict, embedding, generator) -> None:
    """Attach ``build["slots"]`` as ``build_fleet`` does; never trains."""
    registry = ModelRegistry(build["registry"])  # a root, or in memory ...
    registry._entries.update(build["artifacts"])  # ... holding these
    pipeline = Pipeline(ReproConfig.from_dict(build["config"]), registry)
    pipeline._embedding_model, pipeline._generator = embedding, generator
    fingerprint, shared = pipeline._fingerprint(), {}
    for spec in build["slots"]:
        try:
            if not registry.contains(spec["mission"], fingerprint):
                raise CheckpointError("no artifact in the model registry")
            fleet.add(*_build_slot(pipeline, shared, **spec))
        except Exception as exc:
            raise CheckpointError(f"mission {spec['mission']!r}: {exc!r}") from exc


class ShardedFleet:
    """A :class:`DeploymentFleet` partitioned across worker processes.

    Mirrors the single-process fleet's surface — ``add``/``remove``,
    ``step``/``serve``, ``save``/``load`` — while each shard scores its
    streams in its own process.  Streams must be
    :class:`~repro.data.TrendShiftStream` instances (anything attached
    has to survive the serialized trip to its worker).

    Use as a context manager, or call :meth:`close` when done; worker
    processes otherwise linger until garbage collection.
    """

    def __init__(self, shards: int, infra: FleetInfra | None = None,
                 max_batch_windows: int | None = None):
        self._setup(shards, infra, max_batch_windows, names=[])
        self._start_workers([{"fleet": _empty_fleet_payload(max_batch_windows)}
                             for _ in range(shards)])

    def _setup(self, shards: int, infra: FleetInfra | None,
               max_batch_windows: int | None, names: list[str],
               rounds: int = 0) -> "ShardedFleet":
        """All but the workers, ``names`` attached round-robin in order."""
        if shards < 1:
            raise ConfigError("need at least one shard")
        self.shards = shards
        self.infra = infra or FleetInfra()
        self.max_batch_windows = max_batch_windows
        self._order = list(names)          # global attach order
        self._assignment = {name: index % shards
                            for index, name in enumerate(names)}
        self._attach_counter = len(names)  # round-robin cursor
        # Model identity tracking for add(): streams sharing a model ship
        # it once per shard (the strong reference pins the id() for the
        # fleet's lifetime so tokens can never alias a recycled object).
        self._model_tokens: dict[int, tuple[str, object]] = {}
        self._shipped_models: set[tuple[int, str]] = set()
        self._local_embedding = None       # lazily built for remove()
        # Per-shard control connections, worker processes and message
        # buffers (one per direction), plus the transport counters.
        self._conns: list[Connection] = []
        self._procs: list[subprocess.Popen] = []
        self._rings_out: list[RingBuffer] = []  # parent -> worker
        self._rings_in: list[RingBuffer] = []   # worker -> parent
        self._transport_counters = {"shm_messages": 0, "shm_bytes": 0,
                                    "pipe_fallbacks": 0, "fused_rounds": 0}
        self._closed = False
        from ..runtime.backends import ShardedBackend
        self.engine = ServingEngine(ShardedBackend(self))
        self.rounds = rounds
        return self

    @property
    def rounds(self) -> int:
        """Serving rounds run so far (counted by the engine)."""
        return self.engine.rounds

    @rounds.setter
    def rounds(self, value: int) -> None:
        self.engine.rounds = int(value)

    # ------------------------------------------------------------------
    # Worker plumbing
    # ------------------------------------------------------------------
    def _start_workers(self, boots: list[dict]) -> None:
        """Launch one worker per shard, then send each its boot message: infra
        seeds, a fleet checkpoint slice and maybe ``"build"`` (:func:`_build_shard`).

        Every worker is started before any payload is sent, so workers
        import and build concurrently.  The payload rides the control
        connection, not a buffer: it is larger than any round message
        and would raise the pages a buffer touches for good.
        Construction returns before the workers have finished building
        — the first request waits for them and reports a startup
        failure; acknowledging each boot here would add a worker's build
        time to every construction.
        """
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": _PACKAGE_ROOT if not path
               else _PACKAGE_ROOT + os.pathsep + path}
        for _ in boots:
            conn, child = Pipe()
            self._conns.append(conn)
            self._rings_out.append(RingBuffer.create(DEFAULT_RING_BYTES))
            self._rings_in.append(RingBuffer.create(DEFAULT_RING_BYTES))
            fds = (child.fileno(), self._rings_out[-1].fileno(),
                   self._rings_in[-1].fileno())
            try:
                self._procs.append(subprocess.Popen(
                    [sys.executable, "-c", _WORKER_ENTRY, *map(str, fds)],
                    pass_fds=fds, env=env, stdin=subprocess.DEVNULL))
            finally:
                child.close()
        infra = self.infra.to_payload()
        for conn, boot in zip(self._conns, boots):
            try:
                conn.send_bytes(json.dumps({"infra": infra, **boot}).encode())
            except OSError:
                pass  # a worker dead at startup: the next request says so

    def _check_open(self) -> None:
        if self._closed:
            raise FleetError("fleet is closed")

    def _post(self, shard: int, message: tuple, blob: bytes) -> None:
        # A send to a dead worker fails; its queued "fatal" reply (or an
        # EOF) is still waiting on the recv side, which reports the cause.
        #
        # The payload rides this shard's shared-memory buffer when it
        # fits (the pipe carries only a ("shm", length) doorbell) and
        # falls back to an inline pipe message otherwise — capacity
        # bounds latency, never correctness.
        conn = self._conns[shard]
        try:
            if self._rings_out[shard].write(blob):
                self._transport_counters["shm_messages"] += 1
                self._transport_counters["shm_bytes"] += len(blob)
                conn.send(("shm", len(blob)))
            else:
                self._transport_counters["pipe_fallbacks"] += 1
                conn.send(("inline", message))
        except OSError:
            pass

    def _recv(self, shard: int) -> tuple:
        try:
            token = self._conns[shard].recv()
        except (EOFError, OSError):  # a killed worker may reset the socket
            return ("error", "worker process died unexpectedly")
        kind = token[0] if isinstance(token, tuple) and token else None
        if kind == "inline":
            return token[1]
        if kind == "shm":
            try:
                reply = loads_message(self._rings_in[shard].read(token[1]))
            except RingError as exc:
                return ("error", f"shared-memory transport failure: {exc}")
            self._transport_counters["shm_messages"] += 1
            self._transport_counters["shm_bytes"] += int(token[1])
            return reply
        return ("error", f"unexpected transport token {token!r}")

    def _request(self, shard: int, message: tuple):
        return self._roundtrip({shard: message})[shard]

    def _broadcast(self, message: tuple) -> list:
        """Send to every shard first, then collect — shards overlap."""
        return list(self._roundtrip(
            {shard: message for shard in range(len(self._conns))}).values())

    def _roundtrip(self, messages: dict[int, tuple]) -> dict[int, object]:
        """Send each shard its message, then drain one reply per shard;
        returns ``{shard: value}`` in ``messages`` order.

        Every blob is encoded *before* the first doorbell rings, so the
        workers start as close to simultaneously as possible instead of
        shard N+1 waiting out shard N's encode.  Every reply is drained
        before any error is raised; bailing on the first failure would
        leave later shards' replies queued and desynchronize the next
        command.  Non-``ok`` replies raise
        :class:`~repro.errors.WorkerError` — startup failures (a worker's
        ``fatal`` relay) the narrower
        :class:`~repro.errors.WorkerStartupError`.
        """
        self._check_open()
        blobs = {shard: dumps_message(message)
                 for shard, message in messages.items()}
        for shard, message in messages.items():
            self._post(shard, message, blobs[shard])
        replies = {shard: self._recv(shard) for shard in messages}
        failed = [(shard, status, value)
                  for shard, (status, value) in replies.items()
                  if status != "ok"]
        if failed:
            # One shard's startup failure outranks run-of-the-mill errors:
            # it is the root cause the others' broken pipes follow from.
            shard, status, value = next(
                (f for f in failed if f[1] == "fatal"), failed[0])
            cls = WorkerStartupError if status == "fatal" else WorkerError
            raise cls("; ".join(f"shard {s}: {v}" for s, _, v in failed),
                      shard=shard)
        return {shard: value for shard, (_, value) in replies.items()}

    def close(self) -> None:
        """Shut down the worker processes (idempotent).

        Each worker is asked to stop and waited for (killed if it does
        not exit in time), then this side's buffers are closed.  They
        are anonymous, so nothing outlives the processes that map them —
        not even after a worker crash.
        """
        if self._closed:
            return
        self._closed = True
        for shard, conn in enumerate(self._conns):
            try:
                # "stop" is control-plane: always inline on the pipe.
                conn.send(("inline", ("stop",)))
                self._recv(shard)
            except OSError:
                pass
            conn.close()
        for process in self._procs:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        for ring in (*self._rings_out, *self._rings_in):
            ring.close()
        self._conns, self._procs = [], []
        self._rings_out, self._rings_in = [], []

    def __enter__(self) -> "ShardedFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:  # noqa: BLE001 — interpreter may be tearing down
            pass

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def add(self, name: str, deployment: Deployment, stream) -> int:
        """Attach a stream; returns the shard index it was assigned to.

        Assignment is deterministic round-robin over the attach sequence.
        Reloading a checkpoint re-derives assignments round-robin over
        the *stored* stream order — the same layout unless streams were
        removed mid-run, in which case the layout may shift (scores are
        unaffected either way; shards are disjoint).
        """
        self._check_open()
        if name in self._assignment:
            raise ConfigError(f"stream {name!r} already attached")
        if not isinstance(stream, TrendShiftStream):
            raise ConfigError(
                f"stream {name!r} is not a TrendShiftStream; only "
                "checkpointable streams can cross the process boundary")
        expected = self.infra.effective_generator_params()
        actual = {param: getattr(stream.generator, param)
                  for param in _GENERATOR_PARAMS}
        if actual != expected:
            raise ConfigError(
                f"stream {name!r} was built over a FrameGenerator whose "
                f"hyperparameters {actual} differ from this fleet's "
                f"FleetInfra {expected}; workers would regenerate "
                "different frames and scores would silently diverge — "
                "construct the fleet with FleetInfra.from_generator(...) "
                "over this stream's generator")
        shard = self._attach_counter % self.shards
        self._attach_counter += 1
        key = id(deployment.model)
        if key not in self._model_tokens:
            self._model_tokens[key] = (f"model-{len(self._model_tokens)}",
                                       deployment.model)
        token = self._model_tokens[key][0]
        ship_model = (shard, token) not in self._shipped_models
        entry = {"name": name,
                 "deployment": deployment.to_dict(include_model=ship_model),
                 "model_token": token,
                 "stream_config": config_to_dict(stream.config),
                 "cursor": 0, "done": False}
        self._request(shard, ("add", entry))
        self._shipped_models.add((shard, token))
        self._assignment[name] = shard
        self._order.append(name)
        return shard

    def remove(self, name: str) -> Deployment:
        """Detach a stream; returns its deployment, rebuilt locally."""
        shard = self._assignment.get(name)
        if shard is None:
            raise KeyError(f"no stream named {name!r} attached")
        payload = self._request(shard, ("remove", name))
        del self._assignment[name]
        self._order.remove(name)
        if self._local_embedding is None:
            self._local_embedding, _ = self.infra.build()
        return Deployment.from_dict(payload, self._local_embedding)

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

    def batcher_stats(self) -> dict:
        """Micro-batcher counters and held weight sets / token states,
        summed across shards."""
        stats = self._broadcast(("stats",))
        return {key: sum(shard[key] for shard in stats) for key in stats[0]}

    def transport_stats(self) -> dict:
        """Parent<->worker transport counters: messages/bytes through the
        shared-memory buffers and how often a message outsized its buffer
        and fell back to the pipe (surfaced through ``engine.stats()``
        and the gateway ``stats`` op)."""
        return {"transport": "shm", "ring_bytes": DEFAULT_RING_BYTES,
                **self._transport_counters}

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def step(self, batched: bool = True) -> list[FleetEvent]:
        """One serving round: every shard steps concurrently; events are
        merged back in stable (attach-order) stream order, matching the
        single-process fleet's event order exactly."""
        return self.engine.step(batched=batched)

    def serve(self, max_rounds: int | None = None, batched: bool = True):
        """Yield per-round event lists until every stream is exhausted
        (or ``max_rounds`` rounds have run)."""
        return self.engine.serve(max_rounds=max_rounds, batched=batched)

    def _exchange(self, arrivals: dict, message_for) -> dict[int, tuple]:
        """Partition a per-stream mapping by shard assignment, send each
        involved shard ``message_for(its slice)`` (all sends before any
        recv, so shards overlap), and return ``{shard: reply}`` in shard
        order."""
        per_shard: dict[int, dict] = {}
        for name, value in arrivals.items():
            shard = self._assignment.get(name)
            if shard is None:
                raise KeyError(f"no stream named {name!r} attached")
            per_shard.setdefault(shard, {})[name] = value
        return self._roundtrip({shard: message_for(per_shard[shard])
                                for shard in sorted(per_shard)})

    def _scatter(self, command: str, arrivals: dict, extra: tuple = ()):
        """One split command (``score_only`` / ``ingest_round``) across
        the involved shards; merges the per-shard dict replies."""
        merged: dict = {}
        for reply in self._exchange(
                arrivals, lambda part: (command, part, *extra)).values():
            merged.update(reply)
        return merged

    def ingest_round(self, arrivals: dict, batched: bool = True,
                     scores: dict | None = None) -> dict:
        """One serving round over externally supplied arrival windows;
        the sharded twin of :meth:`DeploymentFleet.ingest_round` (each
        involved shard micro-batches its own slice concurrently).

        Unlike the single-process fleet, a multi-shard round is not
        atomic: each shard scores-then-ingests its own slice, so if one
        shard fails (worker death) the other shards' streams have
        already ingested their windows.  Callers must treat a raised
        round as indeterminate and must not blindly re-send the same
        windows, or surviving streams double-ingest.  Pre-validating
        windows with :meth:`score_only` (stateless, safely retryable)
        and passing the result as ``scores`` confines ingest-time
        failures to genuine worker crashes.
        """
        return self.engine.ingest_round(arrivals, batched=batched,
                                        scores=scores)

    def score_only(self, arrivals: dict) -> dict:
        """Score externally supplied windows without feeding any
        monitor; the sharded twin of :meth:`DeploymentFleet.score_only`."""
        return self.engine.score_only(arrivals)

    def serve_round(self, arrivals: dict, ingest: list[str]) \
            -> tuple[dict, dict, list[str], list[dict]]:
        """One whole wave in one ring round-trip per involved shard: each
        shard's inline backend scores its slice (same batch composition
        as a split ``score_only`` scatter, so bit-identical scores) and
        ingests the ``ingest`` subset.  Returns the merged ``(scored,
        events, unscored, timings)`` of
        :meth:`repro.runtime.ExecutionBackend.serve_round` — ``unscored``
        lists the streams of any shard whose coalesced score failed
        *cleanly* (that shard ingested nothing), and every timing entry
        gains the ``shard`` index and worker ``pid`` that stamped it.

        Raises :class:`~repro.errors.WorkerError` only on worker death —
        like a raised :meth:`ingest_round`, an indeterminate outcome the
        caller must not blindly re-send.
        """
        ingest_set = set(ingest)
        replies = self._exchange(arrivals, lambda part: (
            "serve_round", part,
            [name for name in part if name in ingest_set]))
        self._transport_counters["fused_rounds"] += 1
        scored: dict = {}
        events: dict = {}
        unscored: list[str] = []
        timings: list[dict] = []
        for shard, (part_scored, part_events, part_unscored,
                    part_timings) in replies.items():
            scored.update(part_scored)
            events.update(part_events)
            unscored.extend(part_unscored)
            pid = self._procs[shard].pid
            timings.extend({**entry, "shard": shard, "pid": pid}
                           for entry in part_timings)
        return scored, events, unscored, timings

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Whole-fleet snapshot in the plain fleet format (slots in global
        attach order, what they reference concatenated across shards) plus
        a ``"shards"`` hint; loadable by :class:`DeploymentFleet` too."""
        merged = _empty_fleet_payload(self.max_batch_windows, self.rounds)
        for snapshot in self._broadcast(("snapshot",)):
            _carry(merged, snapshot, snapshot["slots"])
        by_name = {entry["name"]: entry for entry in merged["slots"]}
        merged["slots"] = [by_name[name] for name in self._order]
        return {**merged, "shards": self.shards,
                "infra": self.infra.to_payload()}

    def save(self, path: str | Path) -> None:
        atomic_write_json(path, self.to_dict())

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
        fleet._start_workers([{"fleet": part} for part in
                              partition_fleet_payload(payload, shards)])
        return fleet

    @classmethod
    def load(cls, path: str | Path, shards: int | None = None,
             infra: FleetInfra | None = None) -> "ShardedFleet":
        return cls.from_dict(json.loads(Path(path).read_text()),
                             shards=shards, infra=infra)

    @classmethod
    def from_fleet(cls, fleet: DeploymentFleet, shards: int,
                   infra: FleetInfra | None = None) -> "ShardedFleet":
        """Partition an in-process fleet across ``shards`` workers.

        The fleet is serialized through its checkpoint format, so every
        worker's models are exact round-trips of the originals — sharded
        scores stay bit-identical to the source fleet's.  When ``infra``
        is omitted it is derived from the first slot's stream generator
        (all slots are assumed to share one generator configuration; mix
        generators with different hyperparameters and workers would
        regenerate different frames).
        """
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
    streams dealt round-robin to ``shards`` workers, each of which builds
    its own from the registry: this process only trains missions missing
    there (loading nothing on a hit) and sends each worker the config, the
    registry (a root the workers must be able to read, or the artifacts)
    and its slots' build arguments.  Construction returns before any
    model is loaded; the first request waits for the workers.
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
    config = pipeline.config.to_dict()
    root = registry.root and str(registry.root.resolve())
    boots = []
    for slots in (specs[shard::shards] for shard in range(shards)):
        keys = {registry.key(spec["mission"], fingerprint) for spec in slots}
        boots.append({"fleet": _empty_fleet_payload(max_batch_windows), "build": {
            "config": config, "slots": slots, "registry": root,
            "artifacts": {} if root else {k: registry._entries[k] for k in keys}}})
    fleet._start_workers(boots)
    return fleet
