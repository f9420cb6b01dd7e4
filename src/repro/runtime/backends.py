"""Execution backends: where a serving round's compute actually runs.

The :class:`~repro.runtime.ServingEngine` round loop is backend-agnostic;
an :class:`ExecutionBackend` supplies what it composes — ``serve_round``
(the one wave primitive: coalesced scoring, then the named subset's
deployments ingest their score slices, with stage timings riding the
reply), ``pull_round`` (gather from backend-owned streams and run one
lock-step round), and the split ``score`` / ``ingest`` pair, which
survives as the engine's per-entry isolation fallback and the
``score_only``/``ingest_round`` facade.  Two backends ship:

:class:`InlineBackend`
    Single-process execution over a :class:`~repro.serving.DeploymentFleet`'s
    slots and :class:`~repro.serving.MicroBatcher` — the engine's round
    runs on the caller's thread, windows of streams sharing a scoring
    model coalescing into one forward.
:class:`ShardedBackend`
    Multi-process execution over a :class:`~repro.serving.ShardedFleet`'s
    worker pool — arrivals scatter to the owning shards (each shard
    micro-batches its slice concurrently), per-shard results merge back
    in stable stream order.  Inside each worker the shard's own
    ``DeploymentFleet`` answers through the very same
    :class:`InlineBackend`, so sharding only scatters and merges the
    canonical wave rather than duplicating it.

Both backends produce bit-identical scores for identical per-stream
window sequences (shards own disjoint streams and models, and per-shard
coalescing keeps the row-stable GEMM guarantees) — the engine's parity
matrix locks this down for every backend × policy combination.
"""

from __future__ import annotations

import abc

import numpy as np

from .engine import FleetEvent, make_fleet_event
from ..errors import WindowShapeError
from .timeline import stage_timing

__all__ = ["ExecutionBackend", "InlineBackend", "ShardedBackend"]


class ExecutionBackend(abc.ABC):
    """The engine's view of a serving substrate."""

    #: Short name surfaced in ``stats`` payloads and benchmark artifacts.
    name: str = "backend"

    #: Whether :meth:`batch_stats` may be called from a thread other
    #: than the round runner's (plain attribute reads: yes; anything
    #: that talks to worker processes over their pipes: no).
    concurrent_safe_stats: bool = False

    @abc.abstractmethod
    def pull_round(self, batched: bool) -> list[FleetEvent]:
        """Gather every owned stream's next arrival batch and run one
        lock-step round over it (score then ingest); ``[]`` once all
        streams are exhausted."""

    @abc.abstractmethod
    def serve_round(self, arrivals: dict, ingest_names: list[str]) \
            -> tuple[dict, dict, list[str], list[dict]]:
        """One wave: score every arrival coalesced, then ingest the
        ``ingest_names`` subset with its precomputed slices.  Returns
        ``(scored, events, unscored, timings)``: per-stream score arrays;
        per-stream :class:`FleetEvent` results for the ingested subset;
        the streams whose coalesced score failed *cleanly* (nothing of
        theirs was ingested, so the caller may retry them one by one
        through :meth:`score` + :meth:`ingest`); and the stage intervals
        stamped on the way (:func:`~repro.runtime.timeline.stage_timing`
        entries, plus ``"shard"``/``"pid"`` when stamped in a worker).

        Raising means the outcome is indeterminate for the ingest subset
        (a worker died mid-wave); the caller must not blindly re-send."""

    @abc.abstractmethod
    def score(self, arrivals: dict) -> dict[str, np.ndarray]:
        """Stateless coalesced scoring of externally supplied windows;
        no deployment monitor is touched, so a failed or repeated call
        is safe."""

    @abc.abstractmethod
    def ingest(self, arrivals: dict, scores: dict | None = None,
               batched: bool = True) -> dict[str, FleetEvent]:
        """Dispatch one round of externally supplied windows into the
        owning deployments.  ``scores`` carries precomputed slices; with
        ``scores=None`` the backend scores internally — coalesced when
        ``batched``, else one per-deployment forward each."""

    def batch_stats(self) -> dict | None:
        """Coalescing counters (``batches_run``/``windows_scored``) and
        distinct ``weight_sets``/``token_states`` (scoring models) held,
        when the backend can report them cheaply; ``None`` otherwise."""
        return None

    def transport_stats(self) -> dict | None:
        """Cross-process transport counters (shared-memory ring traffic,
        pipe fallbacks) when the backend has a transport; ``None``
        otherwise.  Must be cheap and thread-safe — plain attribute
        reads, no worker round-trips — because ``engine.stats()``
        surfaces it on concurrent snapshots too."""
        return None

    def close(self) -> None:
        """Release backend resources (worker processes, sockets)."""


class InlineBackend(ExecutionBackend):
    """Execute rounds in-process over a ``DeploymentFleet``'s slots."""

    name = "inline"
    concurrent_safe_stats = True

    def __init__(self, fleet):
        self._fleet = fleet

    # -- internals -----------------------------------------------------
    def _slots(self):
        return self._fleet._slots

    def _gather(self, arrivals: dict):
        """Validate externally supplied arrivals and order them by slot
        attach order (the order rounds score in)."""
        slots_by_name = self._slots()
        unknown = sorted(set(arrivals) - set(slots_by_name))
        if unknown:
            raise KeyError(f"no stream named {unknown[0]!r} attached")
        slots = [slot for name, slot in slots_by_name.items()
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

    def _coalesced(self, slots, windows) -> list[np.ndarray]:
        # Imported here, not at module level: repro.serving's modules
        # import repro.runtime, so the runtime package must not import
        # repro.serving back at import time.
        # repro: allow[layer-dag] the one engine->batcher lazy back-edge
        from ..serving.batcher import ScoreRequest
        return self._fleet.batcher.score(
            [ScoreRequest(slot.deployment.model, batch)
             for slot, batch in zip(slots, windows)])

    # -- ExecutionBackend ----------------------------------------------
    def pull_round(self, batched: bool) -> list[FleetEvent]:
        pulls = []
        for slot in self._slots().values():
            batch = slot.next_batch()
            if batch is not None:
                pulls.append((slot, batch))
        if not pulls:
            return []
        if batched:
            all_scores = self._coalesced(
                [slot for slot, _ in pulls],
                [getattr(batch, "windows", batch) for _, batch in pulls])
        else:
            all_scores = [None] * len(pulls)
        events = []
        for (slot, batch), scores in zip(pulls, all_scores):
            windows = getattr(batch, "windows", batch)
            log = slot.deployment.ingest(windows, scores=scores)
            events.append(make_fleet_event(slot, log, batch))
        return events

    def serve_round(self, arrivals: dict, ingest_names: list[str]) \
            -> tuple[dict, dict, list[str], list[dict]]:
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
                events = self.ingest(todo, scores=scored)
        return scored, events, [], timings

    def score(self, arrivals: dict) -> dict[str, np.ndarray]:
        slots, windows = self._gather(arrivals)
        if not slots:
            return {}
        all_scores = self._coalesced(slots, windows)
        return {slot.name: scores
                for slot, scores in zip(slots, all_scores)}

    def ingest(self, arrivals: dict, scores: dict | None = None,
               batched: bool = True) -> dict[str, FleetEvent]:
        slots, windows = self._gather(arrivals)
        if not slots:
            return {}
        if scores is not None:
            missing = [slot.name for slot in slots if slot.name not in scores]
            if missing:
                raise KeyError(f"no precomputed scores for stream "
                               f"{missing[0]!r}")
            all_scores = [np.asarray(scores[slot.name], dtype=np.float64)
                          for slot in slots]
        elif batched:
            all_scores = self._coalesced(slots, windows)
        else:
            all_scores = [None] * len(slots)
        events = {}
        for slot, batch, batch_scores in zip(slots, windows, all_scores):
            log = slot.deployment.ingest(batch, scores=batch_scores)
            events[slot.name] = make_fleet_event(slot, log)
        return events

    def batch_stats(self) -> dict:
        batcher = self._fleet.batcher
        models = [slot.deployment.model for slot in list(self._slots().values())]
        return {"batches_run": batcher.batches_run,
                "windows_scored": batcher.windows_scored,
                "weight_sets": len({id(getattr(model, "weight_set", model))
                                    for model in models}),
                "token_states": len({id(model) for model in models})}


class ShardedBackend(ExecutionBackend):
    """Execute rounds across a ``ShardedFleet``'s worker processes."""

    name = "sharded"

    def __init__(self, fleet):
        self._fleet = fleet

    def pull_round(self, batched: bool) -> list[FleetEvent]:
        # Every shard steps concurrently (each worker's fleet runs the
        # same engine loop over its own slots); events merge back in
        # stable (attach-order) stream order, matching the inline
        # backend's event order exactly.
        per_shard = self._fleet._broadcast(("step", batched))
        by_stream = {event.stream: event
                     for events in per_shard for event in events}
        return [by_stream[name] for name in self._fleet._order
                if name in by_stream]

    def serve_round(self, arrivals: dict, ingest_names: list[str]) \
            -> tuple[dict, dict, list[str], list[dict]]:
        # One ring round-trip per involved shard; looked up on the fleet
        # at call time so an instrumented fleet method is honoured.
        return self._fleet.serve_round(arrivals, ingest_names)

    def score(self, arrivals: dict) -> dict[str, np.ndarray]:
        return self._fleet._scatter("score_only", arrivals)

    def ingest(self, arrivals: dict, scores: dict | None = None,
               batched: bool = True) -> dict[str, FleetEvent]:
        return self._fleet._scatter("ingest_round", arrivals,
                                    extra=(batched, scores))

    def batch_stats(self) -> dict | None:
        if self._fleet._closed:
            return None
        return self._fleet.batcher_stats()

    def transport_stats(self) -> dict | None:
        # Parent-side counters only — no worker round-trip, so this is
        # safe on concurrent stats snapshots (unlike batch_stats).
        if self._fleet._closed:
            return None
        return self._fleet.transport_stats()

    def close(self) -> None:
        self._fleet.close()
