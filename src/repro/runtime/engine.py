"""The serving engine over a fleet: one round loop for every serving layer.

Both serving layers — the :class:`~repro.serving.DeploymentFleet` and
the network :class:`~repro.gateway.GatewayServer` — share one round
shape: gather pending arrivals, pick this round's work, micro-batch
score it, dispatch the score slices into each deployment's monitor, and
report what happened.  :class:`ServingEngine` owns that loop once, over the fleet it
serves:

* **gather** — either pulled from the fleet's own streams (:meth:`step`)
  or pushed into bounded per-stream admission queues (:meth:`submit`);
* **schedule** — a round takes the front request of every non-empty
  per-stream queue, streams in first-arrival order (:meth:`run_round`);
* **serve** — every round, lock-step or queued, is one
  ``fleet.serve_round`` wave: the fleet scores it coalesced
  (micro-batching) and its deployments ingest their precomputed score
  slices, with per-entry isolation when a coalesced forward or one
  stream's ingest fails;
* **commit** — one commit routine (durability records, group-commit
  fsync) runs inline or on the committer thread;
* **emit** — :class:`FleetEvent`/:class:`RoundResult` objects for the
  caller, round/latency/queue/stage metrics into one shared
  :class:`repro.metrics.MetricsRegistry`, and — from the same stamps,
  only when a recorder is attached — the round's trace spans.

Scores are bit-identical however requests arrive: scoring is stateless
and batch-composition-independent (see :mod:`repro.serving.batcher`),
and the engine serves each stream's queue strictly FIFO, so every stream
sees the exact ingest sequence a plain ``DeploymentFleet.step()`` run
would produce.
"""

from __future__ import annotations

import resource
import time
from collections import deque
from dataclasses import dataclass
from threading import Condition, Lock, Thread
from typing import TYPE_CHECKING, Protocol

import numpy as np

from ..errors import AdmissionError, ConfigError
from ..metrics import MetricsRegistry
from .timeline import RoundTimeline, stage_timing

if TYPE_CHECKING:  # pragma: no cover — typing only
    from ..adaptation.controller import AdaptationStepLog

__all__ = ["FleetEvent", "EngineRequest", "RoundResult", "AdmissionError",
           "DurabilityHook", "ServingEngine"]


@dataclass
class FleetEvent:
    """One stream's result within a serving round."""

    stream: str
    mission: str | None
    step: int
    scores: np.ndarray
    log: "AdaptationStepLog | None" = None
    active_class: str | None = None
    is_post_shift: bool | None = None


@dataclass
class EngineRequest:
    """One queued ``ingest``/``scores`` request awaiting its round.

    ``tag`` is an opaque caller handle — the gateway stores its response
    future there — threaded through untouched.
    """

    op: str                        # "ingest" | "scores"
    stream: str
    windows: np.ndarray
    queued_at: float = 0.0
    tag: object = None
    wal_seq: int | None = None     # durability log seq (set at admission)
    # Optional repro.obs.TraceContext joining this request's trace to
    # the round that serves it.
    trace: object = None


@dataclass
class RoundResult:
    """What one :class:`EngineRequest` became after its round ran."""

    request: EngineRequest
    kind: str                      # "event" | "scores" | "error"
    event: FleetEvent | None = None
    scores: np.ndarray | None = None
    code: str | None = None        # typed error code for kind == "error"
    message: str | None = None


def _failed(request: EngineRequest, code: str, message: str) -> RoundResult:
    """The typed-error result for ``request``."""
    return RoundResult(request=request, kind="error", code=code,
                       message=message)


class DurabilityHook(Protocol):
    """What the engine calls to make queued serving durable
    (:class:`repro.wal.WalDurability` implements it; the runtime layer
    never imports that package).

    Accepted ingests are logged before they become schedulable
    (:meth:`record_submit`, under the admission lock), each round's
    applied/skipped outcomes are recorded and group-commit fsynced by
    :meth:`flush` before any result reaches a caller, and a snapshot the
    hook reports due is taken by the engine on the round thread.
    """

    def record_submit(self, request: EngineRequest) -> int | None:
        """Log one accepted ingest; returns its log seq."""

    def record_applied(self, stream: str, seq: int) -> None:
        """The ingest at ``seq`` was applied to ``stream``."""

    def record_skip(self, seq: int) -> None:
        """The ingest at ``seq`` was logged but never applied."""

    def flush(self, trace_parent=None) -> None:
        """Group-commit fsync of everything recorded so far; raises on
        failure.  Safe from the committer thread (touches only the log).
        ``trace_parent`` parents the fsync's span."""

    def snapshot_due(self, rounds: int) -> bool:
        """Whether a snapshot should follow round ``rounds``."""

    def snapshot(self, engine: "ServingEngine") -> object:
        """Snapshot-then-truncate; only ever called on the round thread
        with no commit in flight."""


@dataclass
class _CommitBatch:
    """One round's results and :class:`~repro.runtime.timeline.RoundTimeline`,
    handed *by value* from the round thread to whichever thread commits
    it — the round thread itself, or the committer in pipelined mode.
    Batches commit strictly FIFO, so the WAL sees watermark/skip records
    in round order either way.  ``wal_seqs`` are the durability-log seqs
    the batch still holds unfsynced (see :meth:`min_pending_wal_seq`)."""

    results: list[RoundResult]
    timeline: RoundTimeline
    wal_seqs: list[int]


class ServingEngine:
    """Drives rounds over a fleet (a :class:`~repro.serving.DeploymentFleet`),
    looking up at every call — so a method wrapped on the instance is
    honoured — its ``serve_round`` (every wave), ``score``/``ingest``
    (per-entry isolation), ``pull`` (:meth:`step`) and its
    ``batcher_stats`` (:meth:`stats`).

    Thread-safety: the admission queue (:meth:`submit` /
    :meth:`run_round` / :meth:`drop_pending`) is lock-protected, so an
    event loop may admit work while an executor thread runs the round —
    the gateway's arrangement.  The lock-step entry points (:meth:`step`,
    :meth:`ingest_round`, :meth:`score_only`) are single-caller, like the
    fleet methods they replaced.

    :meth:`run_round` has one exit: it builds the round's
    :class:`_CommitBatch` and either runs :meth:`_commit_batch` inline
    and returns the committed results, or — **pipelined mode**
    (``pipeline=True``) — hands the batch to a dedicated committer
    thread that runs the *same* :meth:`_commit_batch`, and returns ``[]``
    immediately so round N+1's scheduling/scoring overlaps round N's
    group-commit fsync.  The committer delivers each batch's results
    through the ``on_commit`` callback only after its fsync —
    ack-after-fsync is preserved, just off the critical path.  Batches
    commit strictly FIFO; a failed fsync latches the engine (the failing
    batch *and every batch behind it* deliver typed ``durability``
    errors, and :meth:`submit` refuses new ingests).
    :meth:`drain_commits` is the barrier callers (snapshots, shutdown)
    use; :meth:`stop_committer` drains and joins the thread.

    The lock discipline is machine-checked: attributes annotated
    ``# repro: guarded-by[_lock]`` (the queues, the durability latch,
    the committer's shared state) may only be touched inside
    ``with self._lock`` or in methods annotated ``# repro: lock-held`` —
    ``repro lint`` (the **lock-guard** rule) fails CI on any unguarded
    access.  Everything else the committing thread needs rides the
    :class:`_CommitBatch` by value.
    """

    def __init__(self, fleet, metrics: MetricsRegistry | None = None,
                 max_queue_depth: int | None = None,
                 durability: DurabilityHook | None = None, tracer=None,
                 slow_round_ms: float | None = None, on_slow_round=None,
                 pipeline: bool = False, on_commit=None):
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ConfigError("max_queue_depth must be >= 1")
        self.fleet = fleet
        self.metrics = metrics or MetricsRegistry()
        self.max_queue_depth = max_queue_depth
        self.rounds = 0
        self._queues: dict[str, deque[EngineRequest]] = {}  # repro: guarded-by[_lock]
        # len of all _queues, kept by submit / drop_pending / run_round
        self._queued = 0  # repro: guarded-by[_lock]
        self._lock = Lock()
        self.durability = durability
        self._durability_failed = False  # repro: guarded-by[_lock]
        # Uptime baseline for stats().
        self._started_monotonic = time.monotonic()
        # The attached repro.obs.TraceRecorder, or None.  It never
        # selects a code path: a recorder only adds the spans derived
        # from the stamps every round takes (see runtime.timeline).
        self.tracer = tracer
        self.slow_round_ms = slow_round_ms
        self.on_slow_round = on_slow_round  # callable(list[Span]) | None
        # Pipelined group commit: round N's fsync overlaps round N+1's
        # compute.  on_commit(results) is the completion sink (the
        # gateway resolves its response futures there); it runs on the
        # committer thread.
        self.pipeline = bool(pipeline)
        self.on_commit = on_commit
        self._commit_queue: deque[_CommitBatch] = deque()  # repro: guarded-by[_lock]
        self._commit_active: _CommitBatch | None = None  # repro: guarded-by[_lock]
        self._commit_stop = False  # repro: guarded-by[_lock]
        self._snapshot_due = False  # repro: guarded-by[_lock]
        self._committer: Thread | None = None  # repro: guarded-by[_lock]
        # Shares _lock so committer waits hold the same lock the
        # guarded state lives under.
        self._commit_cv = Condition(self._lock)

    # ------------------------------------------------------------------
    # Lock-step serving: rounds pulled from the fleet's streams
    # ------------------------------------------------------------------
    def step(self) -> list[FleetEvent]:
        """One serving round over every live fleet stream: pull each
        stream's next arrival batch and serve them as one wave, every
        stream ingested; events come in attach order and carry their
        batch's ``active_class``/``is_post_shift``.  With a tracer
        attached each non-empty pull becomes one ``engine.round`` span."""
        wall, start = time.time(), time.perf_counter()
        batches = self.fleet.pull()
        if not batches:
            return []
        served = self._lockstep_wave({name: getattr(batch, "windows", batch)
                                      for name, batch in batches.items()})
        events = [served[name] for name in batches]
        for event, batch in zip(events, batches.values()):
            event.active_class = getattr(batch, "active_class", None)
            event.is_post_shift = getattr(batch, "is_post_shift", None)
        elapsed = time.perf_counter() - start
        self._observe_round(elapsed, len(events),
                            sum(int(event.scores.size) for event in events))
        if self.tracer is not None:
            self.tracer.record_span(
                "engine.round", None, ts=wall, dur=elapsed,
                attrs={"round": self.rounds, "streams": len(events),
                       "pull": True})
        return events

    def serve(self, max_rounds: int | None = None):
        """Yield per-round event lists until every stream is exhausted
        (or ``max_rounds`` rounds have run)."""
        rounds = 0
        while max_rounds is None or rounds < max_rounds:
            events = self.step()
            if not events:
                return
            yield events
            rounds += 1

    def ingest_round(self, arrivals: dict) -> dict[str, FleetEvent]:
        """One serving round over externally supplied arrival windows
        (``{stream name: (B, T, frame_dim) windows}``): one wave, every
        stream ingested."""
        start = time.perf_counter()
        events = self._lockstep_wave(arrivals)
        if events:
            self._observe_round(
                time.perf_counter() - start, len(events),
                sum(int(event.scores.size) for event in events.values()))
        return events

    def score_only(self, arrivals: dict) -> dict[str, np.ndarray]:
        """Score externally supplied windows without feeding any
        deployment's monitor; stateless and safely retryable."""
        self.metrics.counter("engine.score_only").inc()
        return self.fleet.score(arrivals)

    def _lockstep_wave(self, arrivals: dict) -> dict[str, FleetEvent]:
        """Serve ``arrivals`` as one wave with every stream ingested, and
        raise what a stream's scoring or ingest raised once the wave is
        over (the other streams' ingests stand, as they would in a
        queued round)."""
        _, events, unscored, _ = self.fleet.serve_round(arrivals,
                                                        list(arrivals))
        if unscored:
            # A clean coalesced-score failure: scoring the same slice
            # again (stateless, deterministic) raises its error.
            retry = {name: arrivals[name] for name in unscored}
            events.update(self.fleet.ingest(retry, self.fleet.score(retry)))
        for outcome in events.values():
            if isinstance(outcome, Exception):
                raise outcome
        return events

    # ------------------------------------------------------------------
    # Queued serving: admission and rounds over the per-stream queues
    # ------------------------------------------------------------------
    def submit(self, request: EngineRequest) -> None:
        """Admit a request into its stream's queue; raises
        :class:`AdmissionError` (``backpressure``) past
        ``max_queue_depth`` queued requests for that stream.

        With a durability hook attached, an accepted ``ingest`` request
        is logged *here* — after admission control, before it joins the
        queue — so exactly the accepted requests hit the log
        (backpressure rejections never do) and, because the append runs
        under the admission lock, per-stream log order equals per-stream
        queue order.  A failed append propagates and the request is not
        queued: log-before-schedule, never schedule-then-hope.
        """
        with self._lock:
            queue = self._queues.setdefault(request.stream, deque())
            if (self.max_queue_depth is not None
                    and len(queue) >= self.max_queue_depth):
                raise AdmissionError(
                    "backpressure",
                    f"stream {request.stream!r} has {len(queue)} queued "
                    f"request(s) (limit {self.max_queue_depth}); retry "
                    "after backoff")
            if self.durability is not None and request.op == "ingest":
                if self._durability_failed:
                    raise AdmissionError(
                        "durability",
                        "the durability log failed a group commit; the "
                        "engine refuses new ingests until the WAL is "
                        "healthy (restart the service and run recovery)")
                request.wal_seq = self.durability.record_submit(request)
            request.queued_at = time.monotonic()
            queue.append(request)
            self._queued += 1
            self._update_queue_gauge()

    def queued_depths(self) -> dict[str, int]:
        """Per-stream queued-but-unserved request counts (non-empty
        queues only — the gateway's ``stats`` map)."""
        with self._lock:
            return {name: len(queue)
                    for name, queue in self._queues.items() if queue}

    def has_pending(self) -> bool:
        return self.pending_count() > 0

    def pending_count(self) -> int:
        """Total queued-but-unserved requests (the pipelined gateway's
        round-gather loop polls this between arrivals)."""
        with self._lock:
            return self._queued

    def drop_pending(self, predicate) -> list[EngineRequest]:
        """Remove every queued request matching ``predicate`` (e.g. all
        of a disconnected connection's work); returns the dropped
        requests so the caller can cancel their handles.

        Single-pass: ``predicate`` is evaluated exactly once per queued
        request — predicates may be stateful or expensive (the gateway's
        closes over a connection object), so they must not be re-run per
        partition side."""
        dropped: list[EngineRequest] = []
        with self._lock:
            for queue in self._queues.values():
                kept: list[EngineRequest] = []
                before = len(dropped)
                for request in queue:
                    (dropped if predicate(request) else kept).append(request)
                if len(dropped) != before:
                    queue.clear()
                    queue.extend(kept)
                    self._queued -= len(dropped) - before
                    self._update_queue_gauge()
        if self.durability is not None:
            try:
                for request in dropped:
                    if request.wal_seq is not None:
                        self.durability.record_skip(request.wal_seq)
            except Exception:  # noqa: BLE001 — dropped work was never
                # acked; a failed skip append only costs replay applying
                # it, which is harmless extra state, not lost state.
                self.metrics.counter("engine.durability_errors").inc()
        return dropped

    def run_round(self) -> list[RoundResult]:
        """One round over the queued requests: the front request of every
        non-empty per-stream queue, streams in first-arrival order, served
        as one :meth:`_execute_wave`.  Total: every dequeued request gets
        exactly one :class:`RoundResult`; this method never raises on bad
        client input or fleet failure.

        Every round stamps one :class:`~repro.runtime.timeline.RoundTimeline`
        from which the ``engine.stage.*`` histograms are observed, traced
        or not.  With a recorder attached the same stamps also become
        the round's own trace (``engine.round`` → ``engine.schedule`` /
        ``engine.score``/``engine.ingest`` / ``engine.durability``) and
        per-request ``queue.wait`` / ``stage.*`` spans parented under
        each traced request's context.  Empty rounds record nothing.

        In pipelined mode this returns ``[]`` and the results arrive via
        ``on_commit`` once their group commit fsyncs (see the class
        docstring); otherwise the same commit runs inline and the
        results are returned, post-commit.
        """
        self._maybe_snapshot()
        wall, started = time.time(), time.perf_counter()
        with self._lock:
            if not self._queued:
                return []
            wave = [queue.popleft() for queue in self._queues.values()
                    if queue]
            self._queued -= len(wave)
            self._update_queue_gauge()
        scheduled = time.perf_counter()

        # Queue wait is only knowable at dequeue time (its span is
        # backdated on the wall clock).
        dequeued_at = time.monotonic()
        waits = [(request, max(0.0, dequeued_at - request.queued_at))
                 for request in wave]
        results, timings = self._execute_wave(wave)
        try:
            # Count served work from the outcomes (one score per window),
            # not from the raw request payloads — a request whose windows
            # never scored (bad shape, ragged list) already carries a
            # typed error result.
            windows = sum(
                int(np.asarray(out.event.scores if out.kind == "event"
                               else out.scores).shape[0])
                for out in results if out.kind != "error")
        except Exception:  # noqa: BLE001 — telemetry only: an odd
            windows = 0    # custom-fleet score shape must not lose
                           # the already-computed round results.
        try:
            self.metrics.counter("engine.requests").inc(len(wave))
            self._observe_round(time.perf_counter() - scheduled,
                                len(wave), windows)
        except Exception:  # noqa: BLE001 — a metric name/kind
            pass           # collision on a shared registry is not
                           # worth hanging the callers awaiting
                           # these results.
        batch = _CommitBatch(
            results=results,
            timeline=RoundTimeline(
                round_index=self.rounds, wall=wall, started=started,
                scheduled=scheduled, handed_off=time.perf_counter(),
                waits=waits, timings=timings, windows=windows,
                tracer=self.tracer),
            wal_seqs=[request.wal_seq for request in wave
                      if request.wal_seq is not None])
        if self.pipeline:
            # The caller's next run_round() overlaps this batch's fsync.
            self._enqueue_commit(batch)
            return []
        self._commit_batch(batch)
        self._maybe_snapshot()
        return batch.results

    def _commit_batch(self, batch: _CommitBatch) -> None:
        """Commit one round — the only commit routine, run inline on the
        round thread or, in pipelined mode, on the committer thread.

        With a durability hook: advance each applied ingest's stream
        watermark, append skip records for requests that errored
        (logged but never applied, so replay must not apply them
        either), then group-commit fsync — all *before* the results
        reach any caller, which is what makes the gateway's acks
        ack-after-append.  A due snapshot is only *flagged* here: taking
        it walks live fleet state, which only the round thread may do
        (:meth:`_maybe_snapshot`).

        A failed commit (ENOSPC, I/O error) must not turn into acks for
        requests that are not on disk: every would-be-acked ingest result
        in the batch is converted to a typed ``durability`` error in
        place, and the engine latches — :meth:`submit` refuses further
        ingests, and later batches fail the same way without touching
        the WAL — because retrying fsync on a file descriptor that
        already failed one is not reliable; the operator restarts and
        recovers from the durable prefix.  ``scores`` results still
        return normally: scoring is stateless and promises nothing about
        the log.

        Then the round's timeline closes: every ``engine.stage.*``
        histogram is observed, a traced round's spans are emitted, and
        the slow-round check runs.
        """
        timeline = batch.timeline
        tracer = timeline.tracer
        mark = tracer.mark() if tracer is not None else 0
        timeline.commit_started = time.perf_counter()
        self.metrics.counter("engine.commit_batches").inc()
        durability = self.durability
        results = batch.results
        if durability is not None:
            with self._lock:
                failed = self._durability_failed
            if not failed:
                try:
                    for result in results:
                        request = result.request
                        if request.op != "ingest" or request.wal_seq is None:
                            continue
                        if result.kind == "event":
                            durability.record_applied(request.stream,
                                                      request.wal_seq)
                        else:
                            durability.record_skip(request.wal_seq)
                    durability.flush(trace_parent=timeline.dur_ctx)
                    if durability.snapshot_due(timeline.round_index):
                        with self._lock:
                            self._snapshot_due = True
                except Exception:  # noqa: BLE001 — fail the acks, keep going
                    self.metrics.counter("engine.durability_errors").inc()
                    with self._lock:
                        self._durability_failed = failed = True
            if failed:
                for index, result in enumerate(results):
                    if result.request.op == "ingest" \
                            and result.kind != "error":
                        results[index] = _failed(
                            result.request, "durability",
                            f"the request for stream "
                            f"{result.request.stream!r} was served but its "
                            f"durability commit failed; it is NOT on disk "
                            f"and will not survive recovery — treat it as "
                            f"unacknowledged")
        timeline.fsync_ended = time.perf_counter()
        try:
            timeline.close(self.metrics, results,
                           durable=durability is not None)
            if (self.slow_round_ms is not None
                    and timeline.compute_seconds * 1e3 >= self.slow_round_ms):
                self.metrics.counter("engine.slow_rounds").inc()
                hook = self.on_slow_round
                if tracer is not None and hook is not None:
                    # The round's spans plus this commit's wal.fsync.
                    hook(tracer.since(mark))
        except Exception:  # noqa: BLE001 — telemetry only: a metric
            # collision, a recorder fault or a broken dump hook must not
            # lose the round's committed results (or kill the committer).
            self.metrics.counter("engine.trace_errors").inc()

    # ------------------------------------------------------------------
    # Pipelined group commit: the committer thread
    # ------------------------------------------------------------------
    def _enqueue_commit(self, batch: _CommitBatch) -> None:
        """Hand one round's batch to the committer (FIFO).  Called on
        the round thread; starts the committer lazily on first use."""
        with self._lock:
            if self._committer is None:
                self._commit_stop = False
                self._committer = Thread(target=self._committer_main,
                                         name="engine-committer",
                                         daemon=True)
                self._committer.start()
            self._commit_queue.append(batch)
            self.metrics.gauge("engine.commit_backlog") \
                .set(self._commit_backlog_locked())
            self._commit_cv.notify_all()

    def _commit_backlog_locked(self) -> int:  # repro: lock-held
        """Batches handed off but not yet committed (queued + active)."""
        return (len(self._commit_queue)
                + (1 if self._commit_active is not None else 0))

    def _committer_main(self) -> None:
        """Committer thread: pop batches FIFO, commit each outside the
        lock (the fsync must never block admission or scheduling), then
        deliver its results through ``on_commit``."""
        while True:
            with self._lock:
                while not self._commit_queue and not self._commit_stop:
                    self._commit_cv.wait()
                if not self._commit_queue:
                    return
                batch = self._commit_queue.popleft()
                self._commit_active = batch
                self.metrics.gauge("engine.commit_backlog") \
                    .set(self._commit_backlog_locked())
            try:
                self._commit_batch(batch)
                callback = self.on_commit
                if callback is not None:
                    try:
                        callback(batch.results)
                    except Exception:  # noqa: BLE001 — a broken
                        # completion sink must not wedge the committer;
                        # later batches still commit and deliver.
                        self.metrics.counter("engine.commit_errors").inc()
            finally:
                with self._lock:
                    self._commit_active = None
                    self.metrics.gauge("engine.commit_backlog") \
                        .set(self._commit_backlog_locked())
                    self._commit_cv.notify_all()

    def drain_commits(self, timeout: float | None = 60.0) -> bool:
        """Barrier: block until every handed-off batch has committed and
        delivered (a no-op when nothing is in flight).  Returns ``False``
        on timeout instead of raising — callers decide how hard to
        fail."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while self._commit_queue or self._commit_active is not None:
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._commit_cv.wait(timeout=remaining)
        return True

    def stop_committer(self, timeout: float | None = 60.0) -> None:
        """Drain, then stop and join the committer thread (idempotent;
        the engine may start a fresh committer on later handoffs)."""
        self.drain_commits(timeout=timeout)
        with self._lock:
            self._commit_stop = True
            self._commit_cv.notify_all()
            committer = self._committer
            self._committer = None
        if committer is not None:
            committer.join(timeout=10.0)
        with self._lock:
            self._commit_stop = False

    def _maybe_snapshot(self) -> None:
        """Take a flagged snapshot, on the round thread.

        :meth:`_commit_batch` only *flags* a due snapshot; taking it
        requires walking live fleet state, which is only safe here —
        between rounds, after a full commit drain, with the fleet
        quiescent.  Called right after an inline commit, and at the top
        of every round for flags the committer thread raised.
        """
        with self._lock:
            due = self._snapshot_due
        if not due or self.durability is None:
            return
        start = time.perf_counter()  # the whole round-thread stall
        self.drain_commits()
        with self._lock:
            self._snapshot_due = False
            if self._durability_failed:
                return
        try:
            self.durability.snapshot(self)
        except Exception:  # noqa: BLE001 — same contract as a failed
            # commit: latch rather than keep acking against a log whose
            # truncation bookkeeping just failed.
            self.metrics.counter("engine.durability_errors").inc()
            with self._lock:
                self._durability_failed = True
        self.metrics.histogram("engine.snapshot_stall").observe(
            time.perf_counter() - start)

    def min_pending_wal_seq(self) -> int | None:
        """Lowest durability-log seq still queued *or riding an
        unfsynced commit batch* (``None`` when neither holds one) — the
        snapshot truncation bound: segments holding a logged-but-not-yet-
        durable request must survive."""
        with self._lock:
            seqs = [request.wal_seq
                    for queue in self._queues.values()
                    for request in queue if request.wal_seq is not None]
            batches = list(self._commit_queue)
            if self._commit_active is not None:
                batches.append(self._commit_active)
            for batch in batches:
                seqs.extend(batch.wal_seqs)
        return min(seqs) if seqs else None

    def _execute_wave(self, wave: list[EngineRequest]) \
            -> tuple[list[RoundResult], list[dict]]:
        """Serve one round's wave (≤1 request per stream, so keying by
        stream name is unambiguous) through the fleet's ``serve_round``;
        returns the wave's results and its stage timings.

        Failure contract: a *clean* coalesced-score failure — e.g. one
        request's windows have a frame_dim the models can't score, which
        shape checks at admission cannot know — comes back as
        ``unscored`` streams with nothing ingested, and each is re-scored
        alone so only the offending request errors while the rest
        proceed through ``fleet.ingest`` with their precomputed
        (bit-identical — batch composition never changes scores) slices.
        Retrying is safe precisely because scoring is stateless.  One
        stream's failed ingest is that request's alone: a
        :class:`~repro.errors.ConfigError` (raised before any state
        changes, e.g. NaN windows) is its ``bad_request``, anything else
        its ``internal``, and the streams that did ingest keep their
        events.  A *raised* ``serve_round`` is indeterminate for ingest
        — some streams may have applied their slice before it raised —
        so ingest requests get a typed ``internal`` error, while
        stateless ``scores`` requests are retried solo.
        """
        by_stream = {request.stream: request for request in wave}
        arrivals = {name: request.windows
                    for name, request in by_stream.items()}
        ingest_names = [name for name, request in by_stream.items()
                        if request.op == "ingest"]
        outcomes: dict[str, RoundResult] = {}

        def internal(names, exc) -> None:
            self.metrics.counter("engine.errors").inc()
            for name in names:
                outcomes[name] = _failed(
                    by_stream[name], "internal",
                    f"serving round failed: {type(exc).__name__}: {exc}")

        try:
            scored, events, unscored, timings = \
                self.fleet.serve_round(arrivals, ingest_names)
        except Exception as exc:  # noqa: BLE001 — typed to caller
            internal(ingest_names, exc)
            scored, events, timings = {}, {}, []
            unscored = [name for name in by_stream if name not in outcomes]
        for name in unscored:
            try:
                with stage_timing(timings, "score", [name]):
                    scored[name] = self.fleet.score(
                        {name: arrivals[name]})[name]
            except Exception as exc:  # noqa: BLE001 — typed to caller
                outcomes[name] = _failed(
                    by_stream[name], "bad_request",
                    f"windows for stream {name!r} failed to score: "
                    f"{type(exc).__name__}: {exc}")
        retry = {name: arrivals[name] for name in unscored
                 if name in scored and by_stream[name].op == "ingest"}
        if retry:
            try:
                with stage_timing(timings, "ingest", list(retry)):
                    events.update(self.fleet.ingest(
                        retry, {name: scored[name] for name in retry}))
            except Exception as exc:  # noqa: BLE001 — typed to caller
                internal(retry, exc)
        for name, event in events.items():
            if isinstance(event, ConfigError):
                outcomes[name] = _failed(
                    by_stream[name], "bad_request",
                    f"windows for stream {name!r} were refused: "
                    f"{type(event).__name__}: {event}")
            elif isinstance(event, Exception):
                internal([name], event)
            else:
                outcomes[name] = RoundResult(
                    request=by_stream[name], kind="event", event=event)
        for name, request in by_stream.items():
            if request.op == "scores" and name in scored:
                outcomes[name] = RoundResult(
                    request=request, kind="scores", scores=scored[name])
        return [outcomes.get(request.stream) or _failed(
                    request, "internal",
                    f"round produced no result for stream "
                    f"{request.stream!r}")
                for request in wave], timings

    # ------------------------------------------------------------------
    # Metrics / introspection
    # ------------------------------------------------------------------
    def _observe_round(self, elapsed: float, streams: int,
                       windows: int) -> None:
        self.rounds += 1
        self.metrics.counter("engine.rounds").inc()
        self.metrics.counter("engine.windows").inc(windows)
        self.metrics.histogram("engine.round_latency").observe(elapsed)
        self.metrics.gauge("engine.last_round_streams").set(streams)
        self.metrics.gauge("engine.last_round_windows").set(windows)

    def _update_queue_gauge(self) -> None:  # repro: lock-held
        self.metrics.gauge("engine.queue_depth").set(self._queued)

    def stats(self) -> dict:
        """Engine-level summary for the ``stats`` op and the benchmark
        payloads: rounds, queue depths, the process's peak resident set
        (``rss_peak_mb``, its ``VmHWM``), and the fleet's coalescing
        counters (windows per forward).  Safe from a thread other than
        the round runner's (the gateway's ``stats`` op): the fleet's
        counters are plain attribute reads."""
        # The root package only defines metadata (no subpackage imports),
        # so this upward import cannot cycle; deferred anyway so the
        # engine module stays importable mid-bootstrap.
        from .. import __version__
        out = {
            "rounds": self.rounds,
            "queued": self.queued_depths(),
            "version": __version__,
            "started_at": self._started_monotonic,
            "uptime_seconds": time.monotonic() - self._started_monotonic,
            "rss_peak_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if self.pipeline:
            with self._lock:
                backlog = self._commit_backlog_locked()
                queued_batches = len(self._commit_queue)
            out["pipeline"] = {
                "enabled": True,
                "commit_backlog": backlog,
                "committer_queue_depth": queued_batches,
                "commit_batches": int(
                    self.metrics.counter("engine.commit_batches").value),
            }
        batch = self.fleet.batcher_stats()
        forwards = batch["batches_run"]
        out["coalesce"] = {
            **batch,
            "windows_per_forward": batch["windows_scored"] / forwards
            if forwards else 0.0,
        }
        return out
