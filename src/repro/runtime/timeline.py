"""The round timeline: the serving engine's one timing spine.

Every queued round stamps one :class:`RoundTimeline` —
``perf_counter`` instants for schedule, handoff, commit start and fsync
end, plus the stage intervals each fleet stamps inside ``serve_round``
(:func:`stage_timing`) — and both outputs derive from it: the
``engine.stage.*`` histograms on every round and, only when a recorder
is attached, the round's spans.  A recorder never selects a code path.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..metrics import MetricsRegistry
from ..obs.trace import TraceContext

__all__ = ["RoundTimeline", "stage_timing", "stage_envelopes"]


@contextmanager
def stage_timing(timings: list[dict], stage: str, streams: list[str]):
    """Stamp one ``score``/``ingest`` interval into ``timings`` — wall
    ``ts`` (comparable across processes) plus ``perf_counter`` ``dur`` —
    whether or not the body raises."""
    ts, origin = time.time(), time.perf_counter()
    try:
        yield
    finally:
        timings.append({"stage": stage, "ts": ts,
                        "dur": time.perf_counter() - origin,
                        "streams": streams})


def stage_envelopes(timings: list[dict]) -> dict[str, tuple]:
    """``{stage: (ts, dur, entries)}`` — each stage's wall envelope over
    a wave's timing entries (the wave's own, plus any isolation
    retries)."""
    by_stage: dict[str, list[dict]] = {}
    for entry in timings:
        by_stage.setdefault(entry["stage"], []).append(entry)
    envelopes = {}
    for stage, entries in by_stage.items():
        ts = min(entry["ts"] for entry in entries)
        end = max(entry["ts"] + entry["dur"] for entry in entries)
        envelopes[stage] = (ts, end - ts, entries)
    return envelopes


@dataclass
class RoundTimeline:
    """One round's stamps.  Built on the round thread at handoff and
    owned from then on by the thread that commits the round (which
    stamps ``commit_started``/``fsync_ended``): it rides the engine's
    commit batch by value, so no field is shared between threads.

    ``wall`` is the ``time.time()`` anchor taken with ``started``; it
    places the ``perf_counter`` stamps on the cross-process wall clock.
    With a ``tracer`` (the recorder captured at round start),
    ``round_ctx``/``dur_ctx`` pre-mint the ``engine.round`` /
    ``engine.durability`` span identities so the commit's ``wal.fsync``
    can parent under a durability span whose interval is still open.
    """

    round_index: int
    wall: float
    started: float
    scheduled: float
    handed_off: float
    waits: list[tuple]      # (EngineRequest, seconds queued), as served
    timings: list[dict]     # the round's stage_timing entries
    windows: int
    tracer: object = None   # repro.obs.TraceRecorder | None
    commit_started: float = 0.0
    fsync_ended: float = 0.0
    round_ctx: TraceContext | None = field(init=False, default=None)
    dur_ctx: TraceContext | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.tracer is not None:
            self.round_ctx = TraceContext.root()
            self.dur_ctx = self.round_ctx.child()

    @property
    def compute_seconds(self) -> float:
        """Round start → handoff: scheduling plus the wave."""
        return self.handed_off - self.started

    def close(self, metrics: MetricsRegistry, results: list,
              durable: bool) -> None:
        """Observe every stage histogram — per-request ``queue_wait``,
        the round's ``schedule``, its ``score``/``ingest``,
        ``commit_wait`` (handoff → commit start), ``durability``
        (handoff → fsync end) — then emit a traced round's spans.
        Called once, after the commit, on the committing thread."""
        queue_wait = metrics.histogram("engine.stage.queue_wait")
        for _, wait in self.waits:
            queue_wait.observe(wait)
        metrics.histogram("engine.stage.schedule") \
            .observe(self.scheduled - self.started)
        envelopes = stage_envelopes(self.timings)
        for stage, (_, dur, _) in envelopes.items():
            metrics.histogram(f"engine.stage.{stage}").observe(dur)
        metrics.histogram("engine.stage.commit_wait") \
            .observe(self.commit_started - self.handed_off)
        metrics.histogram("engine.stage.durability") \
            .observe(self.fsync_ended - self.handed_off)
        if self.tracer is not None:
            self._emit_spans(results, durable, envelopes)

    def _emit_spans(self, results: list, durable: bool,
                    envelopes: dict[str, tuple]) -> None:
        """The one place engine spans come from.  Each stage's envelope
        becomes ``engine.score``/``engine.ingest``; each traced request gets a ``stage.*`` echo of the entry that
        produced *its* result, under its own context — including a
        ``stage.durability`` echo even without a WAL (~0 duration), so
        every request's stage chain is complete for the trace checker."""
        ctx, index = self.round_ctx, self.round_index

        def span(name, parent, ts, dur, context=None, **attrs):
            return self.tracer.record_span(name, parent, ts=ts, dur=dur,
                                           attrs=attrs, context=context)

        span("engine.round", None, self.wall, self.compute_seconds,
             context=ctx, round=index, streams=len(self.waits),
             windows=self.windows)
        span("engine.schedule", ctx, self.wall,
             self.scheduled - self.started, selected=len(self.waits))
        dequeued = self.wall + (self.scheduled - self.started)
        traced = {}
        for request, wait in self.waits:
            if request.trace is not None:
                traced[request.stream] = request.trace
                span("queue.wait", request.trace, dequeued - wait, wait,
                     stream=request.stream, round=index)
        for stage, (ts, dur, entries) in envelopes.items():
            span(f"engine.{stage}", ctx, ts, dur,
                 streams=len({name for entry in entries
                              for name in entry["streams"]}))
            echoes = {name: entry for entry in entries
                      for name in entry["streams"] if name in traced}
            for name, entry in echoes.items():
                span(f"stage.{stage}", traced[name], entry["ts"],
                     entry["dur"], stream=name)
        handed_off = self.wall + self.compute_seconds
        committed = self.fsync_ended - self.handed_off
        span("engine.durability", ctx, handed_off, committed,
             context=self.dur_ctx, durable=durable)
        for result in results:
            request = result.request
            if request.op == "ingest" and request.trace is not None:
                span("stage.durability", request.trace, handed_off,
                     committed, stream=request.stream, durable=durable,
                     outcome=result.kind)
