"""Trace contexts, spans, and the bounded in-process recorder.

A *trace* is the story of one request (or one engine round) as it moves
client → gateway → engine → shard worker → WAL.  Each stage contributes
a :class:`Span` — a named interval with a wall-clock start and a
monotonic-measured duration — linked to its parent by ``parent_id``.

Design constraints, in order:

1. **Absent tracing must be free.**  Every call site in the serving
   stack guards on ``tracer is not None``; nothing in this module runs
   on the hot path when tracing is off, and enabling it must not change
   any scored value (ids come from :func:`new_span_id`, never from the
   data path).
2. **Cross-process comparability.**  Span start timestamps are
   ``time.time()`` epoch seconds so spans recorded in shard worker
   processes line up with parent-process spans on one timeline.
   Durations are measured with ``time.perf_counter()`` deltas, which do
   not drift with wall-clock adjustments.
3. **Bounded memory.**  :class:`TraceRecorder` holds at most
   ``capacity`` spans; past that it drops *new* spans (keeping the
   oldest, complete traces rather than a rolling window of fragments)
   and counts the drops.
"""

from __future__ import annotations

import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

__all__ = [
    "TraceContext",
    "Span",
    "ActiveSpan",
    "TraceRecorder",
    "new_trace_id",
    "new_span_id",
]


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id (random, never data-dependent)."""
    return uuid.uuid4().hex[:16]


def new_span_id() -> str:
    """A fresh 8-hex-digit span id."""
    return uuid.uuid4().hex[:8]


@dataclass(frozen=True)
class TraceContext:
    """Identity of one span within one trace.

    ``trace_id`` names the end-to-end request story; ``span_id`` names
    this hop; ``parent_id`` is the span that caused it (``None`` at the
    root).  Contexts are immutable — derive children with :meth:`child`.
    """

    trace_id: str
    span_id: str
    parent_id: str | None = None

    @classmethod
    def root(cls) -> "TraceContext":
        return cls(trace_id=new_trace_id(), span_id=new_span_id())

    def child(self) -> "TraceContext":
        """A new context one level below this span, same trace."""
        return TraceContext(trace_id=self.trace_id, span_id=new_span_id(),
                            parent_id=self.span_id)

    def to_wire(self) -> dict[str, str]:
        """The ``trace`` field stamped on request frames.

        Only identity crosses the wire — the receiver mints its own span
        under ``span_id``, so ``parent_id`` never needs to travel.
        """
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @staticmethod
    def from_wire(payload: object) -> "TraceContext | None":
        """Parse a ``trace`` field from a peer; ``None`` if absent/bad.

        Peers that predate tracing send no field at all; hostile or
        buggy peers may send anything.  Neither should error a request,
        so malformed payloads degrade to untraced rather than raising.
        """
        if not isinstance(payload, Mapping):
            return None
        trace_id = payload.get("trace_id")
        span_id = payload.get("span_id")
        if not (isinstance(trace_id, str) and trace_id
                and isinstance(span_id, str) and span_id):
            return None
        return TraceContext(trace_id=trace_id, span_id=span_id)


@dataclass
class Span:
    """One finished interval: ``ts`` epoch-seconds start, ``dur`` seconds."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    ts: float
    dur: float
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "trace_id": self.trace_id,
                "span_id": self.span_id, "parent_id": self.parent_id,
                "ts": self.ts, "dur": self.dur, "attrs": dict(self.attrs)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Span":
        name = payload.get("name")
        trace_id = payload.get("trace_id")
        span_id = payload.get("span_id")
        if not (isinstance(name, str) and isinstance(trace_id, str)
                and isinstance(span_id, str)):
            raise ValueError(f"span record missing name/trace_id/span_id: "
                             f"{payload!r}")
        parent_id = payload.get("parent_id")
        attrs = payload.get("attrs") or {}
        if not isinstance(attrs, Mapping):
            raise ValueError(f"span attrs must be a mapping: {attrs!r}")
        return cls(name=name, trace_id=trace_id, span_id=span_id,
                   parent_id=parent_id if isinstance(parent_id, str) else None,
                   ts=float(payload.get("ts", 0.0)),
                   dur=float(payload.get("dur", 0.0)),
                   attrs=dict(attrs))

    @property
    def context(self) -> TraceContext:
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id,
                            parent_id=self.parent_id)


class ActiveSpan:
    """A span that has started but not yet finished.

    Holds both clocks: the epoch start for the record and the
    ``perf_counter`` origin for the duration.  Unfinished active spans
    are never recorded — abandoning one (e.g. an engine round that turns
    out to be empty) leaves no trace debris.
    """

    __slots__ = ("_recorder", "name", "context", "attrs", "_ts", "_t0",
                 "_done")

    def __init__(self, recorder: "TraceRecorder", name: str,
                 context: TraceContext,
                 attrs: Mapping[str, Any] | None = None):
        self._recorder = recorder
        self.name = name
        self.context = context
        self.attrs = dict(attrs) if attrs else {}
        self._ts = time.time()
        self._t0 = time.perf_counter()
        self._done = False

    def elapsed(self) -> float:
        return time.perf_counter() - self._t0

    def finish(self, **attrs: Any) -> Span:
        """Close the span, merge ``attrs``, record it, and return it."""
        if self._done:
            raise RuntimeError(f"span {self.name!r} finished twice")
        self._done = True
        self.attrs.update(attrs)
        span = Span(name=self.name, trace_id=self.context.trace_id,
                    span_id=self.context.span_id,
                    parent_id=self.context.parent_id,
                    ts=self._ts, dur=time.perf_counter() - self._t0,
                    attrs=self.attrs)
        self._recorder.record(span)
        return span


class TraceRecorder:
    """Thread-safe bounded sink for finished spans.

    All serving threads — the asyncio loop, the round executor, client
    threads, and the sharded backend relaying worker spans — record into
    one instance.  ``capacity`` bounds memory under request floods: once
    full, new spans are dropped and counted (the earliest, complete
    traces are the useful ones for diagnosis; a rolling window would
    keep only fragments of every trace).
    """

    def __init__(self, capacity: int = 65536):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._spans: list[Span] = []    # repro: guarded-by[_lock]
        self._dropped = 0               # repro: guarded-by[_lock]
        self._total = 0                 # repro: guarded-by[_lock]

    # -- recording ----------------------------------------------------

    def record(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) >= self.capacity:
                self._dropped += 1
            else:
                self._spans.append(span)
                self._total += 1

    def start(self, name: str, parent: TraceContext | None = None,
              attrs: Mapping[str, Any] | None = None) -> ActiveSpan:
        """Open a span: a child of ``parent``, or a new root trace."""
        context = parent.child() if parent is not None else TraceContext.root()
        return ActiveSpan(self, name, context, attrs)

    @contextmanager
    def span(self, name: str, parent: TraceContext | None = None,
             **attrs: Any) -> Iterator[ActiveSpan]:
        active = self.start(name, parent=parent, attrs=attrs)
        try:
            yield active
        finally:
            active.finish()

    def record_span(self, name: str, parent: TraceContext | None,
                    ts: float, dur: float,
                    attrs: Mapping[str, Any] | None = None,
                    context: TraceContext | None = None) -> Span:
        """Record a synthetic span from externally measured timings.

        Used for intervals that are observed rather than wrapped: the
        serving engine derives every one of its spans from its round
        timeline this way.  ``context`` is a pre-minted identity for
        the span (overriding ``parent``) — for a span whose children
        were recorded under it before its own interval closed.
        """
        if context is None:
            context = parent.child() if parent is not None \
                else TraceContext.root()
        span = Span(name=name, trace_id=context.trace_id,
                    span_id=context.span_id, parent_id=context.parent_id,
                    ts=ts, dur=dur, attrs=dict(attrs) if attrs else {})
        self.record(span)
        return span

    # -- inspection ---------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    def mark(self) -> int:
        """A monotonic position in the recorded stream (see :meth:`since`)."""
        with self._lock:
            return self._total

    def since(self, mark: int) -> list[Span]:
        """Spans recorded after ``mark`` (used by the slow-round dump)."""
        with self._lock:
            new = self._total - mark
            return list(self._spans[-new:]) if new > 0 else []

    def snapshot(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def drain(self) -> list[Span]:
        """Snapshot and clear (drops stay counted)."""
        with self._lock:
            spans, self._spans = self._spans, []
            return spans
