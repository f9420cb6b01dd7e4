"""Trace exporters: JSONL event log and Chrome trace-event JSON.

JSONL is the durable, grep-able form — one span dict per line, loadable
with :func:`load_jsonl` and consumed by ``repro trace``.  The Chrome
form is a ``{"traceEvents": [...]}`` document that loads directly in
``chrome://tracing`` or https://ui.perfetto.dev: each trace gets its own
timeline row (``tid`` is derived from the trace id) so a request's
stage chain renders as nested bars.
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterable, Mapping, Sequence

from .trace import Span

__all__ = [
    "span_dicts",
    "write_jsonl",
    "load_jsonl",
    "chrome_trace",
    "write_chrome_trace",
]


def span_dicts(spans: Iterable[Span | Mapping[str, Any]]) \
        -> list[dict[str, Any]]:
    """Normalise a mix of :class:`Span` objects and dicts to plain dicts."""
    out: list[dict[str, Any]] = []
    for span in spans:
        if isinstance(span, Span):
            out.append(span.to_dict())
        else:
            out.append(dict(span))
    return out


def write_jsonl(spans: Iterable[Span | Mapping[str, Any]],
                path: str | os.PathLike) -> int:
    """Write one span per line; returns the number written."""
    records = span_dicts(spans)
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return len(records)


def load_jsonl(path: str | os.PathLike) -> list[dict[str, Any]]:
    """Load a span-per-line file, validating each record's schema.

    Raises :class:`ValueError` naming the offending line so ``repro
    trace --check`` failures point at the exact record.
    """
    records: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
            try:
                span = Span.from_dict(payload)
            except (ValueError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            records.append(span.to_dict())
    return records


def _chrome_tid(trace_id: str) -> int:
    """Stable per-trace thread id so each trace renders as one row."""
    try:
        return int(trace_id[:8], 16) % 1_000_000
    except ValueError:
        return abs(hash(trace_id)) % 1_000_000


def chrome_trace(spans: Iterable[Span | Mapping[str, Any]]) \
        -> dict[str, Any]:
    """Build a Chrome trace-event document (complete ``"X"`` events)."""
    events: list[dict[str, Any]] = []
    for record in span_dicts(spans):
        attrs = record.get("attrs") or {}
        events.append({
            "name": record["name"],
            "cat": record["name"].split(".", 1)[0],
            "ph": "X",
            "ts": record["ts"] * 1e6,
            "dur": max(record["dur"], 0.0) * 1e6,
            "pid": 0,
            "tid": _chrome_tid(record["trace_id"]),
            "args": {
                "trace_id": record["trace_id"],
                "span_id": record["span_id"],
                "parent_id": record["parent_id"],
                **attrs,
            },
        })
    events.sort(key=lambda event: event["ts"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Iterable[Span | Mapping[str, Any]],
                       path: str | os.PathLike) -> int:
    """Write the Chrome trace document; returns the event count."""
    document = chrome_trace(spans)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return len(document["traceEvents"])
