"""Trace analysis: per-stage summaries, slowest-trace trees, validation.

Everything here normalises its input through
:func:`~repro.obs.export.span_dicts`, so reports work identically on a
live :class:`~repro.obs.TraceRecorder` snapshot (:class:`Span` objects)
and on a file loaded with :func:`~repro.obs.export.load_jsonl` (plain
dicts).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..metrics import percentile
from .export import span_dicts

__all__ = [
    "REQUEST_STAGE_SPANS",
    "stage_summary",
    "trace_groups",
    "slowest_traces",
    "render_tree",
    "render_report",
    "check_trace",
]

#: the stage chain every traced+ingested request must exhibit under its
#: ``gateway.request`` span (the acceptance contract checked by
#: ``repro trace --check`` and the CI trace-smoke job).
REQUEST_STAGE_SPANS = ("queue.wait", "stage.score", "stage.ingest",
                      "stage.durability")


def stage_summary(spans: Iterable[Mapping[str, Any]]) \
        -> dict[str, dict[str, float]]:
    """Per-span-name ``{count, mean_ms, p50_ms, p95_ms, p99_ms}``.

    ``count`` is the true number of spans summarized (traces are not
    reservoir-sampled the way histograms are, but reporting the count
    keeps percentile uncertainty assessable either way).
    """
    by_name: dict[str, list[float]] = {}
    for span in span_dicts(spans):
        by_name.setdefault(span["name"], []).append(float(span["dur"]))
    summary: dict[str, dict[str, float]] = {}
    for name in sorted(by_name):
        durs = by_name[name]
        summary[name] = {
            "count": len(durs),
            "mean_ms": float(np.mean(durs)) * 1e3,
            "p50_ms": percentile(durs, 50, phase=name) * 1e3,
            "p95_ms": percentile(durs, 95, phase=name) * 1e3,
            "p99_ms": percentile(durs, 99, phase=name) * 1e3,
        }
    return summary


def trace_groups(spans: Iterable[Mapping[str, Any]]) \
        -> dict[str, list[dict[str, Any]]]:
    """Group spans by ``trace_id``, each group sorted by start time."""
    groups: dict[str, list[dict[str, Any]]] = {}
    for span in span_dicts(spans):
        groups.setdefault(span["trace_id"], []).append(span)
    for group in groups.values():
        group.sort(key=lambda span: span["ts"])
    return groups


def _trace_duration(group: Sequence[Mapping[str, Any]]) -> float:
    """Critical-path length of a trace: latest end minus earliest start."""
    start = min(span["ts"] for span in group)
    end = max(span["ts"] + span["dur"] for span in group)
    return end - start


def slowest_traces(spans: Iterable[Mapping[str, Any]], n: int = 5) \
        -> list[tuple[str, float, list[dict[str, Any]]]]:
    """Top-``n`` traces by wall duration: ``(trace_id, seconds, spans)``."""
    groups = trace_groups(spans)
    ranked = sorted(groups.items(), key=lambda item: -_trace_duration(item[1]))
    return [(trace_id, _trace_duration(group), group)
            for trace_id, group in ranked[:max(n, 0)]]


def render_tree(group: Sequence[Mapping[str, Any]]) -> str:
    """Render one trace's spans as an indented parent→child tree."""
    by_id = {span["span_id"]: span for span in group}
    children: dict[str | None, list[dict[str, Any]]] = {}
    for span in group:
        parent = span["parent_id"]
        if parent is not None and parent not in by_id:
            parent = None  # parent lives in another process's recorder
        children.setdefault(parent, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda span: span["ts"])

    lines: list[str] = []

    def walk(span: Mapping[str, Any], depth: int) -> None:
        attrs = span.get("attrs") or {}
        detail = " ".join(f"{key}={attrs[key]}" for key in sorted(attrs))
        lines.append(f"{'  ' * depth}{span['name']:<22} "
                     f"{span['dur'] * 1e3:9.3f} ms"
                     + (f"  [{detail}]" if detail else ""))
        for child in children.get(span["span_id"], ()):
            walk(child, depth + 1)

    for root in children.get(None, ()):
        walk(root, 0)
    return "\n".join(lines)


def render_report(spans: Sequence[Mapping[str, Any]], slowest: int = 5) \
        -> str:
    """The ``repro trace --format text`` report: stage table + trees."""
    lines = [f"{len(spans)} spans, "
             f"{len(trace_groups(spans))} traces", "",
             f"{'stage':<22} {'count':>7} {'mean':>9} {'p50':>9} "
             f"{'p95':>9} {'p99':>9}  (ms)"]
    for name, row in stage_summary(spans).items():
        lines.append(f"{name:<22} {row['count']:>7d} {row['mean_ms']:>9.3f} "
                     f"{row['p50_ms']:>9.3f} {row['p95_ms']:>9.3f} "
                     f"{row['p99_ms']:>9.3f}")
    for rank, (trace_id, duration, group) in \
            enumerate(slowest_traces(spans, slowest), start=1):
        lines += ["", f"-- slowest #{rank}: trace {trace_id} "
                      f"({duration * 1e3:.3f} ms, {len(group)} spans)",
                  render_tree(group)]
    return "\n".join(lines)


def check_trace(spans: Sequence[Mapping[str, Any]],
                stages: Sequence[str] = REQUEST_STAGE_SPANS) -> list[str]:
    """Validate the acceptance contract; returns problems (empty = pass).

    Every ``gateway.request`` span for an ``ingest`` op that completed
    (``outcome`` not an error) must have a child span for each required
    stage, each correctly parented, and every span must belong to the
    same trace as its parent.
    """
    problems: list[str] = []
    records = span_dicts(spans)
    by_id = {span["span_id"]: span for span in records}
    children: dict[str, list[dict[str, Any]]] = {}
    for span in records:
        parent = span.get("parent_id")
        if parent is not None:
            children.setdefault(parent, []).append(span)
            known = by_id.get(parent)
            if known is not None and known["trace_id"] != span["trace_id"]:
                problems.append(
                    f"span {span['span_id']} ({span['name']}) crosses "
                    f"traces: parent {parent} is in {known['trace_id']}, "
                    f"child in {span['trace_id']}")
    requests = [span for span in records
                if span["name"] == "gateway.request"
                and (span.get("attrs") or {}).get("op") == "ingest"
                and (span.get("attrs") or {}).get("outcome") == "ok"]
    if not requests:
        problems.append("no completed gateway.request ingest spans found")
    for request in requests:
        have = {child["name"] for child in children.get(request["span_id"], ())}
        missing = [stage for stage in stages if stage not in have]
        if missing:
            problems.append(
                f"request span {request['span_id']} (trace "
                f"{request['trace_id']}, stream "
                f"{(request.get('attrs') or {}).get('stream')}) is missing "
                f"stage spans: {', '.join(missing)}")
    return problems
