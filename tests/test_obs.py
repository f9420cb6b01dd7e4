"""repro.obs unit tests: contexts, spans, the bounded recorder, the
JSONL/Chrome exporters, the trace report, plus the LatencyHistogram
true-count/merge semantics the tracing stack leans on."""

import json
import threading

import pytest

from repro.metrics import LatencyHistogram
from repro.obs import (
    Span,
    TraceContext,
    TraceRecorder,
    check_trace,
    chrome_trace,
    load_jsonl,
    render_report,
    render_tree,
    slowest_traces,
    stage_summary,
    write_chrome_trace,
    write_jsonl,
)


class TestTraceContext:
    def test_root_and_child_identity(self):
        root = TraceContext.root()
        assert root.parent_id is None
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id

    def test_wire_round_trip_drops_parent(self):
        child = TraceContext.root().child()
        wire = child.to_wire()
        assert set(wire) == {"trace_id", "span_id"}
        back = TraceContext.from_wire(wire)
        assert back.trace_id == child.trace_id
        assert back.span_id == child.span_id
        assert back.parent_id is None

    @pytest.mark.parametrize("payload", [
        None, "nope", 7, [], {},
        {"trace_id": "abc"},                       # missing span_id
        {"trace_id": "", "span_id": "abc"},        # empty id
        {"trace_id": 1, "span_id": "abc"},         # non-string id
    ])
    def test_from_wire_degrades_malformed_to_none(self, payload):
        assert TraceContext.from_wire(payload) is None


class TestSpan:
    def test_dict_round_trip(self):
        span = Span(name="x", trace_id="t" * 16, span_id="s" * 8,
                    parent_id=None, ts=1.5, dur=0.25, attrs={"k": "v"})
        assert Span.from_dict(span.to_dict()) == span

    def test_from_dict_rejects_missing_ids(self):
        with pytest.raises(ValueError, match="missing name"):
            Span.from_dict({"name": "x", "trace_id": "t"})

    def test_from_dict_rejects_non_mapping_attrs(self):
        with pytest.raises(ValueError, match="attrs"):
            Span.from_dict({"name": "x", "trace_id": "t", "span_id": "s",
                            "attrs": ["not", "a", "mapping"]})


class TestRecorder:
    def test_start_finish_records_with_parentage(self):
        recorder = TraceRecorder()
        root = recorder.start("gateway.request", attrs={"op": "ingest"})
        child = recorder.start("queue.wait", parent=root.context)
        child.finish(stream="cam-0")
        span = root.finish(outcome="ok")
        assert span.attrs == {"op": "ingest", "outcome": "ok"}
        spans = recorder.snapshot()
        assert [s.name for s in spans] == ["queue.wait", "gateway.request"]
        assert spans[0].trace_id == spans[1].trace_id
        assert spans[0].parent_id == spans[1].span_id

    def test_double_finish_raises(self):
        recorder = TraceRecorder()
        active = recorder.start("x")
        active.finish()
        with pytest.raises(RuntimeError, match="finished twice"):
            active.finish()

    def test_abandoned_span_is_never_recorded(self):
        recorder = TraceRecorder()
        recorder.start("engine.round")  # dropped without finish()
        assert len(recorder) == 0

    def test_capacity_drops_new_spans_and_counts(self):
        recorder = TraceRecorder(capacity=3)
        for index in range(5):
            recorder.record_span(f"s{index}", parent=None, ts=0.0, dur=0.0)
        assert len(recorder) == 3
        assert recorder.dropped == 2
        # Oldest complete spans kept, newest dropped.
        assert [s.name for s in recorder.snapshot()] == ["s0", "s1", "s2"]

    def test_mark_and_since(self):
        recorder = TraceRecorder()
        recorder.record_span("before", parent=None, ts=0.0, dur=0.0)
        mark = recorder.mark()
        recorder.record_span("after-1", parent=None, ts=0.0, dur=0.0)
        recorder.record_span("after-2", parent=None, ts=0.0, dur=0.0)
        assert [s.name for s in recorder.since(mark)] == ["after-1",
                                                          "after-2"]
        assert recorder.since(recorder.mark()) == []

    def test_concurrent_record_stays_bounded_and_consistent(self):
        recorder = TraceRecorder(capacity=256)
        per_thread = 200
        threads = [threading.Thread(target=lambda: [
            recorder.record_span("flood", parent=None, ts=0.0, dur=0.0)
            for _ in range(per_thread)]) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(recorder) == 256
        assert len(recorder) + recorder.dropped == 8 * per_thread

    def test_drain_clears_but_keeps_drop_count(self):
        recorder = TraceRecorder(capacity=1)
        recorder.record_span("a", parent=None, ts=0.0, dur=0.0)
        recorder.record_span("b", parent=None, ts=0.0, dur=0.0)
        drained = recorder.drain()
        assert [s.name for s in drained] == ["a"]
        assert len(recorder) == 0
        assert recorder.dropped == 1


def _request_trace(recorder, stream="cam-0", outcome="ok",
                   stages=("queue.wait", "stage.score", "stage.ingest",
                           "stage.durability")):
    """One complete client->gateway->stages trace in ``recorder``."""
    client = recorder.start("client.request",
                            attrs={"op": "ingest", "stream": stream})
    server = recorder.start("gateway.request", parent=client.context,
                            attrs={"op": "ingest", "stream": stream})
    for stage in stages:
        recorder.record_span(stage, parent=server.context, ts=1.0,
                             dur=0.002, attrs={"stream": stream})
    server.finish(outcome=outcome)
    client.finish(outcome=outcome)
    return server.context.trace_id


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        recorder = TraceRecorder()
        _request_trace(recorder)
        path = tmp_path / "trace.jsonl"
        count = write_jsonl(recorder.snapshot(), path)
        assert count == 6
        loaded = load_jsonl(path)
        assert len(loaded) == 6
        assert {record["name"] for record in loaded} >= {"client.request",
                                                         "queue.wait"}

    def test_load_jsonl_names_the_bad_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        good = json.dumps({"name": "x", "trace_id": "t", "span_id": "s",
                           "ts": 0.0, "dur": 0.0})
        path.write_text(good + "\nnot json\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r":2: not JSON"):
            load_jsonl(path)
        path.write_text(good + "\n" + json.dumps({"name": "y"}) + "\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=r":2: span record missing"):
            load_jsonl(path)

    def test_chrome_trace_events(self, tmp_path):
        recorder = TraceRecorder()
        trace_id = _request_trace(recorder)
        document = chrome_trace(recorder.snapshot())
        events = document["traceEvents"]
        assert len(events) == 6
        assert all(event["ph"] == "X" for event in events)
        assert sorted(events, key=lambda e: e["ts"]) == events
        stage = next(e for e in events if e["name"] == "queue.wait")
        assert stage["ts"] == pytest.approx(1.0 * 1e6)
        assert stage["dur"] == pytest.approx(0.002 * 1e6)
        assert stage["args"]["trace_id"] == trace_id
        # One timeline row per trace, "gateway"/"stage" categories.
        assert len({event["tid"] for event in events}) == 1
        assert {event["cat"] for event in events} == {"client", "gateway",
                                                      "queue", "stage"}
        path = tmp_path / "chrome.json"
        assert write_chrome_trace(recorder.snapshot(), path) == 6
        assert json.loads(path.read_text())["displayTimeUnit"] == "ms"


class TestReport:
    def test_stage_summary_counts_every_span(self):
        recorder = TraceRecorder()
        for _ in range(3):
            _request_trace(recorder)
        summary = stage_summary(recorder.snapshot())
        assert summary["queue.wait"]["count"] == 3
        assert summary["queue.wait"]["p50_ms"] == pytest.approx(2.0)
        assert set(summary["stage.score"]) == {"count", "mean_ms", "p50_ms",
                                               "p95_ms", "p99_ms"}

    def test_slowest_traces_ranked_by_wall_duration(self):
        recorder = TraceRecorder()
        recorder.record_span("a", parent=None, ts=0.0, dur=0.010)
        recorder.record_span("b", parent=None, ts=5.0, dur=0.500)
        ranked = slowest_traces(recorder.snapshot(), n=2)
        assert [round(duration, 3) for _, duration, _ in ranked] \
            == [0.5, 0.01]

    def test_render_tree_indents_children_and_roots_orphans(self):
        recorder = TraceRecorder()
        _request_trace(recorder)
        groups = slowest_traces(recorder.snapshot(), n=1)
        tree = render_tree(groups[0][2])
        lines = tree.splitlines()
        assert lines[0].startswith("client.request")
        assert lines[1].startswith("  gateway.request")
        assert any(line.startswith("    queue.wait") for line in lines)
        # A span whose parent lives in another recorder renders as root.
        orphan = [{"name": "shard.score", "trace_id": "t", "span_id": "s",
                   "parent_id": "elsewhere", "ts": 0.0, "dur": 0.0,
                   "attrs": {}}]
        assert render_tree(orphan).startswith("shard.score")

    def test_render_report_mentions_stages_and_slowest(self):
        recorder = TraceRecorder()
        _request_trace(recorder)
        report = render_report(recorder.snapshot(), slowest=1)
        assert "queue.wait" in report
        assert "slowest #1" in report

    def test_check_trace_passes_complete_chain(self):
        recorder = TraceRecorder()
        _request_trace(recorder)
        assert check_trace(recorder.snapshot()) == []

    def test_check_trace_flags_missing_stage(self):
        recorder = TraceRecorder()
        _request_trace(recorder, stages=("queue.wait", "stage.score",
                                         "stage.ingest"))
        problems = check_trace(recorder.snapshot())
        assert len(problems) == 1
        assert "stage.durability" in problems[0]

    def test_check_trace_flags_cross_trace_parent(self):
        recorder = TraceRecorder()
        _request_trace(recorder)
        spans = [span.to_dict() for span in recorder.snapshot()]
        server = next(s for s in spans if s["name"] == "gateway.request")
        spans.append({"name": "queue.wait", "trace_id": "other-trace",
                      "span_id": "zz", "parent_id": server["span_id"],
                      "ts": 0.0, "dur": 0.0, "attrs": {}})
        problems = check_trace(spans)
        assert any("crosses traces" in problem for problem in problems)

    def test_check_trace_requires_a_served_request(self):
        recorder = TraceRecorder()
        _request_trace(recorder, outcome="backpressure")
        problems = check_trace(recorder.snapshot())
        assert any("no completed gateway.request" in problem
                   for problem in problems)


class TestLatencyHistogramSemantics:
    """The satellite fix: true counts survive sampling and merging."""

    def test_count_is_true_observation_count_past_reservoir(self):
        histogram = LatencyHistogram(max_samples=8)
        for index in range(100):
            histogram.observe(index * 1e-3)
        assert histogram.count == 100
        summary = histogram.summary()
        assert summary["count"] == 100
        assert summary["sampled"] == 8

    def test_empty_summary_shape(self):
        assert LatencyHistogram().summary() == {"count": 0}

    def test_merge_preserves_true_count(self):
        merged = LatencyHistogram(max_samples=16)
        parts = []
        for offset in range(4):
            part = LatencyHistogram(max_samples=16)
            for index in range(50):
                part.observe((offset * 50 + index) * 1e-3)
            parts.append(part)
        for part in parts:
            merged.merge(part)
        assert merged.count == 200
        summary = merged.summary()
        assert summary["count"] == 200
        assert summary["sampled"] == 16

    def test_merge_without_overflow_pools_exact_samples(self):
        left = LatencyHistogram(max_samples=64)
        right = LatencyHistogram(max_samples=64)
        for value in (0.001, 0.002):
            left.observe(value)
        for value in (0.003, 0.004):
            right.observe(value)
        left.merge(right)
        assert left.count == 4
        assert sorted(left._samples) == [0.001, 0.002, 0.003, 0.004]

    def test_samples_are_unboxed_float64_with_the_list_reservoir(self):
        """Past the cap the reservoir holds ``max_samples`` float64s in
        one buffer, and draws exactly what a list reservoir on the same
        seed draws."""
        import random

        import numpy as np
        max_samples, extra = 256, 1000
        values = [((index * 7919) % 1013) * 1e-4
                  for index in range(max_samples + extra)]
        histogram = LatencyHistogram(max_samples=max_samples, seed=5)
        reference, rng = [], random.Random(5)
        for seen, value in enumerate(values, start=1):
            histogram.observe(value)
            if len(reference) < max_samples:
                reference.append(value)
            elif (slot := rng.randrange(seen)) < max_samples:
                reference[slot] = value
        samples = histogram._samples
        assert samples.typecode == "d"
        assert samples.buffer_info()[1] * samples.itemsize \
            == max_samples * 8
        assert list(samples) == reference
        summary = histogram.summary()
        assert summary["count"] == max_samples + extra
        assert summary["mean_ms"] == float(np.mean(reference)) * 1e3
        assert summary["p99_ms"] == float(np.percentile(reference, 99)) * 1e3

    def test_concurrent_observe_keeps_count_exact(self):
        histogram = LatencyHistogram(max_samples=32)
        per_thread = 500
        threads = [threading.Thread(target=lambda: [
            histogram.observe(1e-3) for _ in range(per_thread)])
            for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert histogram.count == 8 * per_thread
        assert len(histogram._samples) == 32
