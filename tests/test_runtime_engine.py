"""Tests for the unified serving core: the engine over the fleet.

The load-bearing property: queued rounds serve **bit-identical**
per-stream scores to a seed-style direct ``DeploymentFleet.step()`` run
over the same windows — how requests arrive may only change how they
are grouped, never a score bit.  Plus: engine metrics land in one
registry, admission control bounds the queues, and each round serves
the front of every stream's queue, FIFO.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.api import Deployment
from repro.data import TrendShiftConfig, TrendShiftStream
from repro.metrics import MetricsRegistry
from repro.obs import TraceRecorder, check_trace, span_dicts
from repro.runtime import AdmissionError, EngineRequest
from repro.serving import DeploymentFleet
from repro.wal import WalDurability, recover_fleet

ROUNDS = 3


def make_stream(frame_generator, seed, windows_per_step=2):
    return TrendShiftStream(frame_generator, TrendShiftConfig(
        steps_before_shift=2, steps_after_shift=2,
        windows_per_step=windows_per_step, window=4, seed=seed))


def make_fleet(fresh_model, frame_generator, streams=3) -> DeploymentFleet:
    """Deterministic fleet: same arguments -> bit-identical replicas."""
    fleet = DeploymentFleet()
    model = fresh_model("Stealing", window=4)
    model.eval()
    for index in range(streams):
        fleet.add(f"cam-{index}",
                  Deployment(model, mission="Stealing", adaptive=False),
                  make_stream(frame_generator, seed=60 + index))
    return fleet


@pytest.fixture()
def materialized(fresh_model, frame_generator):
    """(windows, reference): per-stream arrivals for ROUNDS rounds and
    the scores the seed-style direct ``fleet.step()`` run produces."""
    fleet = make_fleet(fresh_model, frame_generator)
    windows = {slot.name: [np.asarray(slot.stream.batch(r).windows,
                                      dtype=np.float64)
                           for r in range(ROUNDS)]
               for slot in fleet.slots}
    reference = {name: [] for name in fleet.names}
    for _ in range(ROUNDS):
        for event in fleet.step():
            reference[event.stream].append(event.scores)
    return windows, reference


def drain_engine(engine):
    """Run rounds until the queues empty; returns
    (per-stream score lists in served order, engine rounds used)."""
    served: dict[str, list] = {}
    errors = []
    rounds = 0
    while engine.has_pending():
        for result in engine.run_round():
            if result.kind == "event":
                served.setdefault(result.request.stream, []).append(
                    result.event.scores)
            else:
                errors.append((result.code, result.message))
        rounds += 1
        assert rounds < 100, "engine failed to drain"
    assert not errors, errors
    return served, rounds


class TestWaveParity:
    """Queued rounds against the seed-style step."""

    def test_scores_bit_identical_to_seed_step(
            self, fresh_model, frame_generator, materialized):
        windows, reference = materialized
        fleet = make_fleet(fresh_model, frame_generator)
        engine = fleet.engine
        assert engine.fleet is fleet
        # Interleaved arrivals: every stream's whole backlog queued
        # before the first round.
        for round_index in range(ROUNDS):
            for name in windows:
                engine.submit(EngineRequest(
                    op="ingest", stream=name,
                    windows=windows[name][round_index]))
        served, engine_rounds = drain_engine(engine)
        for name, expected_rounds in reference.items():
            assert len(served[name]) == len(expected_rounds)
            for round_index, expected in enumerate(expected_rounds):
                np.testing.assert_array_equal(
                    served[name][round_index], expected,
                    err_msg=f"{name} round {round_index} diverged")
        assert engine_rounds == ROUNDS   # <=1 per stream per round

    @pytest.mark.parametrize("pipeline", [False, True],
                             ids=["serial", "pipelined"])
    @pytest.mark.parametrize("traced", [False, True],
                             ids=["untraced", "traced"])
    def test_mixed_wave(
            self, fresh_model, frame_generator, traced, pipeline):
        """One wave holding a bad-shape entry, a ``scores`` op and
        ordinary ingests yields the expected ``(kind, code, score bits)``
        per request, traced or not, serial or pipelined: un-scoreable
        windows error alone instead of poisoning the coalesced round,
        through the one ``serve_round`` path plus its per-entry
        isolation fallback."""
        reference = make_fleet(fresh_model, frame_generator, streams=4)
        windows = {slot.name: np.asarray(slot.stream.batch(0).windows,
                                         dtype=np.float64)
                   for slot in reference.slots}
        expected = {event.stream: event.scores.tobytes()
                    for event in reference.step()}
        fleet = make_fleet(fresh_model, frame_generator, streams=4)
        recorder = TraceRecorder() if traced else None
        delivered = []
        with fleet:
            engine = fleet.engine
            engine.tracer = recorder
            engine.pipeline = pipeline
            engine.on_commit = delivered.extend
            wave = [EngineRequest(op="ingest", stream="cam-0",
                                  windows=np.zeros((1, 4, 7))),
                    EngineRequest(op="scores", stream="cam-1",
                                  windows=windows["cam-1"]),
                    EngineRequest(op="ingest", stream="cam-2",
                                  windows=windows["cam-2"]),
                    EngineRequest(op="ingest", stream="cam-3",
                                  windows=windows["cam-3"])]
            spans = []
            for request in wave:
                if traced:  # stand in for the gateway's request span
                    spans.append(recorder.start(
                        "gateway.request",
                        attrs={"op": request.op, "stream": request.stream}))
                    request.trace = spans[-1].context
                engine.submit(request)
            returned = engine.run_round()
            engine.stop_committer()
            results = {r.request.stream: r
                       for r in (delivered if pipeline else returned)}
            for span in spans:
                kind = results[span.attrs["stream"]].kind
                span.finish(outcome="error" if kind == "error" else "ok")
        assert returned == ([] if pipeline else list(results.values()))
        outcome = {name: (r.kind, r.code,
                          None if r.kind == "error" else np.asarray(
                              r.event.scores if r.kind == "event"
                              else r.scores).tobytes())
                   for name, r in results.items()}
        assert outcome == {
            "cam-0": ("error", "bad_request", None),
            "cam-1": ("scores", None, expected["cam-1"]),
            "cam-2": ("event", None, expected["cam-2"]),
            "cam-3": ("event", None, expected["cam-3"])}
        assert "cam-0" in results["cam-0"].message
        if traced:
            assert check_trace(span_dicts(recorder.snapshot())) == []

    def test_score_only_matrix_is_stateless(self, fresh_model,
                                            frame_generator, materialized):
        windows, reference = materialized
        arrivals = {name: windows[name][0] for name in windows}
        fleet = make_fleet(fresh_model, frame_generator)
        for _ in range(2):   # nothing ingested, so a repeat is the same
            scored = fleet.score_only(arrivals)
            for name in arrivals:
                np.testing.assert_array_equal(scored[name],
                                              reference[name][0])
        assert fleet.rounds == 0



class TestWaveIsolation:
    """One stream's failed ingest is that request's alone, even in a
    wave whose other streams already ingested."""

    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "wal"])
    def test_a_refused_ingest_fails_alone(
            self, fresh_model, frame_generator, materialized, tmp_path,
            durable):
        """Two static streams share one model; in one wave cam-0's
        ingest is good and cam-1's holds a NaN.  cam-0's ingest is
        applied, answered with its event and, under a WAL, logged
        applied, so recovery lands on the live steps; cam-1 alone gets
        ``bad_request``, takes no step and is logged skipped."""
        windows, reference = materialized
        poisoned = windows["cam-1"][0].copy()
        poisoned[0, 1, 2] = np.nan
        fleet = make_fleet(fresh_model, frame_generator, streams=2)
        waves = [[("cam-0", windows["cam-0"][0]), ("cam-1", poisoned)],
                 [("cam-0", windows["cam-0"][1]),
                  ("cam-1", windows["cam-1"][0])]]
        results = []
        with fleet:
            engine = fleet.engine
            if durable:
                engine.durability = WalDurability(fleet, tmp_path)
            for wave in waves:
                for name, batch in wave:
                    engine.submit(EngineRequest(op="ingest", stream=name,
                                                windows=batch))
                results.append(engine.run_round())
            if durable:   # the log closes without a parting snapshot
                engine.durability.wal.close()
        (good, bad), (next_good, next_bad) = results
        assert (good.kind, bad.kind, bad.code) \
            == ("event", "error", "bad_request")
        assert "cam-1" in bad.message and "NonFiniteError" in bad.message
        assert (next_good.kind, next_bad.kind) == ("event", "event")
        # cam-0 took its step; cam-1's refused ingest took none.
        assert [r.event.step for r in (good, next_good, next_bad)] \
            == [0, 1, 0]
        for result, (name, index) in zip(
                (good, next_good, next_bad),
                (("cam-0", 0), ("cam-0", 1), ("cam-1", 0))):
            np.testing.assert_array_equal(result.event.scores,
                                          reference[name][index])
        if durable:   # so recovery replays the log
            recovered, _ = recover_fleet(tmp_path)
            assert {slot.name: slot.deployment.step_count
                    for slot in recovered.slots} == {"cam-0": 2, "cam-1": 1}
            events = recovered.ingest_round({"cam-0": windows["cam-0"][2],
                                             "cam-1": windows["cam-1"][1]})
            for name, index in (("cam-0", 2), ("cam-1", 1)):
                assert events[name].step == index
                np.testing.assert_array_equal(events[name].scores,
                                              reference[name][index])

class TestEngineMetrics:
    def test_step_rounds_instrumented(self, fresh_model, frame_generator):
        fleet = make_fleet(fresh_model, frame_generator)
        rounds = len(list(fleet.serve()))
        metrics = fleet.engine.metrics.to_dict()
        assert metrics["counters"]["engine.rounds"] == rounds
        assert fleet.rounds == rounds
        assert metrics["histograms"]["engine.round_latency"]["count"] \
            == rounds
        # 3 streams x 2 windows/step, every stream exhausted together.
        assert metrics["counters"]["engine.windows"] == rounds * 3 * 2
        assert metrics["gauges"]["engine.last_round_streams"] == 3

    def test_stats_reports_rounds_and_coalescing(
            self, fresh_model, frame_generator):
        fleet = make_fleet(fresh_model, frame_generator)
        fleet.step()
        stats = fleet.engine.stats()
        assert "policy" not in stats and "backend" not in stats
        assert stats["rounds"] == 1
        # 3 streams share one scoring model: one coalesced forward for
        # all 6 windows.
        assert stats["coalesce"]["batches_run"] == 1
        assert stats["coalesce"]["windows_scored"] == 6
        assert stats["coalesce"]["windows_per_forward"] == 6.0
        # ... and what the fleet holds: one weight set, one token state.
        assert stats["coalesce"]["weight_sets"] == 1
        assert stats["coalesce"]["token_states"] == 1

    def test_stats_reports_the_process_peak_rss(self, fresh_model,
                                               frame_generator):
        """``rss_peak_mb`` is this process's ``VmHWM``, in MiB."""
        fleet = make_fleet(fresh_model, frame_generator)
        fleet.step()
        peak = fleet.engine.stats()["rss_peak_mb"]
        status = Path("/proc/self/status").read_text()
        [hwm_kb] = [int(line.split()[1]) for line in status.splitlines()
                    if line.startswith("VmHWM:")]
        assert abs(peak - hwm_kb / 1024) < 1.0
        assert fleet.engine.stats()["rss_peak_mb"] >= peak

    def test_queue_depth_gauge_tracks_submissions(self, fresh_model,
                                                  frame_generator,
                                                  materialized):
        windows, _ = materialized
        fleet = make_fleet(fresh_model, frame_generator)
        engine = fleet.engine
        for name in windows:
            engine.submit(EngineRequest(op="ingest", stream=name,
                                        windows=windows[name][0]))
        assert engine.metrics.gauge("engine.queue_depth").value == 3
        assert engine.queued_depths() == {name: 1 for name in windows}
        engine.run_round()
        assert engine.metrics.gauge("engine.queue_depth").value == 0
        assert engine.metrics.to_dict()["counters"]["engine.requests"] == 3

    def test_running_queue_count_equals_the_queues(self, fresh_model,
                                                   frame_generator,
                                                   materialized):
        """The one count ``pending_count`` / ``has_pending`` / the gauge
        read is kept at submit, drop and dequeue; it must equal the walk
        it replaced after any interleaving of them, a rejected admission
        and a predicate that raises mid-drop included."""
        windows, _ = materialized
        fleet = make_fleet(fresh_model, frame_generator)
        engine = fleet.engine
        engine.max_queue_depth = 2

        def check():
            total = sum(engine.queued_depths().values())
            assert engine.pending_count() == total
            assert engine.has_pending() == (total > 0)
            assert engine.metrics.gauge("engine.queue_depth").value == total

        def submit(name, index, tag=None):
            engine.submit(EngineRequest(op="ingest", stream=name, tag=tag,
                                        windows=windows[name][index]))
            check()

        check()
        submit("cam-0", 0)
        submit("cam-0", 1, tag="doomed")
        with pytest.raises(AdmissionError):
            submit("cam-0", 2)      # over the limit: never queued
        check()
        submit("cam-1", 0, tag="doomed")
        submit("cam-2", 0)
        assert len(engine.run_round()) == 3   # one per stream leaves
        check()
        assert engine.pending_count() == 1
        submit("cam-1", 1)
        submit("cam-2", 1, tag="doomed")

        def explode_on_cam2(request):
            if request.stream == "cam-2":
                raise RuntimeError("broken predicate")
            return request.tag == "doomed"

        with pytest.raises(RuntimeError, match="broken predicate"):
            engine.drop_pending(explode_on_cam2)   # cam-0's went, then raised
        check()
        assert engine.pending_count() == 2
        assert len(engine.drop_pending(lambda r: r.tag == "doomed")) == 1
        check()
        while engine.has_pending():
            engine.run_round()
        check()
        assert engine.pending_count() == 0

    def test_shared_registry_with_caller(self, fresh_model,
                                         frame_generator):
        registry = MetricsRegistry()
        fleet = DeploymentFleet(metrics=registry)
        model = fresh_model("Stealing", window=4)
        model.eval()
        fleet.add("cam-0", Deployment(model, mission="Stealing",
                                      adaptive=False),
                  make_stream(frame_generator, seed=60))
        fleet.step()
        assert registry.to_dict()["counters"]["engine.rounds"] == 1


class TestAdmission:
    def test_backpressure_beyond_max_queue_depth(self, fresh_model,
                                                 frame_generator,
                                                 materialized):
        windows, _ = materialized
        fleet = make_fleet(fresh_model, frame_generator)
        engine = fleet.engine
        engine.max_queue_depth = 1
        engine.submit(EngineRequest(op="ingest", stream="cam-0",
                                    windows=windows["cam-0"][0]))
        with pytest.raises(AdmissionError) as err:
            engine.submit(EngineRequest(op="ingest", stream="cam-0",
                                        windows=windows["cam-0"][1]))
        assert err.value.code == "backpressure"
        assert "retry" in err.value.message

    def test_drop_pending_cancels_matching_work(self, fresh_model,
                                                frame_generator,
                                                materialized):
        windows, _ = materialized
        fleet = make_fleet(fresh_model, frame_generator)
        engine = fleet.engine
        doomed = EngineRequest(op="ingest", stream="cam-0",
                               windows=windows["cam-0"][0], tag="doomed")
        kept = EngineRequest(op="ingest", stream="cam-1",
                             windows=windows["cam-1"][0], tag="kept")
        engine.submit(doomed)
        engine.submit(kept)
        dropped = engine.drop_pending(lambda r: r.tag == "doomed")
        assert dropped == [doomed]
        assert engine.queued_depths() == {"cam-1": 1}

    def test_backpressure_lifts_once_the_front_is_served(
            self, fresh_model, frame_generator, materialized):
        windows, reference = materialized
        engine = make_fleet(fresh_model, frame_generator).engine
        engine.max_queue_depth = 1
        engine.submit(EngineRequest(op="ingest", stream="cam-0",
                                    windows=windows["cam-0"][0]))
        with pytest.raises(AdmissionError):
            engine.submit(EngineRequest(op="ingest", stream="cam-0",
                                        windows=windows["cam-0"][1]))
        [served] = engine.run_round()
        np.testing.assert_array_equal(served.event.scores,
                                      reference["cam-0"][0])
        # The refused request was never queued: resubmitting it is the
        # stream's next round, not a duplicate.
        engine.submit(EngineRequest(op="ingest", stream="cam-0",
                                    windows=windows["cam-0"][1]))
        [served] = engine.run_round()
        np.testing.assert_array_equal(served.event.scores,
                                      reference["cam-0"][1])
        assert served.event.step == 1


def served_order(results):
    """``[(stream, scores)]`` of a round's results, in result order."""
    assert all(r.kind == "event" for r in results), \
        [(r.code, r.message) for r in results]
    return [(r.request.stream, r.event.scores) for r in results]


class TestRoundShape:
    """Every round serves the front request of every non-empty stream
    queue — at most one per stream, streams in first-arrival order —
    and nothing queued is ever shed."""

    def test_front_of_each_queue_in_first_arrival_order(
            self, fresh_model, frame_generator, materialized):
        windows, reference = materialized
        fleet = make_fleet(fresh_model, frame_generator)
        arrivals = [("cam-2", 0), ("cam-0", 0), ("cam-2", 1),
                    ("cam-1", 0), ("cam-0", 1), ("cam-2", 2)]
        with fleet:
            engine = fleet.engine
            for name, index in arrivals:
                engine.submit(EngineRequest(op="ingest", stream=name,
                                            windows=windows[name][index]))
            rounds = []
            while engine.has_pending():
                rounds.append(served_order(engine.run_round()))
                assert engine.metrics.gauge(
                    "engine.last_round_streams").value == len(rounds[-1])
        expected = [[("cam-2", 0), ("cam-0", 0), ("cam-1", 0)],
                    [("cam-2", 1), ("cam-0", 1)],
                    [("cam-2", 2)]]
        assert [[name for name, _ in served] for served in rounds] \
            == [[name for name, _ in wave] for wave in expected]
        for served, wave in zip(rounds, expected):
            for (name, scores), (_, index) in zip(served, wave):
                np.testing.assert_array_equal(scores,
                                              reference[name][index])

    def test_late_stream_joins_the_next_round(
            self, fresh_model, frame_generator, materialized):
        windows, reference = materialized
        fleet = make_fleet(fresh_model, frame_generator)
        with fleet:
            engine = fleet.engine
            for index in range(2):
                engine.submit(EngineRequest(op="ingest", stream="cam-1",
                                            windows=windows["cam-1"][index]))
            first = served_order(engine.run_round())
            engine.submit(EngineRequest(op="ingest", stream="cam-0",
                                        windows=windows["cam-0"][0]))
            second = served_order(engine.run_round())
            assert engine.run_round() == []
        assert [name for name, _ in first] == ["cam-1"]
        # cam-1 arrived first, so it stays ahead of the newcomer.
        assert [name for name, _ in second] == ["cam-1", "cam-0"]
        np.testing.assert_array_equal(second[0][1], reference["cam-1"][1])
        np.testing.assert_array_equal(second[1][1], reference["cam-0"][0])

    def test_scores_and_ingest_share_one_round(self, fresh_model,
                                               frame_generator,
                                               materialized):
        windows, reference = materialized
        engine = make_fleet(fresh_model, frame_generator).engine
        engine.submit(EngineRequest(op="ingest", stream="cam-0",
                                    windows=windows["cam-0"][0]))
        engine.submit(EngineRequest(op="scores", stream="cam-1",
                                    windows=windows["cam-1"][0]))
        engine.submit(EngineRequest(op="ingest", stream="cam-1",
                                    windows=windows["cam-1"][0]))
        ingest, scores = engine.run_round()
        assert (ingest.kind, scores.kind) == ("event", "scores")
        assert engine.rounds == 1
        np.testing.assert_array_equal(scores.scores, reference["cam-1"][0])
        # The scores op queued ahead of cam-1's ingest took its round but
        # not its stream step.
        [late] = engine.run_round()
        assert late.event.step == 0
        np.testing.assert_array_equal(late.event.scores,
                                      reference["cam-1"][0])

    def test_long_queued_request_is_served_not_shed(
            self, fresh_model, frame_generator, materialized):
        windows, reference = materialized
        engine = make_fleet(fresh_model, frame_generator).engine
        for index in range(ROUNDS):
            engine.submit(EngineRequest(op="ingest", stream="cam-0",
                                        windows=windows["cam-0"][index]))
        served, rounds = drain_engine(engine)
        assert rounds == ROUNDS
        for index, expected in enumerate(reference["cam-0"]):
            np.testing.assert_array_equal(served["cam-0"][index], expected)
        counters = engine.metrics.to_dict()["counters"]
        assert counters["engine.requests"] == ROUNDS
        assert "engine.expired" not in counters
        waits = engine.metrics.histogram("engine.stage.queue_wait")
        assert waits.count == ROUNDS

    def test_drop_of_a_front_request_promotes_the_next(
            self, fresh_model, frame_generator, materialized):
        windows, reference = materialized
        engine = make_fleet(fresh_model, frame_generator).engine
        for index in range(2):
            engine.submit(EngineRequest(op="ingest", stream="cam-0",
                                        tag=index,
                                        windows=windows["cam-0"][index]))
        [dropped] = engine.drop_pending(lambda r: r.tag == 0)
        assert dropped.tag == 0
        [served] = engine.run_round()
        assert served.request.tag == 1
        # The dropped request never reached the model: the survivor
        # takes the stream's first step, with its own windows' scores.
        assert served.event.step == 0
        np.testing.assert_array_equal(served.event.scores,
                                      reference["cam-0"][1])

    def test_empty_round_records_nothing(self, fresh_model,
                                         frame_generator):
        engine = make_fleet(fresh_model, frame_generator).engine
        engine.tracer = recorder = TraceRecorder()
        assert engine.run_round() == []
        assert engine.rounds == 0
        assert "engine.rounds" not in engine.metrics.to_dict()["counters"]
        assert recorder.snapshot() == []

    def test_traced_round_is_one_wave(self, fresh_model, frame_generator,
                                      materialized):
        windows, _ = materialized
        engine = make_fleet(fresh_model, frame_generator).engine
        engine.tracer = recorder = TraceRecorder()
        for name in windows:
            for index in range(2):
                engine.submit(EngineRequest(op="ingest", stream=name,
                                            windows=windows[name][index]))
        drain_engine(engine)
        spans = span_dicts(recorder.snapshot())
        names = [span["name"] for span in spans]
        assert names.count("engine.round") == 2
        # One wave per round: one score and one ingest stage each.
        assert names.count("engine.score") == 2
        assert names.count("engine.ingest") == 2
        schedules = [span["attrs"] for span in spans
                     if span["name"] == "engine.schedule"]
        assert schedules == [{"selected": 3}, {"selected": 3}]
