"""Tests for the unified serving core: engine, backends, policies.

The load-bearing property: every (ExecutionBackend, SchedulingPolicy)
combination serves **bit-identical** per-stream scores to a seed-style
direct ``DeploymentFleet.step()`` run over the same windows — backends
and policies may only change *round composition*, never a score bit.
Plus: engine metrics land in one registry, admission control bounds the
queues, deadlines expire stale work, and per-stream FIFO survives every
policy.
"""

import time

import numpy as np
import pytest

from repro.api import Deployment
from repro.data import TrendShiftConfig, TrendShiftStream
from repro.metrics import MetricsRegistry
from repro.obs import TraceRecorder, check_trace, span_dicts
from repro.runtime import (
    AdmissionError,
    EngineRequest,
    FairRoundRobin,
    GreedyDrain,
    InlineBackend,
    PriorityAdmission,
    ShardedBackend,
    resolve_policy,
)
from repro.serving import DeploymentFleet, FleetInfra, ShardedFleet

INFRA = FleetInfra(embedding_seed=7, generator_seed=5)
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
        for event in fleet.step(batched=True):
            reference[event.stream].append(event.scores)
    return windows, reference


def drain_engine(engine):
    """Run policy-composed rounds until the queues empty; returns
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


class TestBackendPolicyParityMatrix:
    """(InlineBackend, ShardedBackend) x (fair, greedy, priority)."""

    POLICIES = {
        "fair": FairRoundRobin,
        "greedy": GreedyDrain,
        "priority": PriorityAdmission,
    }

    @pytest.mark.parametrize("backend", ["inline", "sharded"])
    @pytest.mark.parametrize("policy", ["fair", "greedy", "priority"])
    def test_scores_bit_identical_to_seed_step(
            self, fresh_model, frame_generator, backend, policy,
            materialized):
        windows, reference = materialized
        fleet = make_fleet(fresh_model, frame_generator)
        if backend == "sharded":
            fleet = ShardedFleet.from_fleet(fleet, shards=2, infra=INFRA)
        with fleet:
            engine = fleet.engine
            engine.policy = self.POLICIES[policy]()
            assert isinstance(
                engine.backend,
                InlineBackend if backend == "inline" else ShardedBackend)
            # Interleaved arrivals with distinct priorities, so the
            # priority policy actually reorders cross-stream.
            for round_index in range(ROUNDS):
                for position, name in enumerate(windows):
                    engine.submit(EngineRequest(
                        op="ingest", stream=name,
                        windows=windows[name][round_index],
                        priority=position))
            served, engine_rounds = drain_engine(engine)
        for name, expected_rounds in reference.items():
            assert len(served[name]) == len(expected_rounds)
            for round_index, expected in enumerate(expected_rounds):
                np.testing.assert_array_equal(
                    served[name][round_index], expected,
                    err_msg=f"{backend}x{policy}: {name} round "
                            f"{round_index} diverged")
        # Policies differ only in round composition.
        if policy == "greedy":
            assert engine_rounds == 1        # whole backlog in one round
        elif policy == "fair":
            assert engine_rounds == ROUNDS   # <=1 per stream per round

    @pytest.mark.parametrize("pipeline", [False, True],
                             ids=["serial", "pipelined"])
    @pytest.mark.parametrize("traced", [False, True],
                             ids=["untraced", "traced"])
    @pytest.mark.parametrize("backend", ["inline", "sharded"],
                             ids=["inline", "2shard"])
    def test_mixed_wave(
            self, fresh_model, frame_generator, backend, traced, pipeline):
        """One wave holding a bad-shape entry, a ``scores`` op and
        ordinary ingests yields the same ``(kind, code, score bits)``
        per request on every backend, traced or not, serial or
        pipelined: un-scoreable windows error alone instead of
        poisoning the coalesced round, through the one ``serve_round``
        path plus its per-entry isolation fallback.  (On two shards
        cam-0/cam-2 share the shard whose coalesced score fails and
        re-run solo; cam-1/cam-3 ride the other shard's clean wave.)"""
        reference = make_fleet(fresh_model, frame_generator, streams=4)
        windows = {slot.name: np.asarray(slot.stream.batch(0).windows,
                                         dtype=np.float64)
                   for slot in reference.slots}
        expected = {event.stream: event.scores.tobytes()
                    for event in reference.step(batched=True)}
        fleet = make_fleet(fresh_model, frame_generator, streams=4)
        if backend == "sharded":
            fleet = ShardedFleet.from_fleet(fleet, shards=2, infra=INFRA)
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
            rounds = engine.rounds
            transport = engine.stats().get("transport")
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
        if backend == "sharded":
            # Traced or not, the wave took the production path.
            assert transport["fused_rounds"] == rounds == 1
        if traced:
            assert check_trace(span_dicts(recorder.snapshot())) == []

    def test_score_only_matrix_is_stateless(self, fresh_model,
                                            frame_generator, materialized):
        windows, reference = materialized
        arrivals = {name: windows[name][0] for name in windows}
        fleet = make_fleet(fresh_model, frame_generator)
        scored_inline = fleet.score_only(arrivals)
        with ShardedFleet.from_fleet(fleet, shards=2,
                                     infra=INFRA) as sharded:
            scored_sharded = sharded.score_only(arrivals)
        for name in arrivals:
            np.testing.assert_array_equal(scored_inline[name],
                                          reference[name][0])
            np.testing.assert_array_equal(scored_sharded[name],
                                          reference[name][0])


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

    def test_stats_reports_backend_policy_and_coalescing(
            self, fresh_model, frame_generator):
        fleet = make_fleet(fresh_model, frame_generator)
        fleet.step()
        stats = fleet.engine.stats()
        assert stats["backend"] == "inline"
        assert stats["policy"] == "fair"
        assert stats["rounds"] == 1
        # 3 streams share one scoring model: one coalesced forward for
        # all 6 windows.
        assert stats["coalesce"]["batches_run"] == 1
        assert stats["coalesce"]["windows_scored"] == 6
        assert stats["coalesce"]["windows_per_forward"] == 6.0
        # ... and what the fleet holds: one weight set, one token state.
        assert stats["coalesce"]["weight_sets"] == 1
        assert stats["coalesce"]["token_states"] == 1
        # Concurrent readers may still read inline backend counters.
        assert "coalesce" in fleet.engine.stats(concurrent=True)

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
        engine.policy = GreedyDrain(max_per_stream=1)

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


class TestAdmissionAndDeadlines:
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

    def test_expired_deadline_is_shed_not_served(self, fresh_model,
                                                 frame_generator,
                                                 materialized):
        windows, reference = materialized
        fleet = make_fleet(fresh_model, frame_generator)
        engine = fleet.engine
        engine.policy = PriorityAdmission()
        engine.submit(EngineRequest(op="ingest", stream="cam-0",
                                    windows=windows["cam-0"][0],
                                    deadline=time.monotonic() - 1.0))
        engine.submit(EngineRequest(op="ingest", stream="cam-1",
                                    windows=windows["cam-1"][0]))
        results = {r.request.stream: r for r in engine.run_round()}
        assert results["cam-0"].kind == "error"
        assert results["cam-0"].code == "expired"
        assert results["cam-1"].kind == "event"
        np.testing.assert_array_equal(results["cam-1"].event.scores,
                                      reference["cam-1"][0])
        # The expired stream never consumed a deployment step.
        event = fleet.ingest_round(
            {"cam-0": windows["cam-0"][0]})["cam-0"]
        assert event.step == 0
        assert engine.metrics.to_dict()["counters"]["engine.expired"] == 1

    def test_priority_orders_streams_under_round_cap(self, fresh_model,
                                                     frame_generator,
                                                     materialized):
        windows, _ = materialized
        fleet = make_fleet(fresh_model, frame_generator)
        engine = fleet.engine
        engine.policy = PriorityAdmission(max_streams=1)
        engine.submit(EngineRequest(op="ingest", stream="cam-0",
                                    windows=windows["cam-0"][0],
                                    priority=0))
        engine.submit(EngineRequest(op="ingest", stream="cam-2",
                                    windows=windows["cam-2"][0],
                                    priority=5))
        first = engine.run_round()
        assert [r.request.stream for r in first] == ["cam-2"]
        second = engine.run_round()
        assert [r.request.stream for r in second] == ["cam-0"]

    def test_greedy_cap_limits_per_stream_drain(self, fresh_model,
                                                frame_generator,
                                                materialized):
        windows, reference = materialized
        fleet = make_fleet(fresh_model, frame_generator)
        engine = fleet.engine
        engine.policy = GreedyDrain(max_per_stream=2)
        for round_index in range(ROUNDS):
            engine.submit(EngineRequest(op="ingest", stream="cam-0",
                                        windows=windows["cam-0"][round_index]))
        results = engine.run_round()
        assert len(results) == 2           # two FIFO waves in one round
        assert engine.queued_depths() == {"cam-0": 1}
        for round_index, result in enumerate(results):
            np.testing.assert_array_equal(result.event.scores,
                                          reference["cam-0"][round_index])

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

    def test_broken_policy_degrades_to_fair_service(self, fresh_model,
                                                    frame_generator,
                                                    materialized):
        """A raising policy must not wedge the engine (or, through it,
        the gateway's round loop): run_round falls back to serving each
        queue's front request and counts the failure."""
        windows, reference = materialized
        fleet = make_fleet(fresh_model, frame_generator)
        engine = fleet.engine

        class ExplodingPolicy(FairRoundRobin):
            def select(self, queues, now):
                raise RuntimeError("scheduler bug")

        engine.policy = ExplodingPolicy()
        engine.submit(EngineRequest(op="ingest", stream="cam-0",
                                    windows=windows["cam-0"][0]))
        results = engine.run_round()
        assert [r.kind for r in results] == ["event"]
        np.testing.assert_array_equal(results[0].event.scores,
                                      reference["cam-0"][0])
        assert not engine.has_pending()
        assert engine.metrics.to_dict()["counters"][
            "engine.policy_errors"] == 1

    def test_stale_policy_selection_is_ignored(self, fresh_model,
                                               frame_generator,
                                               materialized):
        """A policy returning request objects that are not actually
        queued (stale echoes) must not serve-without-dequeuing."""
        windows, reference = materialized
        fleet = make_fleet(fresh_model, frame_generator)
        engine = fleet.engine
        stale = EngineRequest(op="ingest", stream="cam-0",
                              windows=windows["cam-0"][1])

        class StalePolicy(FairRoundRobin):
            def select(self, queues, now):
                plan = super().select(queues, now)
                plan.entries.append(stale)  # never submitted
                return plan

        engine.policy = StalePolicy()
        engine.submit(EngineRequest(op="ingest", stream="cam-0",
                                    windows=windows["cam-0"][0]))
        results = engine.run_round()
        assert len(results) == 1
        np.testing.assert_array_equal(results[0].event.scores,
                                      reference["cam-0"][0])
        assert not engine.has_pending()


class TestPolicyUnits:
    def _queues(self, *requests):
        queues: dict[str, list] = {}
        for request in requests:
            queues.setdefault(request.stream, []).append(request)
        return {name: tuple(q) for name, q in queues.items()}

    def _request(self, stream, priority=0, deadline=None, queued_at=0.0):
        return EngineRequest(op="ingest", stream=stream,
                             windows=np.zeros((1, 2, 3)),
                             priority=priority, deadline=deadline,
                             queued_at=queued_at)

    def test_fair_takes_one_per_stream_in_arrival_order(self):
        a0, a1 = self._request("a"), self._request("a")
        b0 = self._request("b")
        plan = FairRoundRobin().select(self._queues(a0, a1, b0), now=0.0)
        assert plan.entries == [a0, b0]
        assert plan.expired == []

    def test_greedy_drains_up_to_cap(self):
        a = [self._request("a") for _ in range(3)]
        plan = GreedyDrain(max_per_stream=2).select(self._queues(*a), 0.0)
        assert plan.entries == a[:2]
        assert GreedyDrain().select(self._queues(*a), 0.0).entries == a

    def test_priority_orders_and_expires(self):
        stale = self._request("a", deadline=5.0)
        live = self._request("a", priority=1, queued_at=2.0)
        urgent = self._request("b", priority=9, queued_at=3.0)
        plan = PriorityAdmission().select(self._queues(stale, live, urgent),
                                          now=10.0)
        assert plan.expired == [stale]
        assert plan.entries == [urgent, live]

    def test_priority_breaks_ties_by_queue_age(self):
        older = self._request("a", queued_at=1.0)
        newer = self._request("b", queued_at=2.0)
        plan = PriorityAdmission().select(self._queues(newer, older), 5.0)
        assert plan.entries == [older, newer]

    def test_resolve_policy(self):
        assert isinstance(resolve_policy(None), FairRoundRobin)
        assert isinstance(resolve_policy("greedy"), GreedyDrain)
        custom = PriorityAdmission(max_streams=2)
        assert resolve_policy(custom) is custom
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            resolve_policy("lifo")
        with pytest.raises(ValueError):
            GreedyDrain(max_per_stream=0)
        with pytest.raises(ValueError):
            PriorityAdmission(max_streams=0)
