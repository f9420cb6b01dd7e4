"""Tests for pipelined serving rounds: async group-commit acks and the
fused score/ingest scatter.

The load-bearing properties:

* **Ack-after-fsync, overlapped** — a pipelined engine's ``run_round``
  returns immediately and results arrive via ``on_commit`` only after
  the committer thread's group-commit fsync; a crash after handoff but
  before the fsync loses nothing that was acked and replays nothing
  acked twice.
* **FIFO + parity** — commit batches deliver strictly in round order,
  and pipelined scores stay bit-identical to a serial engine's over the
  same windows.
* **Failure latching** — one failed fsync fails that batch *and* every
  batch queued behind it with typed ``durability`` errors, and latches
  admission shut.
* **One wave primitive** — ``serve_round`` produces bit-identical
  scores to the split score/ingest pair, one ring round-trip per shard
  per wave (the mixed-wave isolation contract lives in
  ``test_runtime_engine.py::TestBackendPolicyParityMatrix``).
* **Always-on stage timings** — every ``engine.stage.*`` histogram
  fills on every round, with no recorder attached.
"""

import shutil
import threading

import numpy as np
import pytest

from repro.api import Deployment
from repro.data import TrendShiftConfig, TrendShiftStream
from repro.errors import DurabilityError
from repro.runtime import AdmissionError, EngineRequest
from repro.serving import DeploymentFleet, FleetInfra, ShardedFleet
from repro.wal import WalConfig, WalDurability, recover_fleet

INFRA = FleetInfra(embedding_seed=7, generator_seed=5)
ROUNDS = 3


def make_stream(frame_generator, seed, windows_per_step=2):
    return TrendShiftStream(frame_generator, TrendShiftConfig(
        steps_before_shift=2, steps_after_shift=2,
        windows_per_step=windows_per_step, window=4, seed=seed))


def make_fleet(fresh_model, frame_generator, streams=3) -> DeploymentFleet:
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
    the scores a direct ``fleet.step()`` run produces."""
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


def pipelined(fleet, sink=None):
    """Flip a fleet's engine into pipelined mode with ``sink`` (a list)
    collecting each committed batch."""
    engine = fleet.engine
    engine.pipeline = True
    if sink is not None:
        engine.on_commit = sink.append
    return engine


def submit_round(engine, fleet, windows, round_index):
    for name in fleet.names:
        engine.submit(EngineRequest(op="ingest", stream=name,
                                    windows=windows[name][round_index]))


class TestPipelinedEngine:
    def test_run_round_returns_empty_results_arrive_via_on_commit(
            self, fresh_model, frame_generator, materialized):
        windows, reference = materialized
        fleet = make_fleet(fresh_model, frame_generator)
        batches = []
        engine = pipelined(fleet, batches)
        for round_index in range(ROUNDS):
            submit_round(engine, fleet, windows, round_index)
            assert engine.run_round() == []
        engine.stop_committer()
        served = {name: [] for name in fleet.names}
        for batch in batches:
            for result in batch:
                assert result.kind == "event", (result.code, result.message)
                served[result.request.stream].append(result.event.scores)
        for name in fleet.names:
            assert len(served[name]) == ROUNDS
            for got, expected in zip(served[name], reference[name]):
                np.testing.assert_array_equal(got, expected)

    def test_batches_deliver_fifo(self, fresh_model, frame_generator,
                                  materialized):
        windows, _ = materialized
        fleet = make_fleet(fresh_model, frame_generator)
        batches = []
        engine = pipelined(fleet, batches)
        for round_index in range(ROUNDS):
            submit_round(engine, fleet, windows, round_index)
            engine.run_round()
        engine.stop_committer()
        assert len(batches) == ROUNDS
        # Each stream's scores replay its windows in submit order.
        for round_index, batch in enumerate(batches):
            for result in batch:
                np.testing.assert_array_equal(
                    result.request.windows,
                    windows[result.request.stream][round_index])

    def test_empty_round_commits_nothing(self, fresh_model,
                                         frame_generator):
        fleet = make_fleet(fresh_model, frame_generator)
        batches = []
        engine = pipelined(fleet, batches)
        assert engine.run_round() == []
        engine.stop_committer()
        assert batches == []

    def test_committer_restarts_after_stop(self, fresh_model,
                                           frame_generator, materialized):
        windows, _ = materialized
        fleet = make_fleet(fresh_model, frame_generator)
        batches = []
        engine = pipelined(fleet, batches)
        submit_round(engine, fleet, windows, 0)
        engine.run_round()
        engine.stop_committer()
        assert len(batches) == 1
        submit_round(engine, fleet, windows, 1)
        engine.run_round()
        engine.stop_committer()
        assert len(batches) == 2

    def test_stats_surface_pipeline_gauges(self, fresh_model,
                                           frame_generator, materialized):
        windows, _ = materialized
        fleet = make_fleet(fresh_model, frame_generator)
        engine = pipelined(fleet, [])
        submit_round(engine, fleet, windows, 0)
        engine.run_round()
        engine.stop_committer()
        stats = engine.stats()
        assert stats["pipeline"]["enabled"] is True
        assert stats["pipeline"]["commit_batches"] == 1
        assert stats["pipeline"]["commit_backlog"] == 0
        assert stats["pipeline"]["committer_queue_depth"] == 0
        serial = make_fleet(fresh_model, frame_generator)
        assert "pipeline" not in serial.engine.stats()
        serial.close()

    @pytest.mark.parametrize("stage", ["queue_wait", "schedule", "score",
                                       "ingest", "durability",
                                       "commit_wait"])
    @pytest.mark.parametrize("pipeline", [False, True],
                             ids=["serial", "pipelined"])
    @pytest.mark.parametrize("shards", [0, 2], ids=["inline", "sharded"])
    def test_stages_fill_untraced(
            self, fresh_model, frame_generator, materialized, shards,
            pipeline, stage):
        # Regression: schedule/score/ingest/durability used to be
        # observed only inside ``if tracer is not None`` blocks (and
        # queue_wait too, before PR 10); the round timeline fills every
        # stage on every round, in every cell.
        windows, _ = materialized
        fleet = make_fleet(fresh_model, frame_generator)
        if shards:
            fleet = ShardedFleet.from_fleet(fleet, shards, infra=INFRA)
        with fleet:
            engine = fleet.engine
            engine.pipeline = pipeline
            assert engine.tracer is None
            submit_round(engine, fleet, windows, 0)
            engine.run_round()
            engine.stop_committer()
            hist = engine.metrics.histogram(f"engine.stage.{stage}")
            assert hist.count == (len(fleet.names)
                                  if stage == "queue_wait" else 1)

    def test_drop_pending_predicate_called_once_per_request(
            self, fresh_model, frame_generator, materialized):
        windows, _ = materialized
        fleet = make_fleet(fresh_model, frame_generator)
        engine = fleet.engine
        for round_index in range(2):
            submit_round(engine, fleet, windows, round_index)
        calls = []
        dropped = engine.drop_pending(
            lambda request: calls.append(request) or
            request.stream == "cam-1")
        assert len(calls) == 2 * len(fleet.names)
        assert len(dropped) == 2
        assert all(r.stream == "cam-1" for r in dropped)
        assert engine.pending_count() == 2 * (len(fleet.names) - 1)


class TestDurabilityPipelined:
    def test_acks_follow_fsync_and_recover(self, fresh_model,
                                           frame_generator, materialized,
                                           tmp_path):
        windows, reference = materialized
        fleet = make_fleet(fresh_model, frame_generator)
        durability = WalDurability(fleet, tmp_path,
                                   config=WalConfig(fsync_batch=64))
        batches = []
        engine = pipelined(fleet, batches)
        engine.durability = durability
        for round_index in range(ROUNDS):
            submit_round(engine, fleet, windows, round_index)
            engine.run_round()
        engine.stop_committer()
        # No clean close: recovery sees exactly what the committer
        # fsynced, and every acked score must come back bit-identically.
        recovered, report = recover_fleet(tmp_path)
        try:
            acked = {name: [] for name in fleet.names}
            for batch in batches:
                for result in batch:
                    assert result.kind == "event"
                    acked[result.request.stream].append(result.event.scores)
            for name, scores in acked.items():
                assert len(report.scores[name]) >= len(scores)
                for got, expected in zip(report.scores[name], scores):
                    np.testing.assert_array_equal(got, expected)
        finally:
            recovered.close()

    def test_crash_between_handoff_and_fsync(self, fresh_model,
                                             frame_generator, materialized,
                                             tmp_path):
        """SIGKILL emulation: round 1 committed and acked, round 2
        handed off but stalled before its fsync.  Copying the WAL
        directory while the flush is stalled yields the post-crash disk
        image; recovery from it must replay every acked ingest
        bit-identically and the unfsynced round at most once."""
        windows, _ = materialized
        wal_dir = tmp_path / "live"
        crash_dir = tmp_path / "crash"
        fleet = make_fleet(fresh_model, frame_generator)
        durability = WalDurability(fleet, wal_dir,
                                   config=WalConfig(fsync_batch=64))
        batches = []
        engine = pipelined(fleet, batches)
        engine.durability = durability

        stall = threading.Event()
        stalled = threading.Event()
        real_flush = durability.flush

        def flush_gate(trace_parent=None):
            if batches:  # round 1 already delivered -> stall round 2
                stalled.set()
                stall.wait(10.0)
                raise DurabilityError("crashed before fsync")
            real_flush(trace_parent=trace_parent)

        durability.flush = flush_gate
        submit_round(engine, fleet, windows, 0)
        engine.run_round()
        assert engine.drain_commits(timeout=10.0)
        assert len(batches) == 1
        submit_round(engine, fleet, windows, 1)
        engine.run_round()
        assert stalled.wait(10.0)
        # The crash: freeze the on-disk state mid-commit.
        shutil.copytree(wal_dir, crash_dir)
        stall.set()
        engine.stop_committer()

        recovered, report = recover_fleet(crash_dir)
        try:
            for result in batches[0]:
                name = result.request.stream
                replayed = report.scores[name]
                # Acked round 1 survives bit-identically...
                assert len(replayed) >= 1
                np.testing.assert_array_equal(replayed[0],
                                              result.event.scores)
                # ...and the never-fsynced round 2 replays at most once.
                assert len(replayed) <= 2
        finally:
            recovered.close()
        # The stalled batch's acks failed with the typed code.
        assert len(batches) == 2
        assert all(r.kind == "error" and r.code == "durability"
                   for r in batches[1])

    def test_fsync_failure_fails_queued_batches_and_latches(
            self, fresh_model, frame_generator, materialized, tmp_path):
        windows, _ = materialized
        fleet = make_fleet(fresh_model, frame_generator)
        durability = WalDurability(fleet, tmp_path,
                                   config=WalConfig(fsync_batch=64))
        batches = []
        engine = pipelined(fleet, batches)
        engine.durability = durability

        release = threading.Event()
        entered = threading.Event()

        def failing_flush(trace_parent=None):
            entered.set()
            release.wait(10.0)
            raise DurabilityError("fsync failed")

        durability.flush = failing_flush
        submit_round(engine, fleet, windows, 0)
        engine.run_round()
        assert entered.wait(10.0)
        # Second batch queues behind the doomed first one.
        submit_round(engine, fleet, windows, 1)
        engine.run_round()
        release.set()
        engine.stop_committer()
        assert len(batches) == 2
        for batch in batches:
            assert all(r.kind == "error" and r.code == "durability"
                       for r in batch)
        with pytest.raises(AdmissionError) as excinfo:
            engine.submit(EngineRequest(
                op="ingest", stream="cam-0", windows=windows["cam-0"][2]))
        assert excinfo.value.code == "durability"

    def test_min_pending_wal_seq_covers_handed_off_batches(
            self, fresh_model, frame_generator, materialized, tmp_path):
        windows, _ = materialized
        fleet = make_fleet(fresh_model, frame_generator)
        durability = WalDurability(fleet, tmp_path,
                                   config=WalConfig(fsync_batch=64))
        batches = []
        engine = pipelined(fleet, batches)
        engine.durability = durability

        release = threading.Event()
        entered = threading.Event()
        real_flush = durability.flush

        def stalling_flush(trace_parent=None):
            entered.set()
            release.wait(10.0)
            real_flush(trace_parent=trace_parent)

        durability.flush = stalling_flush
        submit_round(engine, fleet, windows, 0)
        low_queued = engine.min_pending_wal_seq()
        assert low_queued is not None
        engine.run_round()
        assert entered.wait(10.0)
        # Queues are empty, but the batch is riding the committer: its
        # seqs must still bound snapshot truncation.
        assert not engine.has_pending()
        assert engine.min_pending_wal_seq() == low_queued
        release.set()
        engine.stop_committer()
        assert engine.min_pending_wal_seq() is None


class TestFusedScatter:
    def test_serve_round_parity_with_split_path(self, fresh_model,
                                                frame_generator,
                                                materialized):
        windows, reference = materialized
        single = make_fleet(fresh_model, frame_generator)
        with ShardedFleet.from_fleet(single, 2, infra=INFRA) as sharded:
            for round_index in range(ROUNDS):
                arrivals = {name: windows[name][round_index]
                            for name in sharded.names}
                scored, events, unscored, timings = sharded.serve_round(
                    arrivals, ingest=list(arrivals))
                assert unscored == []
                # Both shards stamped both stages, attributed.
                assert {(t["stage"], t["shard"]) for t in timings} == {
                    (stage, shard) for stage in ("score", "ingest")
                    for shard in range(2)}
                assert all(t["pid"] > 0 and t["dur"] >= 0 for t in timings)
                for name in sharded.names:
                    np.testing.assert_array_equal(
                        scored[name], reference[name][round_index])
                    np.testing.assert_array_equal(
                        events[name].scores, reference[name][round_index])
            assert sharded.transport_stats()["fused_rounds"] == ROUNDS

    def test_engine_round_uses_fused_path_untraced(self, fresh_model,
                                                   frame_generator,
                                                   materialized):
        windows, reference = materialized
        single = make_fleet(fresh_model, frame_generator)
        with ShardedFleet.from_fleet(single, 2, infra=INFRA) as sharded:
            engine = sharded.engine
            for round_index in range(ROUNDS):
                for name in sharded.names:
                    engine.submit(EngineRequest(
                        op="ingest", stream=name,
                        windows=windows[name][round_index]))
                results = engine.run_round()
                for result in results:
                    assert result.kind == "event"
                    np.testing.assert_array_equal(
                        result.event.scores,
                        reference[result.request.stream][round_index])
            assert sharded.transport_stats()["fused_rounds"] >= ROUNDS
            stats = engine.stats()
            assert stats["transport"]["fused_rounds"] >= ROUNDS
