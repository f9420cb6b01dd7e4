"""Crash recovery tests: durable serving -> kill -> replay -> parity.

The acceptance property: a fleet served through :class:`WalDurability`,
"crashed" (abandoned without a clean close), and rebuilt by
:func:`recover_fleet` produces **bit-identical** per-stream scores to an
uninterrupted run — for both the inline and the sharded rebuild, with
queued-but-unserved requests replayed in FIFO order and the recovered
fleet continuing exactly where the reference is.  Plus: snapshot-then-
truncate bounds, skip/attach/detach replay, watermark semantics, the
gateway's ``wal_dir`` integration, and every refusal path.
"""

import numpy as np
import pytest

from repro.api import Deployment
from repro.data import TrendShiftConfig, TrendShiftStream
from repro.errors import DurabilityError, RecoveryError
from repro.metrics import MetricsRegistry
from repro.runtime import AdmissionError, EngineRequest
from repro.serving import DeploymentFleet, ShardedFleet
from repro.wal import (
    SnapshotPolicy,
    WalConfig,
    WalDurability,
    infra_for_fleet,
    read_records,
    recover_fleet,
)

ROUNDS = 4


def make_stream(frame_generator, seed, windows_per_step=2):
    return TrendShiftStream(frame_generator, TrendShiftConfig(
        steps_before_shift=2, steps_after_shift=2,
        windows_per_step=windows_per_step, window=4, seed=seed))


@pytest.fixture()
def fleet_factory(fresh_model, frame_generator):
    """Deterministic fleet factory: every call rebuilds bit-identical
    models and streams, the basis of every parity assertion here."""
    def make(streams=3):
        fleet = DeploymentFleet()
        model = fresh_model("Stealing", window=4)
        model.eval()
        for index in range(streams):
            fleet.add(f"cam-{index}",
                      Deployment(model, mission="Stealing", adaptive=False),
                      make_stream(frame_generator, seed=60 + index))
        return fleet
    return make


@pytest.fixture()
def materialized(fleet_factory):
    """(windows, reference): per-stream arrivals for ROUNDS rounds and
    the scores an uninterrupted ``ingest_round`` run produces."""
    fleet = fleet_factory()
    windows = {slot.name: [np.asarray(slot.stream.batch(r).windows,
                                      dtype=np.float64)
                           for r in range(ROUNDS)]
               for slot in fleet.slots}
    reference = {name: [] for name in fleet.names}
    for round_index in range(ROUNDS):
        events = fleet.ingest_round(
            {name: windows[name][round_index] for name in fleet.names})
        for name, event in events.items():
            reference[name].append(event.scores)
    return windows, reference


def make_durable(fleet, wal_dir, **kwargs):
    kwargs.setdefault("config", WalConfig(fsync_batch=4))
    durability = WalDurability(fleet, wal_dir, **kwargs)
    fleet.engine.durability = durability
    return durability


def serve_rounds(fleet, windows, count, start=0):
    """Drive ``count`` engine rounds (one request per stream per round)
    through the queued-serving path; returns per-stream score lists."""
    served = {name: [] for name in fleet.names}
    for round_index in range(start, start + count):
        for name in fleet.names:
            fleet.engine.submit(EngineRequest(
                op="ingest", stream=name,
                windows=windows[name][round_index]))
        for result in fleet.engine.run_round():
            assert result.kind == "event", (result.code, result.message)
            served[result.request.stream].append(result.event.scores)
    return served


class TestCrashRecoveryParity:
    """The acceptance criterion, inline and sharded."""

    def crash_and_recover(self, fleet_factory, materialized, tmp_path,
                          shards=None):
        windows, reference = materialized
        fleet = fleet_factory()
        durability = make_durable(fleet, tmp_path,
                                  policy=SnapshotPolicy(every_rounds=2))
        served = serve_rounds(fleet, windows, count=2)
        # Round 3 arrives and is logged but never served: the "crash"
        # (no close, no parting snapshot) happens with it still queued.
        for name in fleet.names:
            fleet.engine.submit(EngineRequest(
                op="ingest", stream=name, windows=windows[name][2]))
        durability.wal.flush()   # the appends were group-committed
        del fleet, durability    # SIGKILL stand-in: nothing shuts down

        recovered, report = recover_fleet(tmp_path, shards=shards)
        return windows, reference, served, recovered, report

    def test_inline_parity(self, fleet_factory, materialized, tmp_path):
        windows, reference, served, fleet, report = self.crash_and_recover(
            fleet_factory, materialized, tmp_path)
        # What the live fleet served matched the reference bit-for-bit.
        for name in served:
            for got, want in zip(served[name], reference[name]):
                assert np.array_equal(got, want)
        # The queued round-3 requests replayed to the reference's bits.
        assert report.replayed == len(reference) > 0
        for name, scores in report.scores.items():
            assert np.array_equal(scores[-1], reference[name][2])
        # And the recovered fleet continues exactly where reference is.
        events = fleet.ingest_round(
            {name: windows[name][3] for name in fleet.names})
        for name, event in events.items():
            assert np.array_equal(event.scores, reference[name][3])

    def test_sharded_parity(self, fleet_factory, materialized, tmp_path):
        windows, reference, served, fleet, report = self.crash_and_recover(
            fleet_factory, materialized, tmp_path, shards=2)
        assert isinstance(fleet, ShardedFleet)
        with fleet:
            for name, scores in report.scores.items():
                assert np.array_equal(scores[-1], reference[name][2])
            events = fleet.ingest_round(
                {name: windows[name][3] for name in fleet.names})
            for name, event in events.items():
                assert np.array_equal(event.scores, reference[name][3])

    def test_clean_close_leaves_nothing_to_replay(self, fleet_factory,
                                                  materialized, tmp_path):
        windows, reference = materialized
        fleet = fleet_factory()
        durability = make_durable(fleet, tmp_path)
        serve_rounds(fleet, windows, count=2)
        durability.close(fleet.engine)   # parting snapshot covers it all
        recovered, report = recover_fleet(tmp_path)
        assert report.replayed == 0
        events = recovered.ingest_round(
            {name: windows[name][2] for name in recovered.names})
        for name, event in events.items():
            assert np.array_equal(event.scores, reference[name][2])


class TestSnapshotTruncate:
    def test_log_stays_bounded_under_snapshots(self, fleet_factory,
                                               materialized, tmp_path):
        windows, _ = materialized
        fleet = fleet_factory()
        durability = make_durable(fleet, tmp_path,
                                  policy=SnapshotPolicy(every_rounds=1))
        serve_rounds(fleet, windows, count=ROUNDS)
        # One snapshot per round: everything applied is truncated away,
        # so the retained log is just the newest snapshot's segment.
        assert durability.snapshots.snapshots_taken == ROUNDS + 1  # +genesis
        records = read_records(tmp_path)
        assert [r["kind"] for r in records] == ["snapshot"]

    def test_queued_request_survives_truncation(self, fleet_factory,
                                                materialized, tmp_path):
        windows, reference = materialized
        fleet = fleet_factory()
        durability = make_durable(fleet, tmp_path)
        served_name = fleet.names[0]
        queued_name = fleet.names[1]
        # One request queued (never served) while another stream's round
        # is served and a snapshot fires: truncation must cut at the
        # queued request's seq, not the snapshot's.
        fleet.engine.submit(EngineRequest(
            op="ingest", stream=queued_name,
            windows=windows[queued_name][0]))
        fleet.engine.submit(EngineRequest(
            op="ingest", stream=served_name,
            windows=windows[served_name][0]))
        # fair round-robin serves one request per stream per round; drain
        # only the served stream by dropping... simpler: snapshot by hand
        # with the engine supplying pending_low.
        durability.wal.flush()
        durability.snapshot(fleet.engine)
        kinds = [r["kind"] for r in read_records(tmp_path)]
        assert "ingest" in kinds, "queued request was truncated away"
        recovered, report = recover_fleet(tmp_path)
        assert report.replayed == 2
        assert np.array_equal(report.scores[queued_name][0],
                              reference[queued_name][0])

    def test_request_admitted_during_snapshot_survives(self, fleet_factory,
                                                       materialized,
                                                       tmp_path):
        windows, reference = materialized
        fleet = fleet_factory()
        durability = make_durable(fleet, tmp_path)
        name = fleet.names[0]
        wal = durability.wal
        original_rotate = wal.rotate

        def admit_then_rotate():
            # The gateway's event loop admits a request in the window
            # between the snapshot starting and its record landing: the
            # ingest appends into the active segment the rotation is
            # about to close, so its seq precedes the snapshot record's
            # and only a post-append pending_low read protects it.
            fleet.engine.submit(EngineRequest(
                op="ingest", stream=name, windows=windows[name][0]))
            return original_rotate()

        wal.rotate = admit_then_rotate
        try:
            durability.snapshot(fleet.engine)
        finally:
            wal.rotate = original_rotate
        kinds = [r["kind"] for r in read_records(tmp_path)]
        assert "ingest" in kinds, "racing admission was truncated away"
        recovered, report = recover_fleet(tmp_path)
        assert report.replayed == 1
        assert np.array_equal(report.scores[name][0], reference[name][0])

    def test_watermarks_advance_with_served_rounds(self, fleet_factory,
                                                   materialized, tmp_path):
        windows, _ = materialized
        fleet = fleet_factory()
        durability = make_durable(fleet, tmp_path)
        assert durability.applied_watermarks == {}
        serve_rounds(fleet, windows, count=1)
        marks = durability.applied_watermarks
        assert sorted(marks) == sorted(fleet.names)
        serve_rounds(fleet, windows, count=1, start=1)
        later = durability.applied_watermarks
        assert all(later[name] > marks[name] for name in marks)


class TestSkipRecords:
    def test_dropped_requests_replay_as_skips(self, fleet_factory,
                                              materialized, tmp_path):
        windows, reference = materialized
        fleet = fleet_factory()
        durability = make_durable(fleet, tmp_path)
        victim = fleet.names[0]
        for name in fleet.names:
            fleet.engine.submit(EngineRequest(
                op="ingest", stream=name, windows=windows[name][0]))
        # The victim's connection dies before its request is served.
        dropped = fleet.engine.drop_pending(lambda r: r.stream == victim)
        assert len(dropped) == 1
        for result in fleet.engine.run_round():
            assert result.kind == "event"
        durability.wal.flush()

        recovered, report = recover_fleet(tmp_path)
        assert report.skipped == 1
        assert victim not in report.scores
        # The skipped stream did not consume its deployment state: its
        # next window scores as the reference's round-0, not round-1.
        events = recovered.ingest_round({victim: windows[victim][0]})
        assert np.array_equal(events[victim].scores, reference[victim][0])

    def test_expired_deadline_replays_as_skip(self, fleet_factory,
                                              materialized, tmp_path):
        from repro.runtime import PriorityAdmission
        windows, _ = materialized
        fleet = fleet_factory()
        durability = make_durable(fleet, tmp_path)
        fleet.engine.policy = PriorityAdmission()  # the deadline-aware one
        name = fleet.names[0]
        fleet.engine.submit(EngineRequest(
            op="ingest", stream=name, windows=windows[name][0],
            deadline=fleet.engine.now() - 1.0))   # already expired
        results = fleet.engine.run_round()
        assert [r.code for r in results] == ["expired"]
        durability.wal.flush()
        recovered, report = recover_fleet(tmp_path)
        assert report.skipped == 1 and report.replayed == 0


class TestMembershipReplay:
    def test_attach_detach_replay(self, fleet_factory, fresh_model,
                                  frame_generator, materialized, tmp_path):
        windows, reference = materialized
        fleet = fleet_factory()
        durability = make_durable(fleet, tmp_path)
        # A new stream joins mid-run (logged), an original one leaves.
        model = fresh_model("Stealing", window=4)
        model.eval()
        deployment = Deployment(model, mission="Stealing", adaptive=False)
        stream = make_stream(frame_generator, seed=90)
        joined_windows = np.asarray(stream.batch(0).windows,
                                    dtype=np.float64)
        fleet.add("cam-new", deployment, stream)
        durability.record_attach("cam-new", deployment, stream)
        fleet.remove("cam-0")
        durability.record_detach("cam-0")
        serve_rounds(fleet, {**windows, "cam-new": [joined_windows]},
                     count=1)
        durability.wal.flush()

        recovered, report = recover_fleet(tmp_path)
        assert report.attached == 1 and report.detached == 1
        assert sorted(recovered.names) == ["cam-1", "cam-2", "cam-new"]
        # The re-attached stream replayed its round bit-identically: a
        # from-scratch replica of the joined deployment scores the same
        # windows to the same bits.
        twin = DeploymentFleet()
        twin_model = fresh_model("Stealing", window=4)
        twin_model.eval()
        twin.add("cam-new",
                 Deployment(twin_model, mission="Stealing", adaptive=False),
                 make_stream(frame_generator, seed=90))
        twin_events = twin.ingest_round({"cam-new": joined_windows})
        assert np.array_equal(report.scores["cam-new"][0],
                              twin_events["cam-new"].scores)

    @pytest.mark.parametrize("shards, attach, builds", [
        (None, True, 1), (None, False, 1), (2, True, 1), (2, False, 0)])
    def test_shared_infrastructure_is_built_once(
            self, fleet_factory, fresh_model, frame_generator, tmp_path,
            monkeypatch, shards, attach, builds):
        """Snapshotted streams and a stream attached after the snapshot
        hang off one embedding model; a sharded recovery (whose workers
        build their own) builds a parent-side one for such an attach only."""
        from repro.embedding import joint_space
        built = []
        build = joint_space.build_default_embedding_model

        def counting_build(**kwargs):
            built.append(build(**kwargs))
            return built[-1]

        monkeypatch.setattr(joint_space, "build_default_embedding_model",
                            counting_build)
        fleet = fleet_factory()
        durability = make_durable(fleet, tmp_path)
        if attach:
            model = fresh_model("Stealing", window=4)
            model.eval()
            deployment = Deployment(model, mission="Stealing", adaptive=False)
            stream = make_stream(frame_generator, seed=90)
            fleet.add("cam-new", deployment, stream)
            durability.record_attach("cam-new", deployment, stream)
        durability.wal.flush()
        assert built == []

        recovered, report = recover_fleet(tmp_path, shards=shards)
        try:
            assert report.attached == attach and len(recovered) == 3 + attach
            assert len(built) == builds
            if shards is None:
                assert all(slot.deployment.model.embedding_model is built[0]
                           for slot in recovered.slots)
        finally:
            recovered.close()

    def test_pre_snapshot_churn_does_not_regress_snapshot(
            self, fleet_factory, fresh_model, frame_generator,
            materialized, tmp_path):
        windows, _ = materialized
        fleet = fleet_factory()
        durability = make_durable(fleet, tmp_path)
        victim, waiting = fleet.names[0], fleet.names[1]
        # A queued-but-unserved request admitted first: its seq bounds
        # truncation, so every later record — including the churn below
        # — is still in the retained log when the snapshot fires.
        fleet.engine.submit(EngineRequest(
            op="ingest", stream=waiting, windows=windows[waiting][0]))
        # Churn: the victim leaves and rejoins with a fresh deployment...
        fleet.remove(victim)
        durability.record_detach(victim)
        model = fresh_model("Stealing", window=4)
        model.eval()
        deployment = Deployment(model, mission="Stealing", adaptive=False)
        stream = make_stream(frame_generator, seed=60)
        fleet.add(victim, deployment, stream)
        durability.record_attach(victim, deployment, stream)
        # ...then advances past its attach-time state: one served,
        # applied, acked ingest before the snapshot captures it.
        seq = durability.record_submit(EngineRequest(
            op="ingest", stream=victim, windows=windows[victim][0]))
        fleet.ingest_round({victim: windows[victim][0]})
        durability.record_applied(victim, seq)
        durability.snapshot(fleet.engine)
        durability.wal.flush()

        recovered, report = recover_fleet(tmp_path)
        # The retained pre-snapshot detach/attach pair must not replay:
        # the snapshot already reflects it, and replaying would reset
        # the victim to attach-time state while its watermark-covered
        # ingest stays un-reapplied — a stream staler than the snapshot.
        assert report.attached == 0 and report.detached == 0
        assert report.covered == 1      # the victim's pre-snapshot ingest
        assert report.replayed == 1     # the still-waiting request
        live = fleet.ingest_round({victim: windows[victim][1]})[victim]
        replayed = recovered.ingest_round({victim: windows[victim][1]})[victim]
        assert replayed.step == live.step
        assert np.array_equal(replayed.scores, live.scores)

    def test_orphaned_ingest_is_counted_not_fatal(self, fleet_factory,
                                                  materialized, tmp_path):
        windows, _ = materialized
        fleet = fleet_factory()
        durability = make_durable(fleet, tmp_path)
        # An ingest logged for a stream the snapshot does not know (it
        # never existed): replay must drop it, not crash.
        durability.record_submit(EngineRequest(
            op="ingest", stream="ghost", windows=windows[fleet.names[0]][0]))
        durability.wal.flush()
        recovered, report = recover_fleet(tmp_path)
        assert report.orphaned == 1 and report.replayed == 0


class FailingCommitDurability:
    """A ``repro.runtime.DurabilityHook`` whose group commit always
    fails, the shape of an ENOSPC/I/O error at fsync time."""

    def __init__(self):
        self.next_seq = 0

    def record_submit(self, request):
        seq = self.next_seq
        self.next_seq += 1
        return seq

    def record_applied(self, stream, seq):
        pass

    def record_skip(self, seq):
        pass

    def flush(self, trace_parent=None):
        raise DurabilityError("group-commit fsync failed: no space left")

    def snapshot_due(self, rounds):
        return False

    def snapshot(self, engine):
        raise AssertionError("a latched engine must never snapshot")


class TestCommitFailure:
    """A failed group commit must fail the acks it was meant to back —
    never return results for ingests that are not on disk."""

    def test_failed_commit_fails_acks_and_latches(self, fleet_factory,
                                                  materialized):
        windows, _ = materialized
        fleet = fleet_factory()
        engine = fleet.engine
        engine.durability = FailingCommitDurability()
        for name in fleet.names:
            engine.submit(EngineRequest(
                op="ingest", stream=name, windows=windows[name][0]))
        results = engine.run_round()
        assert len(results) == len(fleet.names)
        assert all(r.kind == "error" and r.code == "durability"
                   for r in results)
        assert engine.metrics.counter(
            "engine.durability_errors").value == 1
        # Latched: further ingests are refused at the door with a typed
        # admission error instead of riding an untrustworthy log.
        with pytest.raises(AdmissionError) as excinfo:
            engine.submit(EngineRequest(
                op="ingest", stream=fleet.names[0],
                windows=windows[fleet.names[0]][0]))
        assert excinfo.value.code == "durability"

    def test_latched_engine_still_serves_stateless_scores(self,
                                                          fleet_factory,
                                                          materialized):
        windows, _ = materialized
        fleet = fleet_factory()
        engine = fleet.engine
        engine.durability = FailingCommitDurability()
        name = fleet.names[0]
        engine.submit(EngineRequest(
            op="ingest", stream=name, windows=windows[name][0]))
        assert all(r.code == "durability" for r in engine.run_round())
        # Score-only requests promise nothing about the log: they are
        # admitted and served normally on a latched engine.
        engine.submit(EngineRequest(
            op="scores", stream=name, windows=windows[name][0]))
        results = engine.run_round()
        assert [r.kind for r in results] == ["scores"]
        # The latch never re-touches the failed WAL: one error counted.
        assert engine.metrics.counter(
            "engine.durability_errors").value == 1


class TestRefusals:
    def test_non_empty_dir_refused(self, fleet_factory, tmp_path):
        fleet = fleet_factory()
        durability = make_durable(fleet, tmp_path)
        durability.close(fleet.engine)
        with pytest.raises(DurabilityError, match="repro recover"):
            WalDurability(fleet_factory(), tmp_path)
        # The refusal also satisfies legacy RuntimeError call sites.
        with pytest.raises(RuntimeError):
            WalDurability(fleet_factory(), tmp_path)

    def test_recover_without_snapshot_raises(self, tmp_path):
        from repro.wal import WriteAheadLog, ingest_record
        with WriteAheadLog(tmp_path) as wal:
            wal.append(ingest_record("cam-0", np.zeros((1, 2, 3))),
                       sync=True)
        with pytest.raises(RecoveryError, match="no snapshot"):
            recover_fleet(tmp_path)

    def test_recover_empty_dir_raises(self, tmp_path):
        with pytest.raises(RecoveryError, match="no snapshot"):
            recover_fleet(tmp_path / "fresh")

    def test_empty_fleet_cannot_derive_infra(self, tmp_path):
        with pytest.raises(DurabilityError, match="empty fleet"):
            infra_for_fleet(DeploymentFleet())


class TestGatewayIntegration:
    def test_wal_dir_served_gateway_recovers(self, fleet_factory,
                                             materialized, tmp_path):
        from repro.gateway import GatewayClient, serve_in_thread
        windows, reference = materialized
        metrics = MetricsRegistry()
        with fleet_factory() as fleet, \
                serve_in_thread(fleet, wal_dir=tmp_path,
                                wal_config=WalConfig(fsync_batch=4),
                                metrics=metrics) as handle:
            with GatewayClient(*handle.address) as client:
                for name in windows:
                    client.attach(name)
                for round_index in range(2):
                    for name in windows:
                        reply = client.ingest(name,
                                              windows[name][round_index])
                        assert np.array_equal(
                            reply["scores_array"],
                            reference[name][round_index])
        # Acks implied fsyncs happened before results left run_round.
        assert metrics.counter("wal.fsyncs").value > 0
        assert metrics.counter("engine.durability_errors").value == 0

        recovered, report = recover_fleet(tmp_path)
        assert sorted(recovered.names) == sorted(windows)
        # Clean drain closed with a parting snapshot: nothing replays,
        # and the recovered fleet continues bit-identically.
        assert report.replayed == 0
        events = recovered.ingest_round(
            {name: windows[name][2] for name in recovered.names})
        for name, event in events.items():
            assert np.array_equal(event.scores, reference[name][2])
