"""Crash recovery tests: durable serving -> kill -> replay -> parity.

The acceptance property: a fleet served through :class:`WalDurability`,
"crashed" (abandoned without a clean close), and rebuilt by
:func:`recover_fleet` produces **bit-identical** per-stream scores to an
uninterrupted run, with queued-but-unserved requests replayed in FIFO
order and the recovered fleet continuing exactly where the reference
is.  Plus: snapshot-then-truncate bounds, skip replay, membership
changes that reach the log through snapshots, watermark semantics,
``repro recover``, the gateway's ``wal_dir`` integration, and every
refusal path.
"""

import numpy as np
import pytest

from repro import cli
from repro.api import Deployment
from repro.data import FrameGenerator, TrendShiftConfig, TrendShiftStream
from repro.errors import DurabilityError, RecoveryError
from repro.metrics import MetricsRegistry
from repro.runtime import AdmissionError, EngineRequest
from repro.serving import DeploymentFleet
from repro.wal import (
    SnapshotPolicy,
    WalConfig,
    WalDurability,
    infra_for_fleet,
    ingest_record,
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


def crash_with_queued_tail(fleet, windows, wal_dir):
    """Serve two rounds durably (snapshotting after the second), then
    log round 3 without serving it: the "crash" (no close, no parting
    snapshot) happens with it still queued.  Returns the served scores."""
    durability = make_durable(fleet, wal_dir,
                              policy=SnapshotPolicy(every_rounds=2))
    served = serve_rounds(fleet, windows, count=2)
    for name in fleet.names:
        fleet.engine.submit(EngineRequest(
            op="ingest", stream=name, windows=windows[name][2]))
    durability.wal.flush()   # the appends were group-committed
    return served


class TestCrashRecoveryParity:
    """The acceptance criterion."""

    def test_inline_parity(self, fleet_factory, materialized, tmp_path):
        windows, reference = materialized
        served = crash_with_queued_tail(fleet_factory(), windows, tmp_path)
        # SIGKILL stand-in: nothing shuts down before recovery.
        fleet, report = recover_fleet(tmp_path)
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

    def test_a_snapshot_carrying_shard_keys_recovers(
            self, fleet_factory, materialized, tmp_path):
        """A log the former sharded fleet wrote: each snapshot's fleet
        payload is the plain format plus a ``"shards"`` hint and an
        ``"infra"`` section.  It recovers to the reference's bits."""
        windows, reference = materialized
        fleet = fleet_factory()
        to_dict = fleet.to_dict
        fleet.to_dict = lambda blobs=None: {
            **to_dict(blobs=blobs), "shards": 2,
            "infra": infra_for_fleet(fleet).to_payload()}
        crash_with_queued_tail(fleet, windows, tmp_path)
        snapshots = [record["fleet"] for record in read_records(tmp_path)
                     if record["kind"] == "snapshot"]
        assert snapshots and all(payload["shards"] == 2
                                 for payload in snapshots)
        recovered, report = recover_fleet(tmp_path)
        for name, scores in report.scores.items():
            assert np.array_equal(scores[-1], reference[name][2])
        events = recovered.ingest_round(
            {name: windows[name][3] for name in recovered.names})
        for name, event in events.items():
            assert np.array_equal(event.scores, reference[name][3])

    def test_a_non_default_generator_survives_recovery(
            self, fresh_model, embedding_model, tmp_path):
        """The snapshot's FleetInfra carries the frame generator's
        hyperparameters, so recovered streams emit the frames the live
        ones would have."""
        generator = FrameGenerator(embedding_model, seed=5,
                                   sensor_noise=0.2, concepts_per_frame=2)

        def make():
            fleet = DeploymentFleet()
            model = fresh_model("Stealing", window=4)
            model.eval()
            for index in range(2):
                fleet.add(f"cam-{index}",
                          Deployment(model, mission="Stealing",
                                     adaptive=False),
                          make_stream(generator, seed=60 + index))
            return fleet

        fleet, reference = make(), make()
        durability = make_durable(fleet, tmp_path)
        fleet.step()
        reference.step()
        durability.snapshot(fleet.engine)
        recovered, _ = recover_fleet(tmp_path)
        rebuilt = recovered.slots[0].stream.generator
        assert (rebuilt.sensor_noise, rebuilt.concepts_per_frame) == (0.2, 2)
        rounds = 0
        for ours, theirs in zip(recovered.serve(), reference.serve(),
                                strict=True):
            assert [event.stream for event in ours] \
                == [event.stream for event in theirs]
            for a, b in zip(ours, theirs):
                assert np.array_equal(a.scores, b.scores)
            rounds += 1
        assert rounds == 3

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

    @pytest.mark.parametrize("pipeline", [False, True],
                             ids=["serial", "pipelined"])
    def test_unscoreable_ingest_replays_as_skip(self, fleet_factory,
                                                tmp_path, pipeline):
        """A request that errors in its round reaches the commit as a
        ``skip`` record: logged at admission, never applied — whether
        the round thread or the committer thread commits it."""
        fleet = fleet_factory()
        durability = make_durable(fleet, tmp_path)
        engine = fleet.engine
        delivered = []
        engine.pipeline = pipeline
        engine.on_commit = delivered.extend
        name = fleet.names[0]
        engine.submit(EngineRequest(
            op="ingest", stream=name,
            windows=np.zeros((1, 4, 7))))   # a frame_dim no model scores
        results = engine.run_round()
        if pipeline:
            assert results == []
            assert engine.drain_commits(timeout=30.0)
            engine.stop_committer()
            results = delivered
        assert [r.code for r in results] == ["bad_request"]
        durability.wal.flush()
        recovered, report = recover_fleet(tmp_path)
        assert report.skipped == 1 and report.replayed == 0


class TestMembershipReplay:
    """Membership reaches the log only through snapshots: a stream that
    joins or leaves is recovered from the next snapshot after it."""

    def test_add_and_remove_recover_through_a_snapshot(
            self, fleet_factory, fresh_model, frame_generator, materialized,
            tmp_path):
        windows, _ = materialized
        fleet = fleet_factory()
        durability = make_durable(fleet, tmp_path)
        # A new stream joins mid-run, an original one leaves, and the
        # snapshot between rounds makes both durable.
        model = fresh_model("Stealing", window=4)
        model.eval()
        deployment = Deployment(model, mission="Stealing", adaptive=False)
        stream = make_stream(frame_generator, seed=90)
        joined_windows = np.asarray(stream.batch(0).windows,
                                    dtype=np.float64)
        fleet.add("cam-new", deployment, stream)
        fleet.remove("cam-0")
        durability.snapshot(fleet.engine)
        serve_rounds(fleet, {**windows, "cam-new": [joined_windows]},
                     count=1)
        durability.wal.flush()

        recovered, report = recover_fleet(tmp_path)
        assert report.replayed == 3 and report.orphaned == 0
        assert sorted(recovered.names) == ["cam-1", "cam-2", "cam-new"]
        # The joined stream replayed its round bit-identically: a
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

    def test_an_unsnapshotted_stream_is_refused_not_lost(
            self, fleet_factory, fresh_model, frame_generator, materialized,
            tmp_path):
        """Ack => recovered: a stream added with no snapshot since is
        refused at submit; before, its ingest was acked and recovery
        dropped it as orphaned."""
        windows, _ = materialized
        fleet = fleet_factory()
        make_durable(fleet, tmp_path)
        model = fresh_model("Stealing", window=4)
        model.eval()
        stream = make_stream(frame_generator, seed=90)
        fleet.add("cam-new", Deployment(model, mission="Stealing",
                                        adaptive=False), stream)
        arrivals = {name: windows[name][0] for name in windows}
        arrivals["cam-new"] = np.asarray(stream.batch(0).windows,
                                         dtype=np.float64)
        refused = []
        for name, batch in arrivals.items():
            try:
                fleet.engine.submit(EngineRequest(op="ingest", stream=name,
                                                  windows=batch))
            except AdmissionError as exc:
                refused.append((name, exc.code, exc.message))
        acked = {result.request.stream: result.event.scores
                 for result in fleet.engine.run_round()
                 if result.kind == "event"}
        # Crash: nothing closes before recovery.
        _, report = recover_fleet(tmp_path)
        for name, scores in acked.items():
            assert np.array_equal(report.scores[name][0], scores), name
        assert [(name, code) for name, code, _ in refused] == [
            ("cam-new", "unknown_stream")]
        assert "'cam-new'" in refused[0][2]
        assert "durability.snapshot(engine)" in refused[0][2]

    def test_a_removed_stream_returns_until_the_next_snapshot(
            self, fleet_factory, materialized, tmp_path):
        """The remove rule: a stream stays a member of the log until the
        next snapshot, so a recovery before it brings the stream back with
        every acked ingest; after it, the stream is gone and refused."""
        windows, _ = materialized
        fleet = fleet_factory()
        durability = make_durable(fleet, tmp_path)
        served = serve_rounds(fleet, windows, count=1)
        fleet.remove("cam-0")
        serve_rounds(fleet, windows, count=1, start=1)
        recovered, report = recover_fleet(tmp_path)
        assert sorted(recovered.names) == ["cam-0", "cam-1", "cam-2"]
        assert np.array_equal(report.scores["cam-0"][0], served["cam-0"][0])
        durability.snapshot(fleet.engine)
        recovered, _ = recover_fleet(tmp_path)
        assert sorted(recovered.names) == ["cam-1", "cam-2"]
        with pytest.raises(AdmissionError) as excinfo:
            fleet.engine.submit(EngineRequest(
                op="ingest", stream="cam-0", windows=windows["cam-0"][2]))
        assert excinfo.value.code == "unknown_stream"

    def test_shared_infrastructure_is_built_once(
            self, fleet_factory, fresh_model, frame_generator, tmp_path,
            monkeypatch):
        """The snapshotted streams and a stream that joined before the
        latest snapshot all hang off one embedding model, built once."""
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
        model = fresh_model("Stealing", window=4)
        model.eval()
        fleet.add("cam-new",
                  Deployment(model, mission="Stealing", adaptive=False),
                  make_stream(frame_generator, seed=90))
        durability.snapshot(fleet.engine)
        assert built == []

        recovered, _ = recover_fleet(tmp_path)
        with recovered:
            assert len(recovered) == 4 and len(built) == 1
            assert all(slot.deployment.model.embedding_model is built[0]
                       for slot in recovered.slots)

    def test_pre_snapshot_churn_does_not_regress_snapshot(
            self, fleet_factory, fresh_model, frame_generator,
            materialized, tmp_path):
        windows, _ = materialized
        fleet = fleet_factory()
        durability = make_durable(fleet, tmp_path)
        victim, waiting = fleet.names[0], fleet.names[1]
        # A queued-but-unserved request admitted first: its seq bounds
        # truncation, so every later snapshot — including the ones the
        # churn below takes — is still in the retained log at the crash.
        fleet.engine.submit(EngineRequest(
            op="ingest", stream=waiting, windows=windows[waiting][0]))
        # Churn: the victim leaves and rejoins with a fresh deployment,
        # each change made durable by a snapshot...
        fleet.remove(victim)
        durability.snapshot(fleet.engine)
        model = fresh_model("Stealing", window=4)
        model.eval()
        deployment = Deployment(model, mission="Stealing", adaptive=False)
        stream = make_stream(frame_generator, seed=60)
        fleet.add(victim, deployment, stream)
        durability.snapshot(fleet.engine)
        # ...then advances past its rejoin-time state: one served,
        # applied, acked ingest before the latest snapshot captures it.
        seq = durability.record_submit(EngineRequest(
            op="ingest", stream=victim, windows=windows[victim][0]))
        fleet.ingest_round({victim: windows[victim][0]})
        durability.record_applied(victim, seq)
        durability.snapshot(fleet.engine)
        durability.wal.flush()

        kinds = [r["kind"] for r in read_records(tmp_path)]
        assert kinds.count("snapshot") >= 3, kinds
        recovered, report = recover_fleet(tmp_path)
        # Only the latest snapshot's membership counts: the retained
        # earlier snapshots must not reset the victim to its rejoin-time
        # state while its watermark-covered ingest stays un-reapplied.
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
        # never existed; record_submit would refuse it, so it is appended
        # by hand): replay must drop it, not crash.
        durability.wal.append(ingest_record("ghost",
                                            windows[fleet.names[0]][0]))
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
        missing = tmp_path / "typo" / "fresh"
        with pytest.raises(RecoveryError, match="no such WAL directory"):
            recover_fleet(missing)
        assert not (tmp_path / "typo").exists()
        # An existing directory without a log is no WAL either.
        missing.mkdir(parents=True)
        with pytest.raises(RecoveryError, match="no snapshot"):
            recover_fleet(missing)

    @pytest.mark.parametrize("record", [
        {"kind": "attach", "entry": {"name": "cam-new"}},
        {"kind": "detach", "stream": "cam-0"},
    ], ids=["attach", "detach"])
    def test_membership_records_are_refused(self, fleet_factory, tmp_path,
                                            record):
        """A log from a version that wrote attach/detach records is
        refused with the unknown-kind error, by the library and the CLI
        alike, rather than recovered with its membership changes lost."""
        durability = make_durable(fleet_factory(), tmp_path)
        durability.wal.append(dict(record), sync=True)
        with pytest.raises(RecoveryError,
                           match=f"unknown WAL record kind '{record['kind']}'"
                           ) as excinfo:
            recover_fleet(tmp_path)
        with pytest.raises(SystemExit) as exited:
            cli.main(["recover", str(tmp_path)])
        assert exited.value.code == f"error: {excinfo.value}"

    def test_empty_fleet_cannot_derive_infra(self, tmp_path):
        with pytest.raises(DurabilityError, match="empty fleet"):
            infra_for_fleet(DeploymentFleet())


class TestRecoverCommand:
    def test_recover_verifies_and_saves(self, fleet_factory, materialized,
                                        tmp_path, capsys):
        windows, _ = materialized
        fleet = fleet_factory()
        wal_dir, saved = tmp_path / "wal", tmp_path / "recovered.json"
        crash_with_queued_tail(fleet, windows, wal_dir)

        assert cli.main(["recover", str(wal_dir), "--verify",
                         "--save", str(saved)]) == 0
        assert "verified" in capsys.readouterr().out
        # The live fleet serves its queued tail, which recovery replayed;
        # then both serve the next round to the same bits.
        tail = fleet.engine.run_round()
        assert [r.kind for r in tail] == ["event"] * len(fleet.names)
        batch = {name: windows[name][3] for name in fleet.names}
        live = fleet.ingest_round(batch)
        with DeploymentFleet.load(saved, *infra_for_fleet(fleet).build()) \
                as recovered:
            ours = recovered.ingest_round(batch)
        assert sorted(ours) == sorted(live)
        for name, event in live.items():
            assert ours[name].step == event.step
            assert np.array_equal(ours[name].scores, event.scores)


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
