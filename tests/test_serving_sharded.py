"""Tests for sharded fleet serving.

The load-bearing property throughout: a :class:`ShardedFleet` is
*observationally identical* to the plain
:class:`DeploymentFleet` it was partitioned from — same event order,
bit-identical scores, same checkpoints — for any shard count.
"""

import numpy as np
import pytest

from repro.api import Deployment
from repro.data import FrameGenerator, TrendShiftConfig, TrendShiftStream
from repro.serving import (DeploymentFleet, FleetInfra, ShardedFleet,
                           partition_fleet_payload)

INFRA = FleetInfra(embedding_seed=7, generator_seed=5)


def make_stream(frame_generator, seed=11, windows_per_step=3,
                before=2, after=2, window=4):
    return TrendShiftStream(frame_generator, TrendShiftConfig(
        steps_before_shift=before, steps_after_shift=after,
        windows_per_step=windows_per_step, window=window, seed=seed))


def make_single_fleet(fresh_model, frame_generator, streams=5,
                      missions=("Stealing", "Robbery"), adaptive=False,
                      **stream_kwargs) -> DeploymentFleet:
    """A mixed-mission fleet; static streams share one model per mission."""
    fleet = DeploymentFleet()
    shared = {}
    for index in range(streams):
        mission = missions[index % len(missions)]
        if adaptive:
            deployment = Deployment(fresh_model(mission, window=4),
                                    mission=mission)
        else:
            if mission not in shared:
                model = fresh_model(mission, window=4)
                model.eval()
                shared[mission] = model
            deployment = Deployment(shared[mission], mission=mission,
                                    adaptive=False)
        fleet.add(f"{mission.lower()}-{index}", deployment,
                  make_stream(frame_generator, seed=30 + index,
                              **stream_kwargs))
    return fleet


def collect_rounds(fleet, max_rounds=None):
    return [events for events in fleet.serve(max_rounds=max_rounds)]


def assert_rounds_identical(rounds_a, rounds_b):
    assert len(rounds_a) == len(rounds_b)
    for events_a, events_b in zip(rounds_a, rounds_b):
        assert [e.stream for e in events_a] == [e.stream for e in events_b]
        for a, b in zip(events_a, events_b):
            assert a.step == b.step
            assert a.mission == b.mission
            assert a.active_class == b.active_class
            np.testing.assert_array_equal(a.scores, b.scores)


class TestPartitionPayload:
    """Pure payload partitioning (no shard is built)."""

    def test_round_robin_by_stored_order(self, fresh_model, frame_generator):
        fleet = make_single_fleet(fresh_model, frame_generator, streams=5)
        parts = partition_fleet_payload(fleet.to_dict(), 2)
        assert [s["name"] for s in parts[0]["slots"]] == [
            "stealing-0", "stealing-2", "stealing-4"]
        assert [s["name"] for s in parts[1]["slots"]] == [
            "robbery-1", "robbery-3"]

    def test_models_deduplicated_within_shard(self, fresh_model,
                                              frame_generator):
        # 5 streams over 2 missions -> shard 0 holds three Stealing
        # streams sharing one model; shard 1 holds two Robbery streams.
        fleet = make_single_fleet(fresh_model, frame_generator, streams=5)
        parts = partition_fleet_payload(fleet.to_dict(), 2)
        assert len(parts[0]["models"]) == 1
        assert [s["model_index"] for s in parts[0]["slots"]] == [0, 0, 0]
        assert len(parts[1]["models"]) == 1

    def test_more_shards_than_streams_leaves_empty_shards(
            self, fresh_model, frame_generator):
        fleet = make_single_fleet(fresh_model, frame_generator, streams=2)
        parts = partition_fleet_payload(fleet.to_dict(), 4)
        assert [len(p["slots"]) for p in parts] == [1, 1, 0, 0]

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError, match="at least one shard"):
            partition_fleet_payload({"slots": [], "models": []}, 0)


class TestShardedParity:
    """Bit-parity of sharded vs single-process batched serving."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_mixed_mission_scores_bit_identical(self, fresh_model,
                                                frame_generator, shards):
        single = make_single_fleet(fresh_model, frame_generator, streams=5)
        with ShardedFleet.from_fleet(single, shards, infra=INFRA) as sharded:
            assert sharded.shards == shards
            sharded_rounds = collect_rounds(sharded)
            single_rounds = collect_rounds(single)
            assert_rounds_identical(single_rounds, sharded_rounds)
            assert sharded.rounds == single.rounds

    def test_adaptive_trajectories_bit_identical(self, fresh_model,
                                                 frame_generator):
        single = make_single_fleet(fresh_model, frame_generator, streams=3,
                                   missions=("Stealing",), adaptive=True,
                                   windows_per_step=4, before=3, after=3)
        with ShardedFleet.from_fleet(single, 2, infra=INFRA) as sharded:
            sharded_rounds = collect_rounds(sharded)
            single_rounds = collect_rounds(single)
            assert_rounds_identical(single_rounds, sharded_rounds)
            for events_a, events_b in zip(single_rounds, sharded_rounds):
                assert ([e.log.updated for e in events_a]
                        == [e.log.updated for e in events_b])
                assert ([e.log.k for e in events_a]
                        == [e.log.k for e in events_b])


class TestLifecycle:
    def test_round_robin_attach_assignment(self, fresh_model,
                                           frame_generator):
        model = fresh_model(window=4)
        model.eval()
        with ShardedFleet(2, infra=INFRA) as fleet:
            for index in range(5):
                fleet.add(f"cam-{index}",
                          Deployment(model, mission="Stealing",
                                     adaptive=False),
                          make_stream(frame_generator, seed=60 + index))
            assert fleet.assignment == {"cam-0": 0, "cam-1": 1, "cam-2": 0,
                                        "cam-3": 1, "cam-4": 0}
            assert fleet.names == [f"cam-{i}" for i in range(5)]
            assert len(fleet) == 5 and "cam-3" in fleet

    def test_added_streams_share_models_within_shard(self, fresh_model,
                                                     frame_generator):
        """Streams attached via add() keep sharing their scoring model
        inside each shard: one coalesced forward per shard per round,
        and shard snapshots store the shared model once."""
        model = fresh_model(window=4)
        model.eval()
        with ShardedFleet(2, infra=INFRA) as fleet:
            for index in range(4):
                fleet.add(f"cam-{index}",
                          Deployment(model, mission="Stealing",
                                     adaptive=False),
                          make_stream(frame_generator, seed=70 + index))
            fleet.step()
            stats = fleet.batcher_stats()
            assert stats["batches_run"] == 2   # one forward per shard
            assert stats["windows_scored"] == 12
            payload = fleet.to_dict()
            assert len(payload["models"]) == 2  # one copy per shard

    def test_attach_detach_mid_run_across_shards(self, fresh_model,
                                                 frame_generator):
        single = make_single_fleet(fresh_model, frame_generator, streams=4,
                                   missions=("Stealing",), after=4)
        model = single.slots[0].deployment.model
        with ShardedFleet.from_fleet(single, 2, infra=INFRA) as sharded:
            single.step()
            sharded.step()

            # Attach mid-run on both; the late stream joins next round.
            for fleet in (single, sharded):
                fleet.add("late",
                          Deployment(model, mission="Stealing",
                                     adaptive=False),
                          make_stream(frame_generator, seed=99))
            a, b = single.step(), sharded.step()
            assert [e.stream for e in a] == [e.stream for e in b]
            assert "late" in {e.stream for e in b}
            assert_rounds_identical([a], [b])

            # Detach returns an equivalent deployment on both sides.
            removed_single = single.remove("late")
            removed_sharded = sharded.remove("late")
            assert isinstance(removed_sharded, Deployment)
            assert removed_sharded.mission == removed_single.mission
            probe = make_stream(frame_generator, seed=1).batch(0).windows
            np.testing.assert_array_equal(removed_sharded.scores(probe),
                                          removed_single.scores(probe))
            assert "late" not in sharded
            assert_rounds_identical([single.step()], [sharded.step()])

    def test_duplicate_name_rejected(self, fresh_model, frame_generator):
        model = fresh_model(window=4)
        model.eval()
        with ShardedFleet(2, infra=INFRA) as fleet:
            fleet.add("cam", Deployment(model, adaptive=False),
                      make_stream(frame_generator, seed=1))
            with pytest.raises(ValueError, match="already attached"):
                fleet.add("cam", Deployment(model, adaptive=False),
                          make_stream(frame_generator, seed=2))

    def test_remove_missing_raises(self, frame_generator):
        with ShardedFleet(1, infra=INFRA) as fleet:
            with pytest.raises(KeyError, match="ghost"):
                fleet.remove("ghost")

    def test_plain_iterable_stream_rejected(self, fresh_model, rng):
        model = fresh_model(window=4)
        model.eval()
        with ShardedFleet(1, infra=INFRA) as fleet:
            with pytest.raises(ValueError, match="not a TrendShiftStream"):
                fleet.add("raw", Deployment(model, adaptive=False),
                          [rng.normal(size=(2, 4, 192))])

    def test_close_is_idempotent_and_final(self, frame_generator):
        fleet = ShardedFleet(1, infra=INFRA)
        fleet.close()
        fleet.close()
        with pytest.raises(RuntimeError, match="closed"):
            fleet.step()

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError, match="at least one shard"):
            ShardedFleet(0, infra=INFRA)


class TestShardedCheckpoint:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_save_load_resume_identical_remaining_rounds(
            self, fresh_model, frame_generator, tmp_path, shards):
        single = make_single_fleet(fresh_model, frame_generator, streams=5,
                                   after=3)
        with ShardedFleet.from_fleet(single, shards, infra=INFRA) as sharded:
            single.step()
            sharded.step()
            path = tmp_path / "sharded.json"
            sharded.save(path)
            with ShardedFleet.load(path, infra=INFRA) as resumed:
                assert resumed.shards == shards
                assert resumed.names == sharded.names
                assert resumed.rounds == sharded.rounds
                assert_rounds_identical(collect_rounds(single),
                                        collect_rounds(resumed))

    def test_checkpoint_loadable_by_single_process_fleet(
            self, fresh_model, frame_generator, embedding_model, tmp_path):
        """The merged checkpoint is plain fleet format: DeploymentFleet
        opens it, and the resumed run matches."""
        single = make_single_fleet(fresh_model, frame_generator, streams=4)
        with ShardedFleet.from_fleet(single, 2, infra=INFRA) as sharded:
            sharded.step()
            single.step()
            path = tmp_path / "sharded.json"
            sharded.save(path)
        restored = DeploymentFleet.load(path, embedding_model,
                                        frame_generator)
        assert restored.names == single.names
        assert_rounds_identical(collect_rounds(single),
                                collect_rounds(restored))

    def test_single_process_checkpoint_loadable_sharded(
            self, fresh_model, frame_generator, tmp_path):
        """And the reverse: a plain fleet checkpoint re-partitions across
        any shard count."""
        single = make_single_fleet(fresh_model, frame_generator, streams=4)
        single.step()
        path = tmp_path / "fleet.json"
        single.save(path)
        with ShardedFleet.load(path, shards=2, infra=INFRA) as sharded:
            assert sharded.shards == 2
            assert_rounds_identical(collect_rounds(single),
                                    collect_rounds(sharded))

    def test_adaptive_checkpoint_resume(self, fresh_model, frame_generator,
                                        tmp_path):
        single = make_single_fleet(fresh_model, frame_generator, streams=2,
                                   missions=("Stealing",), adaptive=True,
                                   windows_per_step=4, before=2, after=3)
        with ShardedFleet.from_fleet(single, 2, infra=INFRA) as sharded:
            single.step()
            sharded.step()
            path = tmp_path / "adaptive.json"
            sharded.save(path)
            with ShardedFleet.load(path, infra=INFRA) as resumed:
                assert_rounds_identical(collect_rounds(single),
                                        collect_rounds(resumed))

    def test_bad_version_rejected(self):
        with pytest.raises(ValueError, match="format version"):
            ShardedFleet.from_dict({"fleet_format_version": 99})


class TestInfraFidelity:
    """A restored fleet must rebuild the exact same frame-generation
    setup its streams were built over — or fail fast, never silently
    diverge."""

    def test_mismatched_generator_rejected_at_add(self, fresh_model,
                                                  embedding_model,
                                                  frame_generator):
        model = fresh_model(window=4)
        model.eval()
        noisy = FrameGenerator(embedding_model, seed=5, sensor_noise=0.9)
        with ShardedFleet(1, infra=INFRA) as fleet:  # default-params infra
            with pytest.raises(ValueError, match="hyperparameters"):
                fleet.add("cam", Deployment(model, adaptive=False),
                          make_stream(noisy, seed=1))

    def test_non_default_generator_parity(self, fresh_model,
                                          embedding_model):
        """from_fleet derives the generator hyperparameters, so a fleet
        over a non-default generator still shards bit-identically."""
        generator = FrameGenerator(embedding_model, seed=5,
                                   sensor_noise=0.2, concepts_per_frame=2)
        single = make_single_fleet(fresh_model, generator, streams=3,
                                   missions=("Stealing",))
        with ShardedFleet.from_fleet(single, 2) as sharded:
            assert sharded.infra.generator_params["sensor_noise"] == 0.2
            assert_rounds_identical(collect_rounds(single),
                                    collect_rounds(sharded))

    def test_worker_startup_failure_reports_cause(self, fresh_model,
                                                  frame_generator,
                                                  tmp_path):
        single = make_single_fleet(fresh_model, frame_generator, streams=2)
        with ShardedFleet.from_fleet(single, 1, infra=INFRA) as sharded:
            path = tmp_path / "fleet.json"
            sharded.save(path)
        # Wrong embedding seed: the shard cannot be built over the
        # deployment's stored embedding fingerprint, and the first
        # request must say so.
        bad = ShardedFleet.load(path, infra=FleetInfra(embedding_seed=1))
        try:
            with pytest.raises(RuntimeError, match="startup failed.*embedding"):
                bad.step()
        finally:
            bad.close()

    def test_checkpoint_is_self_describing(self, fresh_model,
                                           embedding_model, tmp_path):
        """save() stores the FleetInfra, so load() needs no arguments
        even for non-default generator hyperparameters."""
        generator = FrameGenerator(embedding_model, seed=5, sensor_noise=0.2)
        single = make_single_fleet(fresh_model, generator, streams=2,
                                   missions=("Stealing",))
        with ShardedFleet.from_fleet(single, 2) as sharded:
            sharded.step()
            single.step()
            path = tmp_path / "fleet.json"
            sharded.save(path)
            saved_infra = sharded.infra
        with ShardedFleet.load(path) as resumed:
            assert resumed.infra == saved_infra
            assert_rounds_identical(collect_rounds(single),
                                    collect_rounds(resumed))


class TestGatewayEntryPoints:
    """ingest_round/score_only — what the network gateway calls."""

    def test_ingest_round_parity_with_single_process(self, fresh_model,
                                                     frame_generator):
        single = make_single_fleet(fresh_model, frame_generator, streams=4)
        arrivals = {slot.name: np.asarray(slot.stream.batch(0).windows,
                                          dtype=np.float64)
                    for slot in single.slots}
        with ShardedFleet.from_fleet(single, 2, infra=INFRA) as sharded:
            expected = single.ingest_round(arrivals)
            got = sharded.ingest_round(arrivals)
            assert set(got) == set(expected)
            for name, event in expected.items():
                assert got[name].step == event.step
                np.testing.assert_array_equal(got[name].scores, event.scores)
            assert sharded.rounds == 1

    def test_score_only_and_unknown_stream(self, fresh_model,
                                           frame_generator):
        single = make_single_fleet(fresh_model, frame_generator, streams=3)
        slot = single.slots[0]
        windows = np.asarray(slot.stream.batch(0).windows, dtype=np.float64)
        with ShardedFleet.from_fleet(single, 2, infra=INFRA) as sharded:
            scored = sharded.score_only({slot.name: windows})
            np.testing.assert_array_equal(
                scored[slot.name], single.score_only({slot.name: windows})[slot.name])
            with pytest.raises(KeyError, match="ghost"):
                sharded.ingest_round({"ghost": windows})
            assert sharded.rounds == 0  # no successful round ran
