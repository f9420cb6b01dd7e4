"""Tests for the deployment fleet: lifecycle, parity, checkpointing."""

import numpy as np
import pytest

from repro.api import Deployment
from repro.data import TrendShiftConfig, TrendShiftStream
from repro.serving import DeploymentFleet


def make_stream(frame_generator, seed=11, windows_per_step=3,
                before=2, after=2, window=4):
    return TrendShiftStream(frame_generator, TrendShiftConfig(
        steps_before_shift=before, steps_after_shift=after,
        windows_per_step=windows_per_step, window=window, seed=seed))


@pytest.fixture()
def static_deployment(fresh_model):
    def make(model=None, mission="Stealing"):
        model = model or fresh_model(mission, window=4)
        model.eval()
        return Deployment(model, mission=mission, adaptive=False)
    return make


class TestLifecycle:
    def test_add_and_step(self, static_deployment, frame_generator):
        fleet = DeploymentFleet()
        fleet.add("cam-0", static_deployment(), make_stream(frame_generator, 1))
        fleet.add("cam-1", static_deployment(), make_stream(frame_generator, 2))
        events = fleet.step()
        assert len(events) == 2
        assert {e.stream for e in events} == {"cam-0", "cam-1"}
        assert all(e.scores.shape == (3,) for e in events)
        assert all(e.active_class == "Stealing" for e in events)

    def test_duplicate_name_rejected(self, static_deployment, frame_generator):
        fleet = DeploymentFleet()
        fleet.add("cam", static_deployment(), make_stream(frame_generator, 1))
        with pytest.raises(ValueError, match="already attached"):
            fleet.add("cam", static_deployment(), make_stream(frame_generator, 2))

    def test_remove_mid_run(self, static_deployment, frame_generator):
        fleet = DeploymentFleet()
        fleet.add("a", static_deployment(), make_stream(frame_generator, 1))
        fleet.add("b", static_deployment(), make_stream(frame_generator, 2))
        fleet.step()
        removed = fleet.remove("b")
        assert isinstance(removed, Deployment)
        assert "b" not in fleet and len(fleet) == 1
        events = fleet.step()
        assert [e.stream for e in events] == ["a"]

    def test_remove_missing_raises(self, static_deployment, frame_generator):
        with pytest.raises(KeyError):
            DeploymentFleet().remove("ghost")

    def test_add_mid_run_joins_next_round(self, static_deployment,
                                          frame_generator):
        fleet = DeploymentFleet()
        fleet.add("a", static_deployment(), make_stream(frame_generator, 1))
        fleet.step()
        fleet.add("late", static_deployment(), make_stream(frame_generator, 9))
        events = fleet.step()
        assert {e.stream for e in events} == {"a", "late"}
        # The late stream starts from its own step 0.
        late = next(e for e in events if e.stream == "late")
        assert late.active_class == "Stealing"

    def test_exhaustion_ends_serving(self, static_deployment, frame_generator):
        fleet = DeploymentFleet()
        fleet.add("a", static_deployment(),
                  make_stream(frame_generator, 1, before=1, after=1))
        rounds = list(fleet.serve())
        assert len(rounds) == 2  # 1 pre-shift + 1 post-shift step
        assert fleet.active_count == 0
        assert fleet.step() == []

    def test_serve_max_rounds(self, static_deployment, frame_generator):
        fleet = DeploymentFleet()
        fleet.add("a", static_deployment(), make_stream(frame_generator, 1))
        rounds = list(fleet.serve(max_rounds=1))
        assert len(rounds) == 1

    def test_close_is_idempotent_and_serving_goes_on(self, static_deployment,
                                                     frame_generator):
        """A fleet holds nothing to release: closing it, twice or by
        leaving its ``with`` block, leaves it serving."""
        fleet = DeploymentFleet()
        fleet.add("a", static_deployment(), make_stream(frame_generator, 1))
        with fleet as entered:
            assert entered is fleet
            fleet.step()
        fleet.close()
        fleet.close()
        [event] = fleet.step()
        assert event.step == 1 and fleet.rounds == 2

    def test_a_detached_deployment_scores_like_the_fleet(
            self, static_deployment, frame_generator):
        """Detached mid-run, a stream's deployment keeps its state: it
        ingests its stream's next batch to the scores and step an
        attached twin stream gets from the fleet."""
        model = static_deployment().model
        fleet = DeploymentFleet()
        for name in ("a", "twin"):
            fleet.add(name, static_deployment(model),
                      make_stream(frame_generator, 5))
        fleet.step()
        removed = fleet.remove("a")
        assert fleet.names == ["twin"]
        log = removed.ingest(make_stream(frame_generator, 5).batch(1).windows)
        [event] = fleet.step()
        assert log.step == event.step == 1
        np.testing.assert_array_equal(log.scores, event.scores)


class TestBatchedSequentialParity:
    def test_scores_identical_within_zero(self, fresh_model, frame_generator):
        """The acceptance property: batched fleet scoring equals a hand
        loop of per-deployment ``Deployment.ingest`` over twin
        deployments exactly (max abs diff 0.0)."""
        model = fresh_model(window=4)
        model.eval()
        batched_fleet = DeploymentFleet()
        twins, streams = {}, {}
        for index in range(4):
            name = f"cam-{index}"
            batched_fleet.add(name,
                              Deployment(model, mission="Stealing",
                                         adaptive=False),
                              make_stream(frame_generator, seed=40 + index))
            twins[name] = Deployment(model, mission="Stealing",
                                     adaptive=False)
            streams[name] = make_stream(frame_generator, seed=40 + index)
        for step in range(3):
            batched = batched_fleet.step()
            sequential = [(name, twin.ingest(streams[name].batch(step).windows))
                          for name, twin in twins.items()]
            assert len(batched) == len(sequential)
            for b, (name, log) in zip(batched, sequential):
                assert b.stream == name
                assert b.step == log.step
                assert float(np.abs(b.scores - log.scores).max()) == 0.0

    def test_shared_model_coalesces(self, fresh_model, frame_generator):
        model = fresh_model(window=4)
        model.eval()
        fleet = DeploymentFleet()
        for index in range(3):
            fleet.add(f"cam-{index}",
                      Deployment(model, mission="Stealing", adaptive=False),
                      make_stream(frame_generator, seed=50 + index))
        fleet.step()
        assert fleet.batcher.batches_run == 1  # one forward for all streams
        assert fleet.batcher.windows_scored == 9

    def test_adaptive_ingest_precomputed_scores_equivalent(
            self, fresh_model, frame_generator):
        """An adaptive deployment fed micro-batched scores must follow the
        exact trajectory of one that scores its own windows."""
        stream = make_stream(frame_generator, seed=60)
        batched = Deployment(fresh_model(window=4), mission="Stealing")
        solo = Deployment(fresh_model(window=4), mission="Stealing")

        fleet = DeploymentFleet()
        fleet.add("cam", batched, make_stream(frame_generator, seed=60))
        for batch in stream:
            (event,) = fleet.step()
            log = solo.ingest(batch.windows)
            fleet_log = event.log
            np.testing.assert_array_equal(fleet_log.scores, log.scores)
            assert fleet_log.k == log.k
            assert fleet_log.updated == log.updated


class TestGatewayEntryPoints:
    """``ingest_round``/``score_only``: what the network gateway calls."""

    @staticmethod
    def fleet_and_arrivals(static_deployment, frame_generator):
        model = static_deployment().model
        fleet = DeploymentFleet()
        for index in range(3):
            fleet.add(f"cam-{index}", static_deployment(model),
                      make_stream(frame_generator, 20 + index))
        arrivals = {slot.name: np.asarray(slot.stream.batch(0).windows,
                                          dtype=np.float64)
                    for slot in fleet.slots}
        return fleet, arrivals

    def test_ingest_round_matches_step_and_leaves_cursors(
            self, static_deployment, frame_generator):
        fleet, arrivals = self.fleet_and_arrivals(static_deployment,
                                                  frame_generator)
        twin, _ = self.fleet_and_arrivals(static_deployment, frame_generator)
        events = fleet.ingest_round(arrivals)
        assert list(events) == fleet.names
        for stepped in twin.step():
            event = events[stepped.stream]
            assert event.step == stepped.step
            np.testing.assert_array_equal(event.scores, stepped.scores)
        assert fleet.rounds == 1
        assert [slot.cursor for slot in fleet.slots] == [0, 0, 0]

    def test_score_only_feeds_no_monitor_and_unknown_streams_raise(
            self, static_deployment, frame_generator):
        fleet, arrivals = self.fleet_and_arrivals(static_deployment,
                                                  frame_generator)
        scored = fleet.score_only(arrivals)
        assert all(slot.deployment.step_count == 0 for slot in fleet.slots)
        for name, event in fleet.ingest_round(arrivals).items():
            np.testing.assert_array_equal(scored[name], event.scores)
        ghost = {"ghost": arrivals["cam-0"]}
        for serve in (fleet.score_only, fleet.ingest_round):
            with pytest.raises(KeyError, match="ghost"):
                serve(ghost)
        assert fleet.rounds == 1


class TestFleetCheckpoint:
    def test_roundtrip_continues_identically(self, fresh_model,
                                             frame_generator,
                                             embedding_model, tmp_path):
        model = fresh_model(window=4)
        model.eval()
        fleet = DeploymentFleet()
        for index in range(3):
            fleet.add(f"cam-{index}",
                      Deployment(model, mission="Stealing", adaptive=False),
                      make_stream(frame_generator, seed=70 + index))
        fleet.step()
        path = tmp_path / "fleet.json"
        fleet.save(path)

        restored = DeploymentFleet.load(path, embedding_model, frame_generator)
        assert restored.names == fleet.names
        assert restored.rounds == fleet.rounds
        original_next = fleet.step()
        restored_next = restored.step()
        for a, b in zip(original_next, restored_next):
            assert a.stream == b.stream
            assert a.step == b.step
            np.testing.assert_array_equal(a.scores, b.scores)

    def test_shared_models_stored_once(self, fresh_model, frame_generator):
        model = fresh_model(window=4)
        model.eval()
        fleet = DeploymentFleet()
        for index in range(3):
            fleet.add(f"cam-{index}",
                      Deployment(model, mission="Stealing", adaptive=False),
                      make_stream(frame_generator, seed=80 + index))
        payload = fleet.to_dict()
        assert len(payload["models"]) == 1
        assert [s["model_index"] for s in payload["slots"]] == [0, 0, 0]

    def test_restored_shared_models_are_shared(self, fresh_model,
                                               frame_generator,
                                               embedding_model, tmp_path):
        model = fresh_model(window=4)
        model.eval()
        fleet = DeploymentFleet()
        for index in range(2):
            fleet.add(f"cam-{index}",
                      Deployment(model, mission="Stealing", adaptive=False),
                      make_stream(frame_generator, seed=90 + index))
        path = tmp_path / "fleet.json"
        fleet.save(path)
        restored = DeploymentFleet.load(path, embedding_model, frame_generator)
        models = {id(slot.deployment.model) for slot in restored.slots}
        assert len(models) == 1

    def test_adaptive_fleet_roundtrip(self, fresh_model, frame_generator,
                                      embedding_model, tmp_path):
        fleet = DeploymentFleet()
        fleet.add("cam", Deployment(fresh_model(window=4), mission="Stealing"),
                  make_stream(frame_generator, seed=95))
        fleet.step()
        path = tmp_path / "fleet.json"
        fleet.save(path)
        restored = DeploymentFleet.load(path, embedding_model, frame_generator)
        slot = restored.slots[0]
        assert slot.deployment.adaptive
        assert slot.deployment.step_count == 1
        original = fleet.step()
        resumed = restored.step()
        np.testing.assert_array_equal(original[0].scores, resumed[0].scores)

    def test_plain_iterable_stream_not_checkpointable(self, static_deployment,
                                                      frame_generator, rng):
        fleet = DeploymentFleet()
        fleet.add("raw", static_deployment(),
                  [rng.normal(size=(2, 4, 192)) for _ in range(2)])
        assert fleet.step()  # serving plain iterables works...
        with pytest.raises(ValueError, match="checkpoint"):
            fleet.to_dict()   # ...but saving them mid-run does not

    def test_bad_version_rejected(self, embedding_model, frame_generator):
        with pytest.raises(ValueError, match="format version"):
            DeploymentFleet.from_dict({"fleet_format_version": 99},
                                      embedding_model, frame_generator)


class TestSharedModelGuard:
    def test_shared_model_with_adaptive_sharer_rejected(self, fresh_model,
                                                        frame_generator):
        model = fresh_model(window=4)
        fleet = DeploymentFleet()
        fleet.add("adaptive", Deployment(model, mission="Stealing"),
                  make_stream(frame_generator, seed=1))
        with pytest.raises(ValueError, match="private model"):
            fleet.add("static", Deployment(model, mission="Stealing",
                                           adaptive=False),
                      make_stream(frame_generator, seed=2))

    def test_static_then_adaptive_sharer_rejected(self, fresh_model,
                                                  frame_generator):
        model = fresh_model(window=4)
        model.eval()
        fleet = DeploymentFleet()
        fleet.add("static", Deployment(model, mission="Stealing",
                                       adaptive=False),
                  make_stream(frame_generator, seed=1))
        with pytest.raises(ValueError, match="private model"):
            fleet.add("adaptive", Deployment(model, mission="Stealing"),
                      make_stream(frame_generator, seed=2))
