"""``build_sharded_fleet``: each shard is built from the registry at the
first request.

What must hold: (a) the fleet it builds equals — checkpoint and every
event, bit for bit — ``ShardedFleet.from_fleet(build_fleet(...))`` under
the same arguments, over a disk registry and an in-memory one, static and
adaptive; (b) construction loads no model and builds no embedding model on
a registry hit, trains each mission once on a miss, and a missing or
unreadable artifact fails the first request naming the mission.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from test_api_deployment import deployment_config

import repro.gnn.checkpoint as checkpoint
from repro.api import ModelRegistry, Pipeline
from repro.errors import WorkerStartupError
from repro.serving import ShardedFleet, build_fleet, build_sharded_fleet
from repro.utils.binframe import encode_payload
from repro.utils.serialization import atomic_write_bytes

MISSIONS = ["Stealing", "Robbery"]
STREAMS = 4
SHARDS = 2


@pytest.fixture(scope="module")
def memory_pipeline():
    """Both missions trained into an in-memory registry."""
    pipeline = Pipeline.from_config(deployment_config())
    for mission in MISSIONS:
        pipeline.train(mission)
    return pipeline


def artifacts(pipeline) -> dict:
    registry, fingerprint = pipeline.registry, pipeline._fingerprint()
    return {mission: registry._entries[registry.key(mission, fingerprint)]
            for mission in MISSIONS}


@pytest.fixture(scope="module")
def disk_root(memory_pipeline, tmp_path_factory) -> Path:
    """A disk registry holding the same two artifacts."""
    root = tmp_path_factory.mktemp("registry")
    registry = ModelRegistry(root)
    for mission, body in artifacts(memory_pipeline).items():
        key = registry.key(mission, memory_pipeline._fingerprint())
        atomic_write_bytes(registry._path(key), body)
    return root


def disk_pipeline(root) -> Pipeline:
    config = deployment_config()
    config.registry_dir = str(root)
    return Pipeline.from_config(config)


def without_hints(payload: dict) -> bytes:
    """The payload minus the sharded hints, encoded: equal bytes are
    equal checkpoints (the payload holds arrays)."""
    return encode_payload({key: value for key, value in payload.items()
                           if key not in ("shards", "infra")})


def assert_same_events(ours, theirs):
    assert [e.stream for e in ours] == [e.stream for e in theirs]
    for a, b in zip(ours, theirs):
        assert a.step == b.step
        assert a.active_class == b.active_class
        assert np.array_equal(a.scores, b.scores)
        assert (a.log is None) == (b.log is None)
        if a.log is not None:
            assert a.log.updated == b.log.updated
            assert a.log.pruned == b.log.pruned


class TestBuildPathParity:
    @pytest.mark.parametrize("adaptive", [False, True],
                             ids=["static", "adaptive"])
    @pytest.mark.parametrize("registry", ["disk", "memory"])
    def test_built_fleet_equals_partitioned_fleet(
            self, memory_pipeline, disk_root, registry, adaptive):
        pipeline = (memory_pipeline if registry == "memory"
                    else disk_pipeline(disk_root))
        kwargs = dict(adaptive=adaptive, windows_per_step=12,
                      stream_seed=40, max_batch_windows=64)
        with build_sharded_fleet(pipeline, MISSIONS, STREAMS, shards=SHARDS,
                                 **kwargs) as built, \
                ShardedFleet.from_fleet(
                    build_fleet(pipeline, MISSIONS, STREAMS, **kwargs),
                    SHARDS) as reference:
            assert built.assignment == reference.assignment
            assert without_hints(built.to_dict()) == \
                without_hints(reference.to_dict())
            rounds = 3
            adapted = 0
            for _ in range(rounds):
                ours, theirs = built.step(), reference.step()
                assert_same_events(ours, theirs)
                adapted += sum(e.log is not None and e.log.updated
                               for e in ours)
            assert (adapted > 0) == adaptive
            assert without_hints(built.to_dict()) == \
                without_hints(reference.to_dict())


def refuse_model_loads(monkeypatch) -> None:
    """Make every module's ``deployment_from_dict`` raise."""
    original = checkpoint.deployment_from_dict

    def refuse(*args, **kwargs):
        raise AssertionError("a model was loaded")

    for module in list(sys.modules.values()):
        if getattr(module, "deployment_from_dict", None) is original:
            monkeypatch.setattr(module, "deployment_from_dict", refuse)


class TestParentLoadsNothing:
    def test_registry_hit_loads_nothing_until_the_first_request(
            self, memory_pipeline, disk_root, monkeypatch):
        """Construction loads no model and builds no embedding model or
        frame generator; the first request builds every shard."""
        pipeline = disk_pipeline(disk_root)
        refuse_model_loads(monkeypatch)
        fleet = build_sharded_fleet(pipeline, MISSIONS, STREAMS,
                                    shards=SHARDS, adaptive=True)
        assert pipeline._embedding_model is None, "built an embedding model"
        assert pipeline._generator is None, "built a frame generator"
        assert pipeline._bases == {}, pipeline._bases
        monkeypatch.undo()
        windows = memory_pipeline.stream(
            "Robbery", None, windows_per_step=3).batch(0).windows
        with fleet:
            scores = fleet.score_only({name: windows for name in fleet.names})
        with build_fleet(memory_pipeline, MISSIONS, STREAMS,
                         adaptive=True) as reference:
            expected = reference.score_only(
                {name: windows for name in reference.names})
        assert sorted(scores) == sorted(expected)
        for name, value in expected.items():
            assert np.array_equal(scores[name], value)

    def test_registry_miss_trains_once_in_the_parent(self, tmp_path):
        config = deployment_config()
        config.experiment.train_steps = 5
        config.registry_dir = str(tmp_path)
        pipeline = Pipeline.from_config(config)
        with build_sharded_fleet(pipeline, MISSIONS, STREAMS,
                                 shards=SHARDS) as fleet:
            assert pipeline.trained_count == len(MISSIONS)
            files = sorted(tmp_path.glob("*.bin"))
            assert len(files) == len(MISSIONS)
            stamps = [(path.stat().st_mtime_ns, path.read_bytes())
                      for path in files]
            windows = pipeline.stream("Stealing", None).batch(0).windows
            scores = fleet.score_only({name: windows for name in fleet.names})
            # The shards read those artifacts; none trained or rewrote one.
            assert [(path.stat().st_mtime_ns, path.read_bytes())
                    for path in sorted(tmp_path.glob("*.bin"))] == stamps
        assert pipeline.trained_count == len(MISSIONS)
        with build_fleet(pipeline, MISSIONS, STREAMS) as reference:
            expected = reference.score_only(
                {name: windows for name in reference.names})
        for name, value in expected.items():
            assert np.array_equal(scores[name], value)

    def test_missing_artifact_fails_startup_naming_the_mission(
            self, tmp_path):
        class Believing(ModelRegistry):
            """Claims every artifact, so the parent trains nothing."""

            def contains(self, mission, fingerprint):
                return True

        config = deployment_config()
        pipeline = Pipeline(config, registry=Believing(tmp_path))
        with build_sharded_fleet(pipeline, MISSIONS, 2,
                                 shards=SHARDS) as fleet:
            with pytest.raises(WorkerStartupError,
                               match="(?s)Stealing.*no artifact.*Robbery"):
                fleet.batcher_stats()
        assert pipeline.trained_count == 0

    def test_unreadable_artifact_fails_startup_naming_the_mission(
            self, memory_pipeline, tmp_path):
        pipeline = disk_pipeline(tmp_path)
        registry = pipeline.registry
        for mission in MISSIONS:
            key = registry.key(mission, pipeline._fingerprint())
            registry._path(key).write_text("{not json")
        with build_sharded_fleet(pipeline, MISSIONS, 2,
                                 shards=SHARDS) as fleet:
            with pytest.raises(WorkerStartupError,
                               match="startup failed.*'Stealing'.*BinaryFormatError"):
                fleet.step()
        assert pipeline.trained_count == 0
