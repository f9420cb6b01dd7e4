"""Tests for the Pipeline facade, the model registry, and BN buffer state."""

import copy

import numpy as np
import pytest

from test_api_deployment import deployment_config

from repro.adaptation import ConvergenceConfig
from repro.api import Deployment, ModelRegistry, Pipeline, ReproConfig
from repro.eval import ExperimentConfig, ExperimentContext


def small_config(**experiment_overrides) -> ReproConfig:
    cfg = ReproConfig()
    cfg.experiment.train_steps = 50
    cfg.experiment.eval_normal_windows = 16
    cfg.experiment.eval_anomaly_windows = 8
    for key, value in experiment_overrides.items():
        setattr(cfg.experiment, key, value)
    return cfg


@pytest.fixture(scope="module")
def pipeline():
    return Pipeline.from_config(small_config())


class TestFromConfig:
    def test_accepts_dict_and_overrides(self):
        pipe = Pipeline.from_config(
            {"experiment": {"train_steps": 9}},
            overrides=["adaptation.monitor.window=24"])
        assert pipe.config.experiment.train_steps == 9
        assert pipe.config.adaptation.monitor.window == 24

    def test_accepts_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        small_config(seed=13).save(path)
        pipe = Pipeline.from_config(path)
        assert pipe.config.experiment.seed == 13

    def test_copies_config_object(self):
        cfg = small_config()
        pipe = Pipeline.from_config(cfg, overrides=["experiment.seed=99"])
        assert pipe.config.experiment.seed == 99
        assert cfg.experiment.seed == 7  # caller's object untouched


class TestRegistryCaching:
    def test_second_train_is_a_cache_hit(self, pipeline):
        pipeline.train("Stealing")
        trained_before = pipeline.trained_count
        pipeline.train("Stealing")
        assert pipeline.trained_count == trained_before
        assert pipeline.registry.hits >= 2

    def test_cached_model_is_fresh_and_deterministic(self, pipeline):
        a = pipeline.train("Stealing")
        b = pipeline.train("Stealing")
        assert a is not b
        windows, _ = pipeline.eval_windows("Stealing")
        np.testing.assert_allclose(a.anomaly_scores(windows[:5]),
                                   b.anomaly_scores(windows[:5]))

    def test_config_change_changes_fingerprint(self):
        a = Pipeline.from_config(small_config())
        b = Pipeline.from_config(small_config(train_steps=51))
        assert a._fingerprint() != b._fingerprint()

    def test_disk_registry_survives_new_pipeline(self, tmp_path):
        cfg = small_config(train_steps=30)
        cfg.registry_dir = str(tmp_path / "models")
        first = Pipeline.from_config(cfg)
        model = first.train("Stealing")
        assert first.trained_count == 1

        second = Pipeline.from_config(cfg)
        reloaded = second.train("Stealing")
        assert second.trained_count == 0  # registry hit: no retraining
        windows, _ = second.eval_windows("Stealing")
        np.testing.assert_allclose(model.anomaly_scores(windows[:5]),
                                   reloaded.anomaly_scores(windows[:5]),
                                   atol=1e-12)

    def test_registry_clear_and_keys(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        cfg = small_config(train_steps=20)
        pipe = Pipeline.from_config(cfg, registry=registry)
        pipe.train("Robbery")
        assert len(registry.keys()) == 1
        assert registry.contains("Robbery", pipe._fingerprint())
        registry.clear()
        assert registry.keys() == []


class TestSharedAnchors:
    """One read-only anchor array per (pipeline, mission): every deployment
    of the mission holds the same object, and nothing writes it."""

    def test_deployments_of_a_mission_share_one_read_only_array(self, pipeline):
        first = pipeline.deploy("Stealing").normal_anchor_windows
        assert pipeline.deploy("Stealing").normal_anchor_windows is first
        assert pipeline.deploy("Stealing").controller.normal_anchor_windows \
            is first
        assert first.flags.writeable is False
        assert first.base is None  # 60 rows, not a view pinning the split
        windows, labels = pipeline.train_windows("Stealing")
        np.testing.assert_array_equal(first, windows[labels == 0][:60])
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0, 0] = 0.0

    def test_static_deployment_gets_no_anchors(self, pipeline):
        """It never reads them, so it neither holds nor checkpoints them."""
        static = pipeline.deploy("Stealing", adaptive=False)
        assert static.normal_anchor_windows is None
        assert static.to_dict()["anchors"] is None

    def test_deployments_of_a_mission_share_one_weight_set(self, pipeline):
        first, second = pipeline.deploy("Stealing"), pipeline.deploy("Stealing")
        assert first.model is not second.model
        assert first.model.weight_set is second.model.weight_set
        assert first.model.kgs[0] is not second.model.kgs[0]
        assert pipeline.deploy("Stealing", adaptive=False).model.weight_set \
            is first.model.weight_set
        assert pipeline.deploy("Robbery").model.weight_set \
            is not first.model.weight_set
        # train() stays the cloud side: a model of one's own to train on.
        assert pipeline.train("Stealing").weight_set \
            is not first.model.weight_set

    def test_other_mission_and_other_count_get_their_own(self, pipeline):
        stealing = pipeline.normal_anchors("Stealing")
        robbery = pipeline.deploy("Robbery").normal_anchor_windows
        assert robbery is not stealing
        fewer = pipeline.normal_anchors("Stealing", count=10)
        assert fewer.shape[0] == 10 and fewer is not stealing
        np.testing.assert_array_equal(fewer, stealing[:10])

    def test_adaptation_on_shared_anchors_matches_a_private_copy(self, tmp_path):
        """40 steps across a class shift, an adaptation phase on most of
        them and prunes among them: a deployment on the shared read-only
        array and one handed its own writable copy stay bit-identical —
        and since a write to the shared array would raise, nothing
        writes the anchors."""
        cfg = deployment_config()  # an adaptation loop that triggers
        cfg.adaptation.convergence = ConvergenceConfig(
            patience=1, tolerance=0.0, min_updates=2)  # ... and prunes
        cfg.stream.steps_before_shift = 8
        cfg.stream.steps_after_shift = 32
        pipe = Pipeline.from_config(cfg)
        shared = pipe.deploy("Stealing")
        private = Deployment(
            pipe.train("Stealing"), mission="Stealing",
            adaptation_config=copy.deepcopy(cfg.adaptation),
            normal_anchor_windows=pipe.normal_anchors("Stealing").copy())
        assert private.normal_anchor_windows.flags.writeable
        assert shared.normal_anchor_windows is pipe.normal_anchors("Stealing")

        batches = list(pipe.stream("Stealing", "Robbery"))
        assert len(batches) == 40
        for batch in batches:
            ours, theirs = (shared.ingest(batch.windows),
                            private.ingest(batch.windows))
            np.testing.assert_array_equal(ours.scores, theirs.scores)
            assert ours.updated == theirs.updated
            assert ours.pruned == theirs.pruned
        assert shared.update_count >= 2 and shared.total_pruned >= 1
        # Model (token embeddings included), controller and anchors, as
        # the checkpoint stores them: equal encodings are equal bits.
        assert shared.to_dict() == private.to_dict()

        path = tmp_path / "shared.json"
        shared.save(path)
        loaded = Deployment.load(path, pipe.embedding_model)
        assert loaded.to_dict() == shared.to_dict()
        assert loaded.normal_anchor_windows.flags.writeable  # its own copy


class TestContextShim:
    def test_context_view_shares_the_pipeline(self, pipeline):
        context = pipeline.context
        assert context.pipeline is pipeline
        assert context.config is pipeline.config.experiment
        assert context.embedding_model is pipeline.embedding_model

    def test_legacy_constructor_matches_pipeline(self):
        exp = ExperimentConfig(train_steps=40, eval_normal_windows=12,
                               eval_anomaly_windows=6)
        context = ExperimentContext(exp)
        cfg = ReproConfig(experiment=exp)
        pipe = Pipeline.from_config(cfg)
        windows, _ = context.eval_windows("Stealing")
        np.testing.assert_allclose(
            context.train_model("Stealing").anomaly_scores(windows[:4]),
            pipe.train("Stealing").anomaly_scores(windows[:4]))


class TestBatchNormBuffers:
    def test_state_dict_carries_running_stats(self, pipeline):
        model = pipeline.train("Stealing")
        state = model.state_dict()
        bn_keys = [k for k in state if k.endswith("running_mean")]
        assert bn_keys, "state_dict must include BN running statistics"
        layer = model.reasoners[0].gnn.layers[0]
        assert np.any(layer.norm.running_mean != 0.0)

    def test_bn_stats_survive_state_dict_round_trip(self, pipeline):
        model = pipeline.train("Stealing")
        fresh = pipeline.train("Stealing")
        for layer in fresh.reasoners[0].gnn.layers:
            layer.norm.running_mean = np.zeros_like(layer.norm.running_mean)
            layer.norm.running_var = np.ones_like(layer.norm.running_var)
        fresh.load_state_dict(model.state_dict())
        for src, dst in zip(model.reasoners[0].gnn.layers,
                            fresh.reasoners[0].gnn.layers):
            np.testing.assert_allclose(dst.norm.running_mean,
                                       src.norm.running_mean)
            np.testing.assert_allclose(dst.norm.running_var,
                                       src.norm.running_var)
        windows, _ = pipeline.eval_windows("Stealing")
        np.testing.assert_allclose(fresh.anomaly_scores(windows[:5]),
                                   model.anomaly_scores(windows[:5]),
                                   atol=1e-12)

    def test_parameter_only_state_dict_still_loads(self, pipeline):
        """Legacy checkpoints without buffer entries keep current stats."""
        model = pipeline.train("Stealing")
        params_only = {name: p.data.copy()
                       for name, p in model.named_parameters()}
        target = pipeline.train("Stealing")
        before = target.reasoners[0].gnn.layers[0].norm.running_mean.copy()
        target.load_state_dict(params_only)
        np.testing.assert_allclose(
            target.reasoners[0].gnn.layers[0].norm.running_mean, before)
