"""Tests for the Deployment runtime (serve loop, checkpoint/resume)."""

import numpy as np
import pytest

from repro.adaptation import (
    AdaptationConfig,
    ConvergenceConfig,
    MonitorConfig,
    TokenUpdateConfig,
)
from repro.api import Deployment, Pipeline, ReproConfig
from repro.errors import CheckpointError, NonFiniteError


def deployment_config() -> ReproConfig:
    """Small stack with an adaptation loop that actually triggers."""
    cfg = ReproConfig()
    cfg.experiment.train_steps = 50
    cfg.experiment.eval_normal_windows = 12
    cfg.experiment.eval_anomaly_windows = 6
    cfg.adaptation = AdaptationConfig(
        monitor=MonitorConfig(window=24, lag=12, min_k=4,
                              trigger_threshold=0.005),
        update=TokenUpdateConfig(learning_rate=0.08, inner_steps=2),
        adaptation_rounds=2, min_trigger_k=1, min_confidence=0.0)
    cfg.stream.windows_per_step = 12
    cfg.stream.steps_before_shift = 2
    cfg.stream.steps_after_shift = 4
    return cfg


@pytest.fixture(scope="module")
def pipeline():
    return Pipeline.from_config(deployment_config())


class TestServing:
    def test_serve_yields_one_event_per_batch(self, pipeline):
        deployment = pipeline.deploy("Stealing")
        events = list(deployment.serve(pipeline.stream("Stealing", "Robbery")))
        assert len(events) == pipeline.config.stream.total_steps
        assert [e.step for e in events] == list(range(len(events)))
        assert events[0].active_class == "Stealing"
        assert events[-1].active_class == "Robbery"
        assert all(e.scores.shape == (12,) for e in events)
        assert deployment.step_count == len(events)

    def test_static_deployment_never_adapts(self, pipeline):
        deployment = pipeline.deploy("Stealing", adaptive=False)
        windows, _ = pipeline.eval_windows("Stealing")
        before = deployment.scores(windows[:5])
        for _ in deployment.serve(pipeline.stream("Stealing", "Robbery")):
            pass
        np.testing.assert_allclose(deployment.scores(windows[:5]), before,
                                   atol=1e-12)
        assert deployment.update_count == 0
        assert deployment.controller is None

    def test_serve_accepts_raw_arrays(self, pipeline):
        deployment = pipeline.deploy("Stealing", adaptive=False)
        windows, _ = pipeline.eval_windows("Stealing")
        events = list(deployment.serve([windows[:4], windows[4:8]]))
        assert len(events) == 2
        assert events[0].active_class is None


class TestStaticIngestValidation:
    """The static path must validate precomputed scores like the adaptive
    path does: a mis-sliced micro-batch result raises instead of being
    silently logged."""

    def test_valid_precomputed_scores_accepted(self, pipeline):
        deployment = pipeline.deploy("Stealing", adaptive=False)
        windows, _ = pipeline.eval_windows("Stealing")
        scores = deployment.scores(windows[:4])
        log = deployment.ingest(windows[:4], scores=scores)
        np.testing.assert_array_equal(log.scores, scores)

    def test_wrong_length_scores_rejected(self, pipeline):
        deployment = pipeline.deploy("Stealing", adaptive=False)
        windows, _ = pipeline.eval_windows("Stealing")
        scores = deployment.scores(windows[:4])
        with pytest.raises(ValueError, match="expected 3 precomputed"):
            deployment.ingest(windows[:3], scores=scores)

    def test_wrong_shape_scores_rejected(self, pipeline):
        deployment = pipeline.deploy("Stealing", adaptive=False)
        windows, _ = pipeline.eval_windows("Stealing")
        with pytest.raises(ValueError, match="precomputed"):
            deployment.ingest(windows[:4],
                              scores=np.zeros((4, 2), dtype=np.float64))

    def test_bad_windows_shape_rejected(self, pipeline):
        deployment = pipeline.deploy("Stealing", adaptive=False)
        with pytest.raises(ValueError, match=r"\(B, T, frame_dim\)"):
            deployment.ingest(np.zeros((4, 8)))

    def test_scores_coerced_to_float64(self, pipeline):
        deployment = pipeline.deploy("Stealing", adaptive=False)
        windows, _ = pipeline.eval_windows("Stealing")
        log = deployment.ingest(
            windows[:4], scores=np.zeros(4, dtype=np.float32))
        assert log.scores.dtype == np.float64


class TestNonFiniteWindows:
    @pytest.mark.parametrize("adaptive", [True, False])
    def test_refused_before_any_state_changes(self, pipeline, adaptive):
        deployment = pipeline.deploy("Stealing", adaptive=adaptive)
        windows, _ = pipeline.eval_windows("Stealing")
        windows = windows[:4]
        for value in (np.nan, np.inf, -np.inf):
            poisoned = windows.copy()
            poisoned[2, 3, 4] = value
            with pytest.raises(NonFiniteError, match="NaN"):
                deployment.ingest(poisoned)
            with pytest.raises(NonFiniteError):
                deployment.ingest(poisoned, scores=np.zeros(4))
        assert deployment.step_count == 0
        if adaptive:
            assert not deployment.controller._code_buffer
            assert not deployment.controller.monitor._scores
        assert deployment.ingest(windows).step == 0


class TestCheckpointResume:
    def test_buffer_is_the_monitor_windows_codes_format_2(self, pipeline):
        deployment = pipeline.deploy("Stealing")
        monitor = deployment.adaptation_config.monitor
        for batch in pipeline.stream("Stealing", "Robbery"):
            deployment.ingest(batch.windows)
        assert deployment.step_count * 12 > monitor.window + monitor.lag
        payload = deployment.to_dict()
        assert payload["format_version"] == 4
        buffer = payload["runtime"]["buffer"]
        assert len(buffer) == monitor.window
        model = deployment.model
        assert buffer[0].shape == (len(model.kgs), model.config.temporal_window,
                                   model.config.gnn_hidden_dim)
        last = batch.windows[-monitor.window:]  # the newest windows' codes
        assert np.array_equal(np.stack(buffer)[-len(last):],
                              model.frame_codes(last))
        payload["format_version"] = 3  # optimizer state, per-step trails
        with pytest.raises(CheckpointError, match="format version: 3"):
            Deployment.from_dict(payload, pipeline.embedding_model)

    def test_save_load_preserves_scores(self, pipeline, tmp_path):
        deployment = pipeline.deploy("Stealing")
        for _ in deployment.serve(pipeline.stream("Stealing", "Robbery")):
            pass
        path = tmp_path / "deployment.json"
        deployment.save(path)
        loaded = Deployment.load(path, pipeline.embedding_model)
        windows, _ = pipeline.eval_windows("Robbery")
        np.testing.assert_allclose(loaded.scores(windows),
                                   deployment.scores(windows), atol=1e-12)
        assert loaded.mission == "Stealing"
        assert loaded.step_count == deployment.step_count
        assert loaded.update_count == deployment.update_count

    def test_resumed_adaptation_matches_uninterrupted(self, pipeline, tmp_path):
        """Interrupting a deployment mid-stream must not change its future."""
        stream = pipeline.stream("Stealing", "Robbery")
        batches = list(stream)
        split = 3

        straight = pipeline.deploy("Stealing")
        for batch in batches:
            straight.ingest(batch.windows)

        interrupted = pipeline.deploy("Stealing")
        for batch in batches[:split]:
            interrupted.ingest(batch.windows)
        path = tmp_path / "mid.json"
        interrupted.save(path)
        resumed = Deployment.load(path, pipeline.embedding_model)
        logs = [resumed.ingest(batch.windows) for batch in batches[split:]]

        assert straight.update_count > 0, "scenario must exercise adaptation"
        assert resumed.update_count == straight.update_count
        assert [log.step for log in logs] == list(range(split, len(batches)))
        windows, _ = pipeline.eval_windows("Robbery")
        np.testing.assert_allclose(resumed.scores(windows),
                                   straight.scores(windows), atol=1e-12)

    def test_wrong_embedding_model_rejected(self, pipeline, tmp_path):
        from repro.embedding import build_default_embedding_model
        deployment = pipeline.deploy("Stealing", adaptive=False)
        path = tmp_path / "dep.json"
        deployment.save(path)
        other = build_default_embedding_model(seed=99)
        with pytest.raises(ValueError, match="embedding model mismatch"):
            Deployment.load(path, other)

    def test_unknown_version_rejected(self, pipeline, tmp_path):
        deployment = pipeline.deploy("Stealing", adaptive=False)
        payload = deployment.to_dict()
        payload["format_version"] = 99
        with pytest.raises(ValueError):
            Deployment.from_dict(payload, pipeline.embedding_model)


def sizes_of(value, path="state") -> dict[str, int]:
    """The length of every list, dict and array (first axis) in ``value``."""
    sizes = {}
    if isinstance(value, (list, dict, np.ndarray)) and np.ndim(value):
        sizes[path] = len(value)
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        sizes.update(sizes_of(item, f"{path}.{key}" if isinstance(value, dict)
                              else f"{path}[]"))
    return sizes


class TestBoundedRuntime:
    def test_export_state_does_not_grow_with_the_step_count(
            self, fresh_model, embedding_model, rng):
        """A deployment ingests for as long as it lives: past window + lag
        steps, no list, dict or array in its runtime state grows."""
        config = AdaptationConfig(
            monitor=MonitorConfig(window=12, lag=6, min_k=2,
                                  trigger_threshold=0.02),
            update=TokenUpdateConfig(learning_rate=0.05, inner_steps=1),
            convergence=ConvergenceConfig(patience=1, tolerance=0.0,
                                          min_updates=1),
            adaptation_rounds=1, min_trigger_k=1, min_confidence=0.0)
        deployment = Deployment(
            fresh_model(window=4), adaptation_config=config,
            normal_anchor_windows=rng.normal(
                size=(8, 4, embedding_model.frame_dim)))
        span = config.monitor.window + config.monitor.lag
        seen = {}
        for step in range(1, 3 * span + 1):
            deployment.ingest(rng.normal(size=(1, 4, embedding_model.frame_dim)))
            if step in (span + 1, 2 * span, 3 * span):
                seen[step] = sizes_of(deployment.controller.export_state())
        assert deployment.update_count > 0
        assert seen[span + 1] == seen[2 * span] == seen[3 * span]
        assert seen[3 * span]["state.buffer"] == config.monitor.window
        assert seen[3 * span]["state.monitor.scores"] == span


class TestModelInjection:
    def test_from_dict_without_model_section_needs_injection(
            self, fresh_model, embedding_model):
        deployment = Deployment(fresh_model(window=4), mission="Stealing",
                                adaptive=False)
        payload = deployment.to_dict(include_model=False)
        assert payload["model"] is None
        with pytest.raises(ValueError, match="include_model=False"):
            Deployment.from_dict(payload, embedding_model)
        restored = Deployment.from_dict(payload, embedding_model,
                                        model=deployment.model)
        assert restored.mission == "Stealing"
        assert restored.model is deployment.model
