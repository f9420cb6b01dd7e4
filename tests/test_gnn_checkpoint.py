"""Tests for deployment checkpointing (weights + BN stats + KGs in one file)."""

import json

import numpy as np
import pytest

from repro.gnn import (
    deployment_from_dict,
    deployment_to_dict,
    load_deployment,
    save_deployment,
)


class TestDeploymentRoundTrip:
    def test_scores_bit_identical(self, trained_pipeline, tmp_path):
        """The loaded deployment must reproduce the trained model's scores
        exactly — weights, BN statistics, KG tokens, config."""
        pipe = trained_pipeline
        model = pipe.train("Stealing")
        path = tmp_path / "deployment.json"
        save_deployment(model, path)
        loaded = load_deployment(path, pipe.embedding_model)
        windows, _ = pipe.eval_windows("Stealing")
        np.testing.assert_allclose(loaded.anomaly_scores(windows[:10]),
                                   model.anomaly_scores(windows[:10]),
                                   atol=1e-12)

    def test_adapted_kg_survives(self, trained_pipeline, tmp_path):
        """Checkpointing after adaptation preserves the adapted tokens."""
        pipe = trained_pipeline
        model = pipe.train("Stealing")
        node = model.kgs[0].concept_nodes()[0]
        node.token_embeddings = node.token_embeddings + 0.5  # simulate drift
        path = tmp_path / "adapted.json"
        save_deployment(model, path)
        loaded = load_deployment(path, pipe.embedding_model)
        np.testing.assert_allclose(
            loaded.kgs[0].node(node.node_id).token_embeddings,
            node.token_embeddings)

    def test_config_preserved(self, trained_pipeline, tmp_path):
        pipe = trained_pipeline
        model = pipe.train("Stealing")
        payload = deployment_to_dict(model)
        loaded = deployment_from_dict(payload, pipe.embedding_model)
        assert loaded.config == model.config

    def test_unknown_version_rejected(self, trained_pipeline):
        pipe = trained_pipeline
        payload = deployment_to_dict(pipe.train("Stealing"))
        payload["format_version"] = 99
        with pytest.raises(ValueError):
            deployment_from_dict(payload, pipe.embedding_model)

    def test_artifact_is_plain_json(self, trained_pipeline, tmp_path):
        pipe = trained_pipeline
        path = tmp_path / "artifact.json"
        save_deployment(pipe.train("Stealing"), path)
        payload = json.loads(path.read_text())
        assert payload["format_version"] == 1
        assert "weights" in payload and "kgs" in payload

    def test_loaded_model_is_eval_mode(self, trained_pipeline, tmp_path):
        pipe = trained_pipeline
        path = tmp_path / "deployment.json"
        save_deployment(pipe.train("Stealing"), path)
        loaded = load_deployment(path, pipe.embedding_model)
        assert not loaded.temporal.training

    def test_loaded_model_is_adaptable(self, trained_pipeline, tmp_path):
        """A reloaded deployment must support continuous adaptation."""
        from repro.adaptation import TokenEmbeddingUpdater
        pipe = trained_pipeline
        path = tmp_path / "deployment.json"
        save_deployment(pipe.train("Stealing"), path)
        loaded = load_deployment(path, pipe.embedding_model)
        loaded.freeze_for_deployment()
        updater = TokenEmbeddingUpdater(loaded)
        windows, labels = pipe.eval_windows("Stealing")
        result = updater.update(windows[:8], labels[:8])
        assert np.isfinite(result.loss)
