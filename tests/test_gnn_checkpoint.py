"""Tests for deployment checkpointing (weights + BN stats + KGs in one
binary file)."""

import json

import numpy as np
import pytest

from repro.gnn import (
    deployment_from_dict,
    deployment_to_dict,
    load_deployment,
    save_deployment,
)
from repro.kg import load_kg
from repro.utils import binframe
from repro.utils.binframe import BinaryFormatError


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

    def test_artifact_is_one_binary_body(self, trained_pipeline, tmp_path):
        """Weights and KG tokens ride as raw float64: the file is barely
        larger than its arrays, and they read back to the same bits as
        writable views of one aligned buffer."""
        pipe = trained_pipeline
        model = pipe.train("Stealing")
        path = tmp_path / "artifact.bin"
        save_deployment(model, path)
        payload = binframe.read_file(path)
        assert payload["format_version"] == 2
        state = model.state_dict()
        assert sorted(payload["weights"]) == sorted(state)
        for name, value in state.items():
            array = payload["weights"][name]
            assert array.tobytes() == value.tobytes()
            assert array.flags.writeable and array.flags.aligned
            assert array.base is not None  # a view, not a copy
        tokens = [node.token_embeddings for kg in model.kgs
                  for node in kg.concept_nodes()]
        assert all(entry["token_embeddings"].tobytes() == token.tobytes()
                   for entry, token in zip(
                       (node for kg in payload["kgs"] for node in kg["nodes"]
                        if "token_embeddings" in node), tokens))
        array_bytes = sum(value.nbytes for value in state.values()) + sum(
            token.nbytes for token in tokens)
        assert path.stat().st_size < 1.05 * array_bytes

    def test_base64_json_files_are_refused(self, trained_pipeline, tmp_path):
        """A file an older version wrote (base64-in-JSON) is a typed error
        naming the file and the fix, from every array-file reader."""
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"format_version": 1, "weights": {},
                                    "kgs": []}))
        for load in (lambda: load_deployment(
                         path, trained_pipeline.embedding_model),
                     lambda: load_kg(path)):
            with pytest.raises(BinaryFormatError) as excinfo:
                load()
            assert str(path) in str(excinfo.value)
            assert "base64-in-JSON" in str(excinfo.value)
            assert "re-create it with this version" in str(excinfo.value)

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
