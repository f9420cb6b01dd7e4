"""Tests for the multi-mission (multi-KG) evaluation harness."""

import numpy as np
import pytest

from repro.api import Pipeline
from repro.eval import multimission
from repro.eval.multimission import MultiMissionExperiment, MultiMissionResult


class TestValidation:
    def test_needs_two_missions(self, trained_pipeline):
        with pytest.raises(ValueError):
            MultiMissionExperiment(trained_pipeline, ["Stealing"])

    def test_missions_must_be_distinct(self, trained_pipeline):
        with pytest.raises(ValueError):
            MultiMissionExperiment(trained_pipeline, ["Stealing", "Stealing"])


class TestTrainingData:
    def test_labels_are_type_indexed(self, trained_pipeline):
        experiment = MultiMissionExperiment(
            trained_pipeline, ["Stealing", "Explosion"])
        windows, labels = experiment.training_data()
        assert windows.shape[0] == labels.shape[0]
        assert set(np.unique(labels)) <= {0, 1, 2}
        assert (labels == 1).any() and (labels == 2).any()

    def test_model_has_one_kg_per_mission(self, trained_pipeline):
        experiment = MultiMissionExperiment(
            trained_pipeline, ["Stealing", "Explosion", "Arrest"])
        model = experiment.build_model()
        assert len(model.kgs) == 3
        assert model.decision.num_anomaly_types == 3
        assert {kg.mission for kg in model.kgs} == {"Stealing", "Explosion",
                                                    "Arrest"}


class TestPipelineConfig:
    """The multi-mission model is shaped by its pipeline's ``model.*`` and
    ``training.*`` settings, as ``repro multimission --set`` passes them."""

    def test_model_override_reaches_the_model(self, trained_pipeline):
        pipe = Pipeline.from_config(trained_pipeline.config,
                                    overrides=["model.gnn_hidden_dim=4"])
        model = MultiMissionExperiment(pipe, ["Stealing", "Explosion"]).build_model()
        assert model.config.gnn_hidden_dim == 4
        assert model.reasoning_dim == 4 * 2

    def test_training_override_reaches_the_trainer(self, trained_pipeline,
                                                   monkeypatch):
        pipe = Pipeline.from_config(trained_pipeline.config,
                                    overrides=["training.weight_decay=0.5"])
        seen = []

        class Stop(Exception):
            pass

        def capture(trainer, windows, labels):
            seen.append(trainer.config)
            raise Stop

        monkeypatch.setattr(multimission.DecisionModelTrainer, "train", capture)
        with pytest.raises(Stop):
            MultiMissionExperiment(pipe, ["Stealing", "Explosion"],
                                   train_steps=7).run()
        assert seen[0].weight_decay == 0.5
        assert seen[0].steps == 7
        assert seen[0].seed == pipe.config.experiment.seed


@pytest.mark.slow
class TestMultiMissionRun:
    @pytest.fixture(scope="class")
    def result(self, trained_pipeline) -> MultiMissionResult:
        experiment = MultiMissionExperiment(
            trained_pipeline, ["Stealing", "Explosion"], train_steps=250)
        return experiment.run()

    def test_detects_both_classes(self, result):
        assert set(result.auc_per_class) == {"Stealing", "Explosion"}
        for mission, auc in result.auc_per_class.items():
            assert auc > 0.7, f"{mission} detection failed ({auc:.3f})"

    def test_type_classification_beats_chance(self, result):
        assert result.type_accuracy > 0.6  # chance = 0.5 for two types

    def test_confusion_matrix_shape(self, result):
        assert result.type_confusion.shape == (2, 2)
        assert result.type_confusion.sum() == 24  # 12 windows per class

    def test_summary_renders(self, result):
        text = result.summary()
        assert "Stealing" in text and "Explosion" in text
        assert "type accuracy" in text
