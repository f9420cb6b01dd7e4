"""Tests for the hierarchical ReproConfig (round-trip, dotted overrides)."""

import dataclasses

import pytest

from repro.api import Pipeline, ReproConfig, config_from_dict, config_to_dict
from repro.adaptation import AdaptationConfig


class TestRoundTrip:
    def test_dict_round_trip(self):
        cfg = ReproConfig()
        cfg.experiment.train_steps = 123
        cfg.adaptation.monitor.window = 72
        data = cfg.to_dict()
        restored = ReproConfig.from_dict(data)
        assert restored == cfg
        assert restored.to_dict() == data

    def test_dict_is_fully_nested_plain_data(self):
        data = ReproConfig().to_dict()
        assert data["adaptation"]["monitor"]["window"] == 96
        assert data["model"]["gnn_hidden_dim"] == 8
        assert data["stream"]["initial_class"] == "Stealing"

    def test_json_round_trip(self):
        cfg = ReproConfig()
        cfg.experiment.seed = 42
        cfg.adaptation.update.learning_rate = 0.05
        restored = ReproConfig.from_json(cfg.to_json())
        assert restored == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = ReproConfig()
        cfg.training.weight_decay = 0.5
        path = tmp_path / "config.json"
        cfg.save(path)
        assert ReproConfig.load(path) == cfg

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(KeyError):
            ReproConfig.from_dict({"no_such_section": {}})
        with pytest.raises(KeyError):
            ReproConfig.from_dict({"adaptation": {"monitor": {"bogus": 1}}})

    def test_nested_section_helpers(self):
        data = config_to_dict(AdaptationConfig())
        restored = config_from_dict(AdaptationConfig, data)
        assert restored == AdaptationConfig()

    def test_copy_is_independent(self):
        cfg = ReproConfig()
        clone = cfg.copy()
        clone.adaptation.monitor.window = 10
        assert cfg.adaptation.monitor.window == 96


class TestOverrides:
    def test_override_nested_leaf(self):
        cfg = ReproConfig().override("adaptation.monitor.window", 72)
        assert cfg.adaptation.monitor.window == 72

    def test_override_coerces_strings(self):
        cfg = ReproConfig()
        cfg.override("experiment.train_steps", "250")
        cfg.override("experiment.train_lr", "0.01")
        cfg.override("adaptation.structural_adaptation", "false")
        cfg.override("stream.initial_class", "Robbery")
        assert cfg.experiment.train_steps == 250
        assert cfg.experiment.train_lr == pytest.approx(0.01)
        assert cfg.adaptation.structural_adaptation is False
        assert cfg.stream.initial_class == "Robbery"

    def test_override_optional_field(self):
        cfg = ReproConfig().override("registry_dir", "/tmp/models")
        assert cfg.registry_dir == "/tmp/models"
        cfg.override("registry_dir", "none")
        assert cfg.registry_dir is None

    def test_override_returns_self_for_chaining(self):
        cfg = ReproConfig()
        assert cfg.override("experiment.seed", 1) is cfg

    def test_override_unknown_path_raises(self):
        with pytest.raises(KeyError):
            ReproConfig().override("adaptation.monitor.bogus", 1)
        with pytest.raises(KeyError):
            ReproConfig().override("nope.window", 1)

    @pytest.mark.parametrize("path,owner", [
        ("training.steps", "train_steps"),
        ("training.batch_size", "train_batch"),
        ("training.learning_rate", "train_lr"),
        ("training.seed", "seed"),
        ("model.seed", "seed"),
        ("model.temporal_window", "window"),
    ])
    def test_override_of_an_experiment_owned_leaf_raises(self, path, owner):
        """The pipeline overwrites these leaves from ``experiment.*``, so
        an override of one would be accepted and then ignored."""
        cfg = ReproConfig()
        with pytest.raises(KeyError, match=f"experiment.{owner}"):
            cfg.override(path, "5")
        assert cfg == ReproConfig()
        section, leaf = path.split(".")
        setattr(getattr(cfg, section), leaf, 5)  # what the override would do
        pipe = Pipeline(cfg)
        projected = (pipe.model_config() if section == "model"
                     else pipe.training_config())
        assert getattr(projected, leaf) == getattr(cfg.experiment, owner)

    def test_override_section_rejected(self):
        with pytest.raises(KeyError):
            ReproConfig().override("adaptation.monitor", 1)

    def test_override_bad_bool_raises(self):
        with pytest.raises(ValueError):
            ReproConfig().override("adaptation.structural_adaptation", "maybe")

    def test_apply_overrides_parses_assignments(self):
        cfg = ReproConfig().apply_overrides(
            ["adaptation.monitor.window=72", "experiment.seed = 3"])
        assert cfg.adaptation.monitor.window == 72
        assert cfg.experiment.seed == 3

    def test_apply_overrides_rejects_malformed(self):
        with pytest.raises(ValueError):
            ReproConfig().apply_overrides(["no-equals-sign"])

    def test_sections_are_the_real_config_types(self):
        """The nested sections are the subsystem dataclasses themselves."""
        cfg = ReproConfig()
        assert dataclasses.is_dataclass(cfg.adaptation.monitor)
        assert type(cfg.adaptation).__name__ == "AdaptationConfig"
        assert type(cfg.adaptation.update).__name__ == "TokenUpdateConfig"
