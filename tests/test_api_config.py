"""Tests for the hierarchical ReproConfig (round-trip, dotted overrides,
one owner per value, every leaf live)."""

import dataclasses
import functools
import hashlib
import typing

import numpy as np
import pytest

from pinned_blas import pinned_digest

from repro.adaptation import AdaptationConfig
from repro.api import Pipeline, ReproConfig, config_from_dict, config_to_dict
from repro.api import pipeline as pipeline_module
from repro.kg import kg_to_dict
from repro.utils import binframe


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


# ----------------------------------------------------------------------
# One owner per value
# ----------------------------------------------------------------------
class TestOwnership:
    """``experiment`` owns the seed, the window and the training budget;
    no section holds a second copy of them."""

    @pytest.mark.parametrize("path", [
        "model.temporal_window", "model.seed", "training.steps",
        "training.batch_size", "training.learning_rate", "training.seed",
        "training.log_every", "stream.window"])
    def test_a_leaf_no_section_holds_is_refused(self, path):
        with pytest.raises(KeyError, match="no config field"):
            ReproConfig().override(path, "4")
        section, leaf = path.split(".")
        data = ReproConfig().to_dict()
        data[section][leaf] = 4  # a config saved by an older build
        with pytest.raises(KeyError, match=f"unknown .* keys: \\['{leaf}'\\]"):
            ReproConfig.from_dict(data)

    def test_pipeline_builds_each_config_from_its_section_and_experiment(self):
        cfg = ReproConfig().apply_overrides([
            "experiment.window=4", "experiment.seed=3",
            "experiment.train_steps=5", "experiment.train_batch=8",
            "experiment.train_lr=0.01", "model.gnn_hidden_dim=6",
            "training.weight_decay=0.5", "stream.windows_per_step=3"])
        pipe = Pipeline(cfg)
        model, training = pipe.model_config(), pipe.training_config()
        assert (model.temporal_window, model.seed, model.gnn_hidden_dim) \
            == (4, 3, 6)
        assert (training.steps, training.batch_size, training.learning_rate,
                training.seed, training.weight_decay) == (5, 8, 0.01, 3, 0.5)
        stream = pipe.stream("Robbery", seed=9).config
        assert (stream.window, stream.windows_per_step, stream.initial_class,
                stream.seed) == (4, 3, "Robbery", 9)


# ----------------------------------------------------------------------
# Every leaf is live: generated from the dataclasses
# ----------------------------------------------------------------------
def _leaves(cls, prefix: str = ""):
    """``(dotted path, type hint)`` of every leaf of config dataclass ``cls``."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(hints[f.name]):
            yield from _leaves(hints[f.name], f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", hints[f.name]


LEAVES = dict(_leaves(ReproConfig))


def _perturbed(value, hint, tmp_path):
    """Another value of the leaf's type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value * 2 if value else 1
    if isinstance(value, float):
        return value / 2 if value else 1.0
    if isinstance(value, str):
        return value + "-x"
    assert value is None and str in typing.get_args(hint), hint
    return str(tmp_path / "leaf")


def _digest(*arrays) -> str:
    return hashlib.sha256(b"".join(
        np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


class _Reads:
    """A config that logs each field read of it."""

    def __init__(self, config):
        self._config, self.log = config, {}

    def __getattr__(self, name):
        value = self.log[name] = getattr(self._config, name)
        return value


#: One joint embedding model per seed, for every pipeline of this module.
_embedding_model = functools.cache(
    pipeline_module.build_default_embedding_model)


def what_a_run_reads(config: ReproConfig) -> dict:
    """What a pipeline over ``config`` hands the code it runs.

    ``trained``: the model and trainer config fields that
    :class:`MissionGNNModel` and :class:`DecisionModelTrainer` read (a
    recording proxy around each config), the initial weights and KG
    tokens, and the training windows and labels.  Training runs for
    ``experiment.train_steps``; the base config keeps that at 1.
    """
    seen = {}

    class Model(pipeline_module.MissionGNNModel):
        def __init__(self, kgs, embedding_model, model_config):
            reads = _Reads(model_config)
            super().__init__(kgs, embedding_model, reads)
            self.config = model_config
            seen["model"] = reads.log

    class Trainer(pipeline_module.DecisionModelTrainer):
        def __init__(self, model, training_config):
            reads = _Reads(training_config)
            super().__init__(model, reads)
            seen["trainer"] = reads.log
            seen["initial"] = hashlib.sha256(binframe.encode_payload(
                {"weights": model.state_dict(),
                 "kgs": [kg_to_dict(kg) for kg in model.kgs]})).hexdigest()

        def train(self, windows, labels):
            seen["data"] = _digest(windows, labels)
            return super().train(windows, labels)

    def deployment(model, **kwargs):
        anchors = kwargs.pop("normal_anchor_windows")
        seen["deployment"] = {**kwargs, "anchors": _digest(anchors),
                              "adaptation_config": config_to_dict(
                                  kwargs["adaptation_config"])}

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline_module, "build_default_embedding_model",
                      _embedding_model)
        patch.setattr(pipeline_module, "MissionGNNModel", Model)
        patch.setattr(pipeline_module, "DecisionModelTrainer", Trainer)
        patch.setattr(pipeline_module, "Deployment", deployment)
        pipe = Pipeline(config)
        pipe.deploy("Stealing")
        eval_windows, _ = pipe.eval_windows("Robbery")
    return {"trained": {k: seen.pop(k) for k in
                        ("model", "trainer", "initial", "data")},
            "fingerprint": pipe._fingerprint(),
            "stream": config_to_dict(pipe.stream().config),
            "deployment": seen["deployment"],
            "dataset": (pipe.dataset.train.num_videos,
                        pipe.dataset.test.num_videos),
            "eval": eval_windows.shape,
            "registry": pipe.registry.root}


def _base_config() -> ReproConfig:
    """The shipped defaults, trained for one step."""
    return ReproConfig().override("experiment.train_steps", 1)


@pytest.fixture(scope="module")
def base_reads():
    return what_a_run_reads(_base_config())


@pytest.mark.parametrize("path", sorted(LEAVES))
def test_every_leaf_changes_what_a_run_reads(path, base_reads, tmp_path):
    """Perturb one leaf: something the run reads must change, and a leaf
    the registry fingerprint hashes must reach the model or the trainer
    (and one that reaches them must change the fingerprint)."""
    config = _base_config()
    value = config.to_dict()
    for part in path.split("."):
        value = value[part]
    config.override(path, _perturbed(value, LEAVES[path], tmp_path))
    reads = what_a_run_reads(config)
    changed = sorted(key for key in reads if reads[key] != base_reads[key])
    assert changed, f"{path} changes nothing a run reads"
    assert ("fingerprint" in changed) == ("trained" in changed), (
        f"{path} changes {changed}: the fingerprint must change exactly "
        f"when what training reads does")


# ----------------------------------------------------------------------
# The trained bits at a config away from every experiment default
# ----------------------------------------------------------------------
#: Recorded with the build that overwrote the model and training sections
#: from ``experiment``; the pipeline now builds them from it.
PINNED_WEIGHTS = \
    "060120ea1409c1793ec73550075d46a16859acb9c1ed060a4da5db1d0523cd6f"


def trained_weights_digest() -> str:
    """sha256 over the stored weight arrays of one mission trained with
    every experiment-owned value away from its default."""
    cfg = ReproConfig().apply_overrides([
        "experiment.window=4", "experiment.seed=3",
        "experiment.train_steps=3", "experiment.train_batch=8",
        "experiment.train_lr=0.01"])
    model = Pipeline(cfg).train("Stealing")
    digest = hashlib.sha256()
    for name, array in sorted(model.state_dict().items()):
        digest.update(name.encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def test_non_default_training_matches_its_pinned_weights():
    assert pinned_digest("test_api_config",
                         "trained_weights_digest") == PINNED_WEIGHTS
