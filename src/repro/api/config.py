"""Hierarchical configuration for the public deployment API.

:class:`ReproConfig` nests every settable value of the stack, each in one
place, into one object that round-trips to/from plain dicts and JSON and
accepts dotted-path overrides::

    cfg = ReproConfig()
    cfg.override("adaptation.monitor.window", 72)
    cfg.override("experiment.train_steps", "200")   # strings are coerced
    Pipeline.from_config(cfg)

``experiment`` owns the seed, the window and the training budget; the
``model``, ``training`` and ``stream`` sections hold the rest of the
configs :class:`~repro.api.Pipeline` builds from them.  The CLI exposes
the same mechanism as ``--set key=value`` on every subcommand.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from dataclasses import dataclass, field, is_dataclass
from pathlib import Path

from ..adaptation.controller import AdaptationConfig
from ..data.streams import TrendShiftConfig
from ..eval.experiments import ExperimentConfig
from ..gnn.pipeline import MissionGNNConfig
from ..gnn.training import TrainingConfig
from ..utils.serialization import atomic_write_text

__all__ = ["ReproConfig", "config_to_dict", "config_from_dict"]


# ----------------------------------------------------------------------
# Generic nested-dataclass <-> dict machinery
# ----------------------------------------------------------------------
def config_to_dict(obj) -> dict:
    """Recursively convert a (nested) config dataclass to plain dicts."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: config_to_dict(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    return obj


def _field_types(cls) -> dict[str, type]:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def config_from_dict(cls, data: dict):
    """Build config dataclass ``cls`` from a plain dict (extra keys rejected)."""
    if not isinstance(data, dict):
        raise TypeError(f"expected dict for {cls.__name__}, got {type(data).__name__}")
    types = _field_types(cls)
    unknown = set(data) - set(types)
    if unknown:
        raise KeyError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        hint = types[name]
        if is_dataclass(hint):
            kwargs[name] = config_from_dict(hint, value)
        else:
            kwargs[name] = value
    return cls(**kwargs)


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _coerce(value, hint, current):
    """Coerce ``value`` (often a CLI string) to the target field's type."""
    target = hint
    origin = typing.get_origin(hint)
    if origin is typing.Union or origin is types.UnionType:  # ``str | None``
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        if value is None or (isinstance(value, str) and value.lower() == "none"):
            return None
        target = args[0] if args else str
    if target is bool or isinstance(current, bool):
        if isinstance(value, bool):
            return value
        text = str(value).strip().lower()
        if text in _TRUE:
            return True
        if text in _FALSE:
            return False
        raise ValueError(f"cannot interpret {value!r} as bool")
    if target is int:
        return int(value)
    if target is float:
        return float(value)
    if target is str:
        return str(value)
    return value


# ----------------------------------------------------------------------
# The top-level config and its sections that experiment does not own
# ----------------------------------------------------------------------
@dataclass
class ModelSection:
    """:class:`~repro.gnn.MissionGNNConfig` without its window and seed."""

    gnn_hidden_dim: int = MissionGNNConfig.gnn_hidden_dim
    temporal_model_dim: int = MissionGNNConfig.temporal_model_dim
    temporal_heads: int = MissionGNNConfig.temporal_heads
    temporal_layers: int = MissionGNNConfig.temporal_layers


@dataclass
class TrainingSection:
    """:class:`~repro.gnn.TrainingConfig` without its budget and seed."""

    weight_decay: float = TrainingConfig.weight_decay
    lambda_spa: float = TrainingConfig.lambda_spa
    lambda_smt: float = TrainingConfig.lambda_smt
    balanced_batches: bool = TrainingConfig.balanced_batches


@dataclass
class StreamSection:
    """:class:`~repro.data.TrendShiftConfig` without its window."""

    initial_class: str = TrendShiftConfig.initial_class
    shifted_class: str = TrendShiftConfig.shifted_class
    steps_before_shift: int = TrendShiftConfig.steps_before_shift
    steps_after_shift: int = TrendShiftConfig.steps_after_shift
    windows_per_step: int = TrendShiftConfig.windows_per_step
    anomaly_fraction: float = TrendShiftConfig.anomaly_fraction
    seed: int = TrendShiftConfig.seed


@dataclass
class ReproConfig:
    """Every settable value of the stack, hierarchically, each in one place.

    Sections
    --------
    ``experiment``
        Data shaping, and the one owner of the seed, the window and the
        training budget (:class:`~repro.eval.ExperimentConfig`), which
        :meth:`~repro.api.Pipeline.model_config`,
        :meth:`~repro.api.Pipeline.training_config` and
        :meth:`~repro.api.Pipeline.stream` add to their section.
    ``model``
        Architecture (:class:`ModelSection`).
    ``training``
        The trainer's loss and regularisation (:class:`TrainingSection`).
    ``adaptation``
        The edge loop (:class:`~repro.adaptation.AdaptationConfig`), which
        itself nests ``monitor`` / ``update`` / ``convergence``.
    ``stream``
        Default deployment stream shape (:class:`StreamSection`).
    ``registry_dir``
        When set, trained models persist to this directory and survive
        process restarts (see :class:`~repro.api.ModelRegistry`).
    """

    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    model: ModelSection = field(default_factory=ModelSection)
    training: TrainingSection = field(default_factory=TrainingSection)
    adaptation: AdaptationConfig = field(default_factory=AdaptationConfig)
    stream: StreamSection = field(default_factory=StreamSection)
    registry_dir: str | None = None

    # -- dict / JSON round-trip ----------------------------------------
    def to_dict(self) -> dict:
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ReproConfig":
        return config_from_dict(cls, data)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ReproConfig":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        atomic_write_text(path, self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "ReproConfig":
        return cls.from_json(Path(path).read_text())

    # -- dotted-path overrides -----------------------------------------
    def override(self, path: str, value) -> "ReproConfig":
        """Set a leaf by dotted path, e.g. ``adaptation.monitor.window``.

        String values are coerced to the target field's declared type, so
        the same call path serves programmatic use and ``--set`` flags on
        the CLI.  Returns ``self`` for chaining.
        """
        parts = path.split(".")
        if not all(parts):
            raise ValueError(f"malformed config path {path!r}")
        target = self
        for i, part in enumerate(parts[:-1]):
            if not is_dataclass(target) or not hasattr(target, part):
                raise KeyError(f"no config section {'.'.join(parts[:i + 1])!r}")
            target = getattr(target, part)
        leaf = parts[-1]
        if not is_dataclass(target) or leaf not in _field_types(type(target)):
            raise KeyError(f"no config field {path!r}")
        hint = _field_types(type(target))[leaf]
        if is_dataclass(hint):
            raise KeyError(f"{path!r} is a section, not a field; "
                           f"set one of its leaves instead")
        try:
            coerced = _coerce(value, hint, getattr(target, leaf))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad value for {path!r}: {exc}") from exc
        setattr(target, leaf, coerced)
        return self

    def apply_overrides(self, assignments: list[str] | None) -> "ReproConfig":
        """Apply ``key=value`` strings (the CLI's ``--set`` arguments)."""
        for assignment in assignments or []:
            key, sep, value = assignment.partition("=")
            if not sep or not key:
                raise ValueError(
                    f"override {assignment!r} is not of the form key=value")
            self.override(key.strip(), value.strip())
        return self

    def copy(self) -> "ReproConfig":
        """Deep copy via the dict round-trip (sections stay independent)."""
        return ReproConfig.from_dict(self.to_dict())
