"""Hierarchical configuration for the public deployment API.

:class:`ReproConfig` nests every knob of the stack — experiment data
shaping, model architecture, cloud-side training, edge-side adaptation
(monitor / token update / convergence), and the deployment stream — into
one object that round-trips to/from plain dicts and JSON and accepts
dotted-path overrides::

    cfg = ReproConfig()
    cfg.override("adaptation.monitor.window", 72)
    cfg.override("experiment.train_steps", "200")   # strings are coerced
    Pipeline.from_config(cfg)

The CLI exposes the same mechanism as ``--set key=value`` on every
subcommand.
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

#: Leaves of the ``model`` / ``training`` sections that
#: :meth:`~repro.api.Pipeline.model_config` and
#: :meth:`~repro.api.Pipeline.training_config` overwrite from ``experiment``:
#: section -> {leaf: the experiment field that wins}.
EXPERIMENT_OWNED = {
    "model": {"temporal_window": "window", "seed": "seed"},
    "training": {"steps": "train_steps", "batch_size": "train_batch",
                 "learning_rate": "train_lr", "seed": "seed"},
}


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
# The top-level config
# ----------------------------------------------------------------------
@dataclass
class ReproConfig:
    """Every knob of the stack, hierarchically.

    Sections
    --------
    ``experiment``
        Data shaping and the canonical seed / window / training budget
        (:class:`~repro.eval.ExperimentConfig`).  ``seed``, ``window``,
        ``train_steps``, ``train_batch`` and ``train_lr`` here are
        authoritative: :meth:`~repro.api.Pipeline.model_config` and
        :meth:`~repro.api.Pipeline.training_config` project them into the
        model and training sections.
    ``model``
        Architecture knobs (:class:`~repro.gnn.MissionGNNConfig`).
    ``training``
        Cloud-side trainer knobs (:class:`~repro.gnn.TrainingConfig`).
    ``adaptation``
        The edge loop (:class:`~repro.adaptation.AdaptationConfig`), which
        itself nests ``monitor`` / ``update`` / ``convergence``.
    ``stream``
        Default deployment stream shape
        (:class:`~repro.data.TrendShiftConfig`).
    ``registry_dir``
        When set, trained models persist to this directory and survive
        process restarts (see :class:`~repro.api.ModelRegistry`).
    """

    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    model: MissionGNNConfig = field(default_factory=MissionGNNConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    adaptation: AdaptationConfig = field(default_factory=AdaptationConfig)
    stream: TrendShiftConfig = field(default_factory=TrendShiftConfig)
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
        the CLI.  A leaf the ``experiment`` section overwrites
        (:data:`EXPERIMENT_OWNED`) is refused: setting it would do nothing.
        Returns ``self`` for chaining.
        """
        parts = path.split(".")
        if not all(parts):
            raise ValueError(f"malformed config path {path!r}")
        owner = EXPERIMENT_OWNED.get(parts[0], {}).get(".".join(parts[1:]))
        if owner is not None:
            raise KeyError(f"{path!r} is set from 'experiment.{owner}'; "
                           f"override that instead")
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
