"""Multi-mission evaluation: several anomaly types, one deployment.

The paper's decision model supports ``n`` anomaly types (one KG each, an
``n+1``-way head with per-type posteriors ``p_{i|A}``); its experiments use
single missions.  This harness exercises the multi-KG path end to end:
train one model over several mission KGs and evaluate both the binary
anomaly AUC per class and the type-classification accuracy among
anomalies — the capability a multi-camera deployment would rely on.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..gnn.decision import DecisionModel
from ..gnn.pipeline import MissionGNNModel
from ..gnn.training import DecisionModelTrainer
from ..nn.tensor import no_grad
from ..utils.rng import derive_rng
from .metrics import roc_auc

__all__ = ["MultiMissionResult", "MultiMissionExperiment"]


@dataclass
class MultiMissionResult:
    """Per-class detection AUC plus anomaly-type classification accuracy."""

    missions: list[str]
    auc_per_class: dict[str, float] = field(default_factory=dict)
    type_accuracy: float = float("nan")
    type_confusion: np.ndarray | None = None

    @property
    def mean_auc(self) -> float:
        return float(np.mean(list(self.auc_per_class.values())))

    def summary(self) -> str:
        lines = [f"missions: {', '.join(self.missions)}"]
        for mission, auc in self.auc_per_class.items():
            lines.append(f"  {mission:<14} detection AUC: {auc:.3f}")
        lines.append(f"  mean AUC: {self.mean_auc:.3f}")
        lines.append(f"  anomaly-type accuracy: {self.type_accuracy:.3f}")
        return "\n".join(lines)


class MultiMissionExperiment:
    """Trains and evaluates one model over several mission KGs.

    ``pipeline`` (a :class:`repro.api.Pipeline`) supplies the KGs, the
    data and the effective model / training configs, so its
    ``model.*`` and ``training.*`` settings shape the multi-mission model.
    """

    def __init__(self, pipeline, missions: list[str],
                 train_steps: int | None = None):
        if len(missions) < 2:
            raise ValueError("multi-mission needs at least two missions")
        if len(set(missions)) != len(missions):
            raise ValueError("missions must be distinct")
        self.pipeline = pipeline
        self.missions = list(missions)
        self.train_steps = train_steps

    # ------------------------------------------------------------------
    def build_model(self) -> MissionGNNModel:
        pipe = self.pipeline
        kgs = [pipe.generate_kg(mission) for mission in self.missions]
        return MissionGNNModel(kgs, pipe.embedding_model, pipe.model_config())

    def training_data(self) -> tuple[np.ndarray, np.ndarray]:
        """Windows labeled 0 = normal, i = mission i's anomaly (1-based)."""
        all_windows, all_labels = [], []
        for type_index, mission in enumerate(self.missions, start=1):
            windows, labels = self.pipeline.train_windows(mission)
            relabeled = np.where(labels > 0, type_index, 0)
            if type_index > 1:
                # Keep normals from the first mission only (identical
                # normal distribution; avoids duplicating them per class).
                keep = relabeled > 0
                windows, relabeled = windows[keep], relabeled[keep]
            all_windows.append(windows)
            all_labels.append(relabeled)
        return np.concatenate(all_windows), np.concatenate(all_labels)

    # ------------------------------------------------------------------
    def run(self) -> MultiMissionResult:
        pipe = self.pipeline
        exp = pipe.config.experiment
        model = self.build_model()
        windows, labels = self.training_data()
        training = pipe.training_config()
        if self.train_steps:
            training = dataclasses.replace(training, steps=self.train_steps)
        DecisionModelTrainer(model, training).train(windows, labels)

        result = MultiMissionResult(missions=self.missions)
        # Per-class binary detection AUC.
        for mission in self.missions:
            eval_windows, eval_labels = pipe.eval_windows(mission)
            scores = model.anomaly_scores(eval_windows)
            result.auc_per_class[mission] = roc_auc(scores, eval_labels)

        # Anomaly-type classification among anomalous windows.
        rng = derive_rng(exp.seed, "multimission-type-eval")
        per_class = 12
        type_windows, type_labels = [], []
        for type_index, mission in enumerate(self.missions):
            for _ in range(per_class):
                type_windows.append(np.stack([
                    pipe.generator.anomaly_frame(mission, rng)
                    for _ in range(exp.window)]))
                type_labels.append(type_index)
        type_windows = np.stack(type_windows)
        type_labels = np.asarray(type_labels)
        with no_grad():
            probs = model(type_windows).softmax(axis=-1).numpy()
        posterior = DecisionModel.anomaly_type_posterior(probs)
        predictions = posterior.argmax(axis=-1)
        result.type_accuracy = float((predictions == type_labels).mean())
        n = len(self.missions)
        confusion = np.zeros((n, n), dtype=np.int64)
        for truth, pred in zip(type_labels, predictions):
            confusion[truth, pred] += 1
        result.type_confusion = confusion
        return result
