"""Ablation — decision-model hyperparameters.

Sweeps the two architecture knobs the paper fixes without ablation:

* temporal window T (the short-term transformer's context length)
* GNN hidden dimensionality D (paper: 8 across all layers)

and reports mission AUC after identical small training budgets.

Expected: the paper's settings (T=8, D=8) sit on a plateau — nearby
settings perform comparably, confirming the architecture is not fragile.
"""

import pytest

from repro.eval import roc_auc
from repro.gnn import (
    DecisionModelTrainer,
    MissionGNNConfig,
    MissionGNNModel,
    TrainingConfig,
)

from .conftest import emit

TRAIN_STEPS = 150


def train_and_eval(pipeline, window: int, hidden_dim: int) -> float:
    kg = pipeline.generate_kg("Stealing")
    model = MissionGNNModel([kg], pipeline.embedding_model, MissionGNNConfig(
        temporal_window=window, gnn_hidden_dim=hidden_dim,
        seed=pipeline.config.experiment.seed))
    windows, labels = pipeline.dataset.mission_windows(
        "train", "Stealing", window=window, stride=4,
        normal_videos=20, anomaly_videos=8)
    DecisionModelTrainer(model, TrainingConfig(
        steps=TRAIN_STEPS, batch_size=32, learning_rate=3e-3)).train(
        windows, labels)
    # Build matching-window eval data.
    import numpy as np
    from repro.utils import derive_rng
    rng = derive_rng(pipeline.config.experiment.seed, "ablation-eval", window)
    eval_windows, eval_labels = [], []
    for _ in range(30):
        eval_windows.append(np.stack([pipeline.generator.normal_frame(rng)
                                      for _ in range(window)]))
        eval_labels.append(0)
    for _ in range(15):
        eval_windows.append(np.stack([
            pipeline.generator.anomaly_frame("Stealing", rng)
            for _ in range(window)]))
        eval_labels.append(1)
    return roc_auc(model.anomaly_scores(np.stack(eval_windows)),
                   np.asarray(eval_labels))


@pytest.mark.benchmark(group="ablation-model")
def test_ablation_temporal_window(benchmark, pipeline):
    def run():
        return {t: train_and_eval(pipeline, window=t, hidden_dim=8)
                for t in (4, 8, 12)}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("Ablation — temporal window T (GNN dim fixed at 8)",
         "\n".join(f"T={t:>2}: AUC={auc:.3f}" for t, auc in results.items()))
    assert all(auc > 0.6 for auc in results.values())


@pytest.mark.benchmark(group="ablation-model")
def test_ablation_gnn_hidden_dim(benchmark, pipeline):
    def run():
        return {d: train_and_eval(pipeline, window=8, hidden_dim=d)
                for d in (4, 8, 16)}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("Ablation — GNN hidden dimensionality (T fixed at 8)",
         "\n".join(f"D={d:>2}: AUC={auc:.3f}" for d, auc in results.items()))
    assert results[8] > 0.6  # the paper's setting must work
