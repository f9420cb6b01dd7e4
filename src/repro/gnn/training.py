"""Initial (cloud-side) training of the GNN-based decision model (Fig. 2B).

Trains all model weights — GNN layers, temporal transformer, decision head —
with AdamW and the MissionGNN loss (cross-entropy + lambda_spa sparsity +
lambda_smt smoothness).  KG token embeddings stay at their LLM-derived
initial values throughout; they only become trainable after deployment.

Paper settings (Section IV-A): AdamW lr=1e-5, weight decay 1.0,
betas=(0.9, 0.999), eps=1e-8, lambda_spa = lambda_smt = 0.001, 3000 steps
with mini-batch 128.  Those are tuned for ImageBind-Huge features; our
synthetic substrate separates faster, so the defaults here are smaller.
A directly built :class:`TrainingConfig` keeps these defaults (300 steps,
lr 3e-3); :class:`~repro.api.Pipeline` trains with the experiment's
budget and seed instead (``experiment.train_steps`` = 400,
``train_batch``, ``train_lr`` = 1e-3, ``seed``) and the ``training``
section's loss and regularisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..nn.losses import vad_loss
from ..nn.optim import AdamW
from ..utils.rng import derive_rng
from .pipeline import MissionGNNModel

__all__ = ["TrainingConfig", "TrainingResult", "DecisionModelTrainer"]


@dataclass
class TrainingConfig:
    """Trainer hyperparameters (paper defaults in comments)."""

    steps: int = 300            # paper: 3000
    batch_size: int = 32        # paper: 128
    learning_rate: float = 3e-3  # paper: 1e-5 (for ImageBind-scale features)
    weight_decay: float = 1e-4  # paper: 1.0
    lambda_spa: float = 0.001
    lambda_smt: float = 0.001
    balanced_batches: bool = True  # oversample anomalies (UCF-Crime is ~2% pos)
    seed: int = 7


@dataclass
class TrainingResult:
    """Loss curve and final training metrics."""

    losses: list[float] = field(default_factory=list)
    steps: int = 0
    final_loss: float = float("nan")


class DecisionModelTrainer:
    """Mini-batch trainer over (windows, labels) arrays.

    ``windows``: (N, T, frame_dim) frame windows; ``labels``: (N,) ints with
    0 = normal and i >= 1 = anomaly type i.
    """

    def __init__(self, model: MissionGNNModel, config: TrainingConfig | None = None):
        self.model = model
        self.config = config or TrainingConfig()

    def train(self, windows: np.ndarray, labels: np.ndarray) -> TrainingResult:
        cfg = self.config
        windows = np.asarray(windows, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if windows.shape[0] != labels.shape[0]:
            raise ValueError("windows and labels disagree on sample count")
        if windows.shape[0] == 0:
            raise ValueError("empty training set")
        n_classes = self.model.decision.num_anomaly_types + 1
        if labels.min() < 0 or labels.max() >= n_classes:
            raise ValueError(f"labels must lie in [0, {n_classes - 1}]")

        self.model.train()
        optimizer = AdamW(self.model.parameters(), lr=cfg.learning_rate,
                          weight_decay=cfg.weight_decay)
        rng = derive_rng(cfg.seed, "trainer")
        result = TrainingResult()
        n = windows.shape[0]
        normal_idx = np.flatnonzero(labels == 0)
        anomaly_idx = np.flatnonzero(labels > 0)
        balanced = cfg.balanced_batches and normal_idx.size and anomaly_idx.size
        for step in range(cfg.steps):
            if balanced:
                half = max(cfg.batch_size // 2, 1)
                batch_idx = np.concatenate([
                    rng.choice(normal_idx, size=half,
                               replace=normal_idx.size < half),
                    rng.choice(anomaly_idx, size=half,
                               replace=anomaly_idx.size < half),
                ])
            else:
                batch_idx = rng.choice(n, size=min(cfg.batch_size, n), replace=False)
            # Keep temporal order within the batch so the smoothness term
            # compares near-consecutive windows.
            batch_idx = np.sort(batch_idx)
            logits = self.model(windows[batch_idx])
            loss = vad_loss(logits, labels[batch_idx],
                            lambda_spa=cfg.lambda_spa, lambda_smt=cfg.lambda_smt)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            result.losses.append(float(loss.item()))
        result.steps = cfg.steps
        result.final_loss = result.losses[-1] if result.losses else float("nan")
        self.model.eval()
        return result
