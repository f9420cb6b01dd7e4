"""Token-embedding-only backpropagation (paper Fig. 2C / Fig. 4A).

"These selected data points are then used to compute loss functions, and
backpropagation is performed to update the token embeddings of the
mission-specific KG.  Importantly, only the embeddings of the KG tokens are
updated; the weights of other models, including the large joint embedding
model and the GNN-based decision model, remain unchanged."

``TokenEmbeddingUpdater`` owns a plain SGD optimizer over exactly the KG
token tensors; :meth:`update` runs one pseudo-labeled gradient step and
returns per-node L2 update distances — the signal the convergence tracker
(Fig. 4's "Compute Distance of Each Node") consumes.  SGD's steps are
proportional to the gradient, so a well-fitting pseudo-label batch (tiny
loss) produces a tiny, safe update, and it keeps no state between steps:
a checkpoint carries none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gnn.pipeline import MissionGNNModel
from ..nn.losses import vad_loss
from ..nn.optim import SGD, clip_grad_norm

__all__ = ["TokenUpdateConfig", "TokenUpdateResult", "TokenEmbeddingUpdater"]


#: The MissionGNN loss's sparsity and smoothness weights (as in training).
LAMBDA_SPA = 0.001
LAMBDA_SMT = 0.001
#: Gradient-norm clip of one inner step.
GRAD_CLIP = 1.0
#: Token vectors are re-projected to at most this norm after every step.
MAX_TOKEN_NORM = 2.5


@dataclass
class TokenUpdateConfig:
    """Adaptation-step hyperparameters."""

    learning_rate: float = 0.03
    inner_steps: int = 3  # gradient iterations per update call


@dataclass
class TokenUpdateResult:
    """One adaptation step's outcome.

    ``node_distances`` maps (kg index, node id) -> L2 distance between the
    node's token embeddings before and after the step.
    """

    loss: float
    node_distances: dict[tuple[int, int], float]
    grad_norm: float


class TokenEmbeddingUpdater:
    """Runs pseudo-labeled gradient steps on the KG token embeddings only."""

    def __init__(self, model: MissionGNNModel, config: TokenUpdateConfig | None = None):
        self.model = model
        self.config = config or TokenUpdateConfig()
        if not any(p.requires_grad for p in model.token_parameters()):
            raise ValueError(
                "KG token embeddings are not trainable; call "
                "model.freeze_for_deployment() before constructing the updater")
        if any(p.requires_grad for p in model.parameters()):
            raise ValueError("model weights must be frozen during adaptation")
        self.rebuild_optimizer()

    def rebuild_optimizer(self) -> None:
        """Bind the optimizer to the current token tensors (after
        structural KG changes or a checkpoint restore rebound them)."""
        self._optimizer = SGD(self.model.token_parameters(),
                              lr=self.config.learning_rate)

    # ------------------------------------------------------------------
    def update(self, windows: np.ndarray, pseudo_labels: np.ndarray,
               anomaly_type: int = 1, lr_scale: float = 1.0) -> TokenUpdateResult:
        """One adaptation step.

        Parameters
        ----------
        windows:
            (B, T, frame_dim) recent frame windows, or their (B, K, T, D)
            frame codes (:meth:`MissionGNNModel.frame_codes`).
        pseudo_labels:
            (B,) binary pseudo-labels from the monitor (1 = pseudo-anomaly).
        anomaly_type:
            Class index assigned to pseudo-anomalies (paper: new data points
            "similar to the initially trained anomalous actions" keep the
            mission's anomaly class).
        lr_scale:
            Multiplier on the learning rate for this step.  The controller
            scales updates by pseudo-label confidence: when the top-K barely
            separates from the window (strong shifts), labels are noisy and
            adaptation must proceed slowly.
        """
        windows = np.asarray(windows, dtype=np.float64)
        pseudo_labels = np.asarray(pseudo_labels, dtype=np.int64)
        if windows.shape[0] != pseudo_labels.shape[0]:
            raise ValueError("windows/pseudo_labels length mismatch")
        if windows.shape[0] == 0:
            raise ValueError("empty adaptation batch")
        codes = windows if windows.ndim == 4 else self.model.frame_codes(windows)
        cfg = self.config

        before = {
            (kg_index, node_id): tensor.data.copy()
            for kg_index, reasoner in enumerate(self.model.reasoners)
            for node_id, tensor in reasoner.token_tensors().items()
        }

        targets = np.where(pseudo_labels > 0, anomaly_type, 0)
        loss_value = float("nan")
        grad_norm = 0.0
        base_lr = self._optimizer.lr
        self._optimizer.lr = base_lr * max(lr_scale, 0.0)
        for _ in range(max(cfg.inner_steps, 1)):
            loss = vad_loss(self.model.code_logits(codes), targets,
                            lambda_spa=LAMBDA_SPA, lambda_smt=LAMBDA_SMT)
            self._optimizer.zero_grad()
            loss.backward()
            grad_norm = clip_grad_norm(self.model.token_parameters(), GRAD_CLIP)
            self._optimizer.step()
            loss_value = float(loss.item())
            # Vocabulary embeddings are unit-norm; keep learned tokens on
            # a comparable scale so retrieval stays meaningful and the
            # frozen GNN is never driven far outside its training envelope.
            for tensor in self.model.token_parameters():
                norms = np.linalg.norm(tensor.data, axis=-1, keepdims=True)
                scale = np.minimum(1.0,
                                   MAX_TOKEN_NORM / np.maximum(norms, 1e-12))
                tensor.data = tensor.data * scale
        self._optimizer.lr = base_lr
        self.model.commit_tokens()

        distances: dict[tuple[int, int], float] = {}
        for kg_index, reasoner in enumerate(self.model.reasoners):
            for node_id, tensor in reasoner.token_tensors().items():
                key = (kg_index, node_id)
                if key in before:
                    distances[key] = float(
                        np.linalg.norm(tensor.data - before[key]))
        return TokenUpdateResult(loss=loss_value,
                                 node_distances=distances,
                                 grad_norm=grad_norm)
