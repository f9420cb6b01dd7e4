"""End-to-end MissionGNN-style decision model (paper Fig. 2B).

``MissionGNNModel`` chains, per frame window:

1. per-KG hierarchical GNN reasoning (sensor -> embedding node) producing
   ``r_{T_i}`` for each mission KG;
2. concatenation ``f_t = r_{T_1} ^ ... ^ r_{T_n}``;
3. the short-term temporal transformer over the last ``T`` frames;
4. the linear decision head (Eq. 5).

The model's trainable surface is configurable in the exact way the paper
needs: during initial training everything learns; after deployment
``freeze()`` locks all model weights and ``set_tokens_trainable(True)``
re-opens *only* the KG token embeddings for continuous adaptation.
Then only KG state differs between a mission's streams: ``model.sharer()``
hands out models that own just that, and :func:`score_parts` scores any
number of them in one forward.
"""

from __future__ import annotations

import copy
import weakref
from dataclasses import dataclass

import numpy as np

from ..embedding.joint_space import JointEmbeddingModel
from ..kg.graph import ReasoningKG
from ..kg.serialization import kg_from_dict, kg_to_dict
from ..nn.layers import Module
from ..nn.tensor import Tensor, no_grad
from ..utils.rng import derive_rng
from .decision import DecisionModel
from .model import HierarchicalGNN, KGReasoner
from .temporal import ShortTermTemporalModel

__all__ = ["MissionGNNConfig", "MissionGNNModel", "score_parts"]


@dataclass
class MissionGNNConfig:
    """Model hyperparameters; defaults follow the paper's Section IV-A."""

    gnn_hidden_dim: int = 8        # D_{m_i,l} = 8 across all layers
    temporal_window: int = 8       # T (frames per short-term window)
    temporal_model_dim: int = 128  # transformer inner dimensionality
    temporal_heads: int = 8        # attention heads
    temporal_layers: int = 1
    seed: int = 7


class MissionGNNModel(Module):
    """Multi-KG GNN reasoner + temporal transformer + decision head."""

    def __init__(self, kgs: list[ReasoningKG], embedding_model: JointEmbeddingModel,
                 config: MissionGNNConfig | None = None):
        super().__init__()
        if not kgs:
            raise ValueError("need at least one mission KG")
        self.config = config or MissionGNNConfig()
        self.embedding_model = embedding_model
        cfg = self.config

        self.reasoners: list[KGReasoner] = []
        for index, kg in enumerate(kgs):
            rng = derive_rng(cfg.seed, "gnn", index)
            gnn = HierarchicalGNN(depth=kg.depth,
                                  input_dim=embedding_model.joint_dim,
                                  hidden_dim=cfg.gnn_hidden_dim, rng=rng)
            self.reasoners.append(KGReasoner(kg, embedding_model, gnn))

        self.reasoning_dim = cfg.gnn_hidden_dim * len(kgs)
        self.temporal = ShortTermTemporalModel(
            reasoning_dim=self.reasoning_dim, window=cfg.temporal_window,
            rng=derive_rng(cfg.seed, "temporal"),
            model_dim=cfg.temporal_model_dim, num_heads=cfg.temporal_heads,
            num_layers=cfg.temporal_layers)
        self.decision = DecisionModel(self.reasoning_dim, num_anomaly_types=len(kgs),
                                      rng=derive_rng(cfg.seed, "decision"))
        self._shared_codes: dict[int, np.ndarray] = {}  # sharers copy the dict
        self._scored: tuple | None = None  # see codes_of

    # ------------------------------------------------------------------
    # Forward paths
    # ------------------------------------------------------------------
    def forward(self, windows: np.ndarray) -> Tensor:
        """Frame windows (B, T, frame_dim) -> decision logits (B, n+1)."""
        windows = _as_windows(windows)
        batch, length, frame_dim = windows.shape
        return self._decide([reasoner(windows.reshape(-1, frame_dim))
                             for reasoner in self.reasoners], batch, length)

    def anomaly_scores(self, windows: np.ndarray) -> np.ndarray:
        """Inference-only anomaly probabilities p_A for each window (B,)."""
        return score_parts([(self, windows)])

    def frame_codes(self, windows: np.ndarray) -> np.ndarray:
        """(B, T, frame_dim) windows -> (B, K, T, D) *frame codes* (E_I, then
        :meth:`HierarchicalGNN.frame_code` per KG): all a frozen forward reads."""
        encoded = Tensor(self.embedding_model.encode_image(_as_windows(windows)))
        with no_grad():  # one row-stable GEMM per layer over all B * T frames
            codes = [reasoner.gnn.frame_code(encoded).data
                     for reasoner in self.reasoners]
        return codes[0][:, None] if len(codes) == 1 else np.stack(codes, axis=1)

    def code_logits(self, codes: np.ndarray) -> Tensor:
        """:meth:`forward` of the windows with these frame codes."""
        return _logits([(self, len(codes))], codes)

    def code_scores(self, codes: np.ndarray) -> np.ndarray:
        """:meth:`anomaly_scores` of the windows with these frame codes."""
        return _scores([(self, len(codes))], codes)

    def codes_of(self, windows: np.ndarray) -> np.ndarray:
        """Frame codes of ``windows``: the last :func:`score_parts`' if it
        scored this very array (a served round scores, then ingests)."""
        scored, self._scored = self._scored, None
        if scored is not None and scored[0]() is windows:
            return scored[1]
        return self.frame_codes(windows)

    def shared_codes(self, windows: np.ndarray) -> np.ndarray:
        """Frame codes of an array all sharers pass (a mission's anchors),
        computed once per weight set and forgotten with the array."""
        windows = np.asarray(windows, dtype=np.float64)
        if id(windows) not in self._shared_codes:
            self._shared_codes[id(windows)] = self.frame_codes(windows)
            weakref.finalize(windows, self._shared_codes.pop, id(windows), None)
        return self._shared_codes[id(windows)]

    def _decide(self, outputs: list[Tensor], batch: int, length: int) -> Tensor:
        reasoning = outputs[0] if len(outputs) == 1 else Tensor.concat(outputs, axis=1)
        return self.decision(self.temporal(
            reasoning.reshape(batch, length, self.reasoning_dim)))

    @property
    def weight_set(self) -> Module:
        """The same object for exactly the models that share their weights."""
        return self.temporal

    def sharer(self, kgs: list[ReasoningKG] | None = None) -> "MissionGNNModel":
        """A model over this one's GNNs, temporal model and decision head
        that owns only its KG state: ``kgs``, or copies of this model's (via
        their serialized form, as an artifact rebuild gets them).  The shared
        modules are frozen, in eval mode, and now refuse ``train``/``unfreeze``."""
        if kgs is None:
            kgs = [kg_from_dict(kg_to_dict(kg)) for kg in self.kgs]
        twin = copy.copy(self)  # codes in _scored fit every sharer
        twin.reasoners = [
            KGReasoner(kg, self.embedding_model, reasoner.gnn)
            for kg, reasoner in zip(kgs, self.reasoners, strict=True)]
        for shared in (*(r.gnn for r in self.reasoners),
                       self.temporal, self.decision):
            for module in shared.eval().freeze().modules():
                module.shared = True
        return twin

    # ------------------------------------------------------------------
    # Adaptation surface control (paper Fig. 2C)
    # ------------------------------------------------------------------
    def freeze_for_deployment(self) -> None:
        """Freeze every model weight; open only the KG token embeddings."""
        self.freeze()
        self.eval()
        for reasoner in self.reasoners:
            reasoner.set_tokens_trainable(True)

    def token_parameters(self) -> list[Tensor]:
        """All KG token-embedding tensors (the adaptation leaves)."""
        params: list[Tensor] = []
        for reasoner in self.reasoners:
            params.extend(reasoner.token_tensors().values())
        return params

    def commit_tokens(self) -> None:
        for reasoner in self.reasoners:
            reasoner.commit_tokens()

    @property
    def kgs(self) -> list[ReasoningKG]:
        return [reasoner.kg for reasoner in self.reasoners]


def _as_windows(windows: np.ndarray) -> np.ndarray:
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3:
        raise ValueError(f"expected (B, T, frame_dim) windows, got {windows.shape}")
    return windows


def _logits(parts: list[tuple[MissionGNNModel, int]], codes: np.ndarray) -> Tensor:
    """Decision logits of (B, K, T, D) frame ``codes`` over one weight set,
    ``parts`` (``[(model, window count), ...]``) saying whose: all frames
    climb each GNN together, the temporal model and decision head run once."""
    lead = parts[0][0]
    batch, _, length, hidden = codes.shape
    states = list({id(model): model for model, _ in parts}.values())
    owner = None  # with several token states: whose each frame is
    if len(states) > 1:
        owner = np.repeat([states.index(model) for model, _ in parts],
                          [count * length for _, count in parts])
    return lead._decide([lead.reasoners[k].climb(
        Tensor(codes[:, k].reshape(-1, hidden)),
        [model.reasoners[k] for model in states], owner)
        for k in range(len(lead.reasoners))], batch, length)


def _scores(parts: list[tuple[MissionGNNModel, int]], codes: np.ndarray) -> np.ndarray:
    with no_grad():
        probs = _logits(parts, codes).softmax(axis=-1)
    return DecisionModel.anomaly_probability(probs.numpy())


def score_parts(parts: list[tuple[MissionGNNModel, np.ndarray]]) -> np.ndarray:
    """Anomaly probabilities p_A, concatenated in part order, of ``[(model,
    windows), ...]`` sharing one :attr:`~MissionGNNModel.weight_set`, from
    one forward.  A window's score does not depend on what it rode with.
    An adapting model keeps its part's codes for :meth:`~MissionGNNModel.codes_of`."""
    batches = [_as_windows(windows) for _, windows in parts]
    codes = parts[0][0].frame_codes(
        batches[0] if len(batches) == 1 else np.concatenate(batches))
    start = 0
    for (model, _), windows in zip(parts, batches):
        if any(t.requires_grad for t in model.token_parameters()):  # a controller's
            model._scored = (weakref.ref(windows), codes[start:start + len(windows)])
        start += len(windows)
    return _scores([(model, len(windows))
                    for (model, _), windows in zip(parts, batches)], codes)
