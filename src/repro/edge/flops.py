"""FLOP accounting for the deployed models.

Table I reports computational costs; the paper uses round constants for the
GPT-4 side (1e15 FLOPs per KG generation) and ~1e9 FLOPs/day for edge
adaptation.  We count the *actual* FLOPs of our model shapes so the edge
numbers are measured rather than assumed, and keep the paper's constants
for the cloud side (GPT-4 is not ours to measure).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gnn.pipeline import MissionGNNModel

__all__ = ["FlopCounts", "count_gnn_forward", "count_token_side",
           "count_temporal_forward",
           "count_model_forward", "count_adaptation_step",
           "GPT4_KG_GENERATION_FLOPS"]

#: Paper constant: one GPT-4 mission-KG generation costs ~1e15 FLOPs.
GPT4_KG_GENERATION_FLOPS = 1e15


@dataclass(frozen=True)
class FlopCounts:
    """FLOPs broken down by pipeline stage (per frame window)."""

    image_encoder: float
    gnn: float
    temporal: float
    decision: float

    @property
    def total(self) -> float:
        return self.image_encoder + self.gnn + self.temporal + self.decision


def _dense_flops(batch: int, in_dim: int, out_dim: int) -> float:
    return 2.0 * batch * in_dim * out_dim


#: Elementwise cost per feature of the fused batch-norm + ELU (Eq. 4).
_NORM_ELU_FLOPS = 8.0


def count_gnn_forward(model: MissionGNNModel, kg_index: int = 0) -> float:
    """FLOPs for one frame through one KG's hierarchical GNN.

    Counts what the deployed (eval-mode) forward executes per frame — its
    frame side: at layer ``l`` the dense refinement of level ``l-1``'s rows,
    one product and one scaled add per edge of E(l), and norm + ELU on
    level ``l``'s rows.  What depends on the tokens alone is
    :func:`count_token_side`, paid once per token version.
    """
    reasoner = model.reasoners[kg_index]
    levels = reasoner.spec.level_slices
    first = reasoner.gnn.layers[0]
    # Layer 0: the sensor row, from the encoded frame.
    flops = (_dense_flops(1, first.in_dim, first.out_dim)
             + _NORM_ELU_FLOPS * first.out_dim)
    for below, level, layer in zip(levels, levels[1:], reasoner.gnn.layers[1:]):
        n_edges = level.sources.size
        if n_edges:
            flops += _dense_flops(below.rows.size, layer.in_dim,
                                  layer.out_dim)        # Eq. 1
            flops += n_edges * layer.out_dim            # Eq. 2 products
            flops += 2.0 * n_edges * layer.out_dim      # Eq. 3 aggregation
        flops += (1.0 + _NORM_ELU_FLOPS) * level.rows.size * layer.out_dim
    return flops


def count_token_side(model: MissionGNNModel) -> float:
    """FLOPs to derive every KG's token side from its token embeddings.

    The text path of each concept node (token mean, then the projection
    into the joint space) and dense + norm + ELU on all |V| rows at each
    of the ``d + 2`` layers.  Independent of the frames: paid once per
    token version, i.e. once per gradient step while adapting and never
    while the tokens rest.
    """
    embedding = model.embedding_model
    flops = 0.0
    for reasoner in model.reasoners:
        for node in reasoner.kg.concept_nodes():
            flops += node.token_embeddings.size
            flops += _dense_flops(1, embedding.token_dim, embedding.joint_dim)
        v = reasoner.spec.num_nodes
        for layer in reasoner.gnn.layers:
            flops += _dense_flops(v, layer.in_dim, layer.out_dim)
            flops += _NORM_ELU_FLOPS * v * layer.out_dim
    return flops


def count_temporal_forward(model: MissionGNNModel) -> float:
    """Matrix-product FLOPs for one window through the short-term transformer.

    Counts what ``TransformerEncoder.last_output`` executes: the input
    projection on all ``T`` positions, every block but the last on all
    ``T``, and the last block from one query (``Tensor.last_query_attention``:
    ``q``, the key fold, the value projection after mixing; then ``o``),
    with feed-forward and output projection on the final position alone.
    Norms, softmax and residuals are elementwise, a few percent of this,
    and not counted.
    """
    encoder = model.temporal.encoder
    t = model.temporal.window
    d = encoder.model_dim
    d_in = encoder.input_dim
    flops = _dense_flops(t, d_in, d)  # input projection
    for layer in encoder.layers[:-1]:
        ff = layer.ff1.out_features
        flops += 4.0 * _dense_flops(t, d, d)      # q, k, v, o projections
        flops += 2.0 * _dense_flops(t, t, d)      # scores + context matmuls
        flops += _dense_flops(t, d, ff) + _dense_flops(t, ff, d)
    last = encoder.layers[-1]
    ff = last.ff1.out_features
    flops += 4.0 * _dense_flops(1, d, d)          # q, key fold, values, o
    flops += 2.0 * 2.0 * last.attn.num_heads * t * d  # scores + mix
    flops += _dense_flops(1, d, ff) + _dense_flops(1, ff, d)
    flops += _dense_flops(1, d, d_in)  # output projection
    return flops


def count_model_forward(model: MissionGNNModel) -> FlopCounts:
    """Per-window inference FLOPs for the full deployed pipeline (tokens at
    rest: the GNN share is the frame side only)."""
    embedding = model.embedding_model
    t = model.temporal.window
    image = 2.0 * t * embedding.frame_dim * embedding.joint_dim
    gnn = t * sum(count_gnn_forward(model, i) for i in range(len(model.reasoners)))
    temporal = count_temporal_forward(model)
    decision = _dense_flops(1, model.reasoning_dim,
                            model.decision.num_anomaly_types + 1)
    return FlopCounts(image_encoder=image, gnn=gnn, temporal=temporal,
                      decision=decision)


def count_adaptation_step(model: MissionGNNModel, batch_windows: int,
                          inner_steps: int, rounds: int) -> float:
    """FLOPs for one full edge adaptation phase.

    Backward passes cost roughly 2x a forward pass, so one gradient
    iteration is ~3x forward; re-scoring between rounds adds one forward
    sweep per round.  Each of those sweeps covers ``batch_windows`` windows
    but derives the token side once — the tokens move per gradient step,
    not per window.
    """
    sweep = (batch_windows * count_model_forward(model).total
             + count_token_side(model))
    return rounds * sweep * (1.0 + 3.0 * inner_steps)
