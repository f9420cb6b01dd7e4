"""Hierarchical GNN layers (paper Eq. 1-4).

Each GNN layer ``G_l`` is five sub-layers applied to *all* nodes of a
reasoning KG:

1. dense ``phi_l(X) = W X + b``                                   (Eq. 1)
2. hierarchical message passing over ``E(l)`` — the edges into the
   level-l nodes: ``M_{s,d} = X_s * X_d`` (elementwise product)   (Eq. 2)
3. hierarchical aggregation — level-l nodes average their incoming
   messages, every other node keeps its embedding                 (Eq. 3)
4. batch normalization over all nodes
5. ELU activation                                                 (Eq. 4)

Because KG structure changes at adaptation time (node pruning/creation),
the structural part is factored into a :class:`GraphSpec` compiled from a
``ReasoningKG``; layer weights depend only on dimensionalities, so a
recompile never invalidates trained weights.

With frozen normalization statistics, only the level-``l`` rows of layer
``l`` depend on the frame: edges go level ``l-1 -> l`` and nothing reads a
row again once the next level has consumed it.  :meth:`HierarchicalGNNLayer.
propagate` is ``G_l`` restricted to those rows (the spec's
:class:`LevelSlice`); everything else is a function of the KG tokens alone
and is computed apart from the frames (``HierarchicalGNN.token_side``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kg.graph import ReasoningKG
from ..nn.layers import BatchNorm, Dense, Module
from ..nn.tensor import EdgeSchedule, Tensor, scatter_passes

__all__ = ["GraphSpec", "LevelSlice", "HierarchicalGNNLayer"]


@dataclass(frozen=True)
class LevelSlice:
    """One level of a :class:`GraphSpec` in level-local coordinates.

    ``rows`` are the matrix rows of the level's nodes; ``sources`` /
    ``targets`` are E(l)'s endpoints, in edge order, as positions within
    the previous level's ``rows`` / this level's ``rows``, and ``edges``
    the two compiled for the message-passing kernel; ``row_passes`` is
    ``rows`` compiled for :meth:`Tensor.take_rows` (``targets``' passes are
    ``edges.target_passes``); ``mean_scale`` and ``keep_mask`` are the
    spec's (|V|, 1) arrays cut down to ``rows``.
    """

    rows: np.ndarray
    row_passes: tuple
    sources: np.ndarray
    targets: np.ndarray
    edges: EdgeSchedule
    mean_scale: np.ndarray
    keep_mask: np.ndarray


class GraphSpec:
    """Immutable structural compilation of a reasoning KG.

    Attributes
    ----------
    node_ids:
        Sorted node ids; row ``i`` of the GNN's node-embedding matrix
        corresponds to ``node_ids[i]``.
    num_levels:
        ``depth + 2`` (sensor level 0 ... embedding level depth+1).
    edge_sources / edge_targets:
        Per level ``l``: integer row indices of E(l)'s endpoints.
    edge_schedules:
        Per level ``l``: the same edges compiled for the message-passing
        kernel (:class:`repro.nn.tensor.EdgeSchedule`).
    mean_scale / receive_mask / keep_mask:
        Per level ``l``: the (|V|, 1) reciprocal in-degree of each node (0
        for nodes receiving no messages), the (|V|, 1) indicator of nodes
        in V(l) that actually receive messages, and its complement.
        Together with a sum over ``edge_targets`` these realize Eq. 3's
        mean aggregation without a dense (|V|, |E(l)|) matrix.
    level_slices:
        Per level ``l``: the same structure in level-local coordinates
        (:class:`LevelSlice`), for the frame side of the forward.
    signature:
        Hashable ``level_slices`` shapes and edges; equal ones stack (frame side).
    """

    def __init__(self, kg: ReasoningKG):
        if kg.sensor_id is None or kg.embedding_id is None:
            raise ValueError("KG must have terminals attached before compilation")
        kg.validate()
        self.node_ids: list[int] = sorted(n.node_id for n in kg.nodes())
        self._row: dict[int, int] = {nid: i for i, nid in enumerate(self.node_ids)}
        self.num_nodes = len(self.node_ids)
        self.depth = kg.depth
        self.num_levels = kg.depth + 2
        self.sensor_row = self._row[kg.sensor_id]
        self.embedding_row = self._row[kg.embedding_id]
        self.levels = np.array([kg.node(nid).level for nid in self.node_ids])
        self.sensor_one_hot = np.zeros((self.num_nodes, 1))
        self.sensor_one_hot[self.sensor_row, 0] = 1.0

        ids = np.asarray(self.node_ids, dtype=np.int64)
        self.edge_sources: list[np.ndarray] = []
        self.edge_targets: list[np.ndarray] = []
        self.edge_schedules: list[EdgeSchedule] = []
        self.mean_scale: list[np.ndarray] = []
        self.receive_mask: list[np.ndarray] = []
        self.keep_mask: list[np.ndarray] = []
        for level in range(self.num_levels):
            edges = np.asarray(kg.edges_at_level(level),
                               dtype=np.int64).reshape(-1, 2)
            # ``node_ids`` is sorted, so row lookup is a binary search.
            sources = np.searchsorted(ids, edges[:, 0])
            targets = np.searchsorted(ids, edges[:, 1])
            self.edge_sources.append(sources)
            self.edge_targets.append(targets)
            self.edge_schedules.append(EdgeSchedule(sources, targets))
            in_degree = np.bincount(targets, minlength=self.num_nodes)
            receives = in_degree > 0
            scale = np.zeros((self.num_nodes, 1))
            scale[receives, 0] = 1.0 / in_degree[receives]
            mask = receives.astype(np.float64)[:, None]
            self.mean_scale.append(scale)
            self.receive_mask.append(mask)
            self.keep_mask.append(1.0 - mask)

        # Rows grouped by level; ``validate`` guarantees every edge of E(l)
        # starts at level l-1, so both endpoints have a level-local position.
        level_rows = [np.flatnonzero(self.levels == level)
                      for level in range(self.num_levels)]
        self.level_slices: list[LevelSlice] = []
        for level, rows in enumerate(level_rows):
            sources = np.searchsorted(level_rows[level - 1],
                                      self.edge_sources[level])
            targets = np.searchsorted(rows, self.edge_targets[level])
            self.level_slices.append(LevelSlice(
                rows=rows, row_passes=scatter_passes(rows),
                sources=sources, targets=targets,
                edges=EdgeSchedule(sources, targets),
                mean_scale=self.mean_scale[level][rows],
                keep_mask=self.keep_mask[level][rows]))
        self.signature = tuple((s.rows.size, s.sources.tobytes(), s.targets.tobytes())
                               for s in self.level_slices)

    def row_of(self, node_id: int) -> int:
        """Row index of a node id in the embedding matrix."""
        return self._row[node_id]


class HierarchicalGNNLayer(Module):
    """One GNN layer ``G_l`` (Eq. 1-4), structure supplied per call.

    ``forward(x, spec, level)`` takes node embeddings ``x`` of shape
    ``(B, |V|, D_in)`` and returns ``(B, |V|, D_out)``.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.dense = Dense(in_dim, out_dim, rng)
        self.norm = BatchNorm(out_dim)

    def forward(self, x: Tensor, spec: GraphSpec, level: int) -> Tensor:
        if x.ndim != 3:
            raise ValueError(f"expected (B, |V|, D) embeddings, got {x.shape}")
        if x.shape[1] != spec.num_nodes:
            raise ValueError("embedding matrix does not match the graph spec")
        refined = self.dense(x)  # Eq. 1, applied to all nodes
        return self.finish(refined, spec, level)

    def finish(self, refined: Tensor, spec: GraphSpec, level: int) -> Tensor:
        """Sub-layers 2-5 (messages, aggregation, norm, activation) applied
        to an already-refined ``phi_l(X)`` of shape ``(B, |V|, D_out)``."""
        edges = spec.edge_schedules[level]
        if edges.sources.size:
            # Eq. 2: per-edge messages X_s * X_d.  Eq. 3: mean-aggregate
            # into receiving nodes, identity elsewhere.  ``mean_scale`` is
            # zero on non-receiving nodes, so the aggregated term needs no
            # extra masking.
            combined = Tensor.message_pass(
                refined, refined[:, edges.targets, :],
                refined * Tensor(spec.keep_mask[level]), edges,
                spec.mean_scale[level])
        else:
            combined = refined

        return self.norm(combined).elu()  # Eq. 4

    def propagate(self, h: Tensor, level: LevelSlice, own: Tensor,
                  target_factor: Tensor) -> Tensor:
        """``G_l`` on the level's own rows only (frozen norm statistics).

        ``h`` holds the previous level's rows ``(B, n_{l-1}, D_in)``; the
        result is ``(B, n_l, D_out)``.  ``own`` ``(n_l, D_out)`` and
        ``target_factor`` ``(|E(l)|, D_out)`` come from the token side: the
        level's refined rows masked to the nodes that receive no message,
        and Eq. 2's target-row factor per edge — or, with a leading ``B``
        axis, each frame's own token side.  The same kernel as
        :meth:`finish` on these rows, so the values are bit-identical to
        the all-nodes path.
        """
        # Eq. 1 on the rows messages start from.  With no edge (the level's
        # predecessors were pruned) every row is the token side's, once per
        # frame, and ``h`` only says how many frames there are.
        refined = self.dense(h) if level.sources.size else h
        combined = Tensor.message_pass(refined, target_factor, own,
                                       level.edges, level.mean_scale)  # Eq. 2-3
        return self.norm(combined).elu()  # Eq. 4
