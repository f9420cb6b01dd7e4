"""Per-KG hierarchical GNN and the multi-KG reasoning front end.

``HierarchicalGNN`` stacks ``depth + 2`` :class:`HierarchicalGNNLayer`
blocks (paper: "d + 2 GNN layers are applied in a hierarchical manner").
Layer 0 refines the raw joint-space embeddings (its E(0) is empty: the
sensor node receives no messages), layers 1..depth propagate reasoning
through the concept levels, and layer depth+1 collects into the embedding
node, whose final vector is the KG's reasoning embedding ``r_T``.

``KGReasoner`` assembles the GNN input from a KG: the sensor row carries
the encoded frame ``E_I(F_t)``; every concept row carries the differentiable
text-path embedding of that node's learnable token matrix.  This is the
junction where continuous adaptation gradients flow from the decision loss
into the KG token embeddings.

In eval mode the forward is split in two.  The **token side** pushes the
(|V|, D) node matrix — no batch axis — through dense, norm and ELU of every
layer and hands each level the two things its frame-dependent rows need
from it; the **frame side** carries only the current level's rows for the
batch.  On the served KGs that is 16 node-rows per frame instead of
(d+2)·|V| = 80, and on the edge only the tokens ever change, so off the
tape the token side is kept until they (or the structure, or a weight) do.
"""

from __future__ import annotations

import numpy as np

from ..embedding.joint_space import JointEmbeddingModel
from ..kg.graph import ReasoningKG
from ..nn.layers import Module
from ..nn.tensor import Tensor, is_grad_enabled
from .layers import GraphSpec, HierarchicalGNNLayer

__all__ = ["HierarchicalGNN", "KGReasoner"]


class HierarchicalGNN(Module):
    """Stack of ``depth + 2`` hierarchical GNN layers for one KG shape.

    Weights depend only on dimensionalities, never on the concrete graph,
    so the same instance serves the KG across structural adaptations.
    """

    def __init__(self, depth: int, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator):
        super().__init__()
        self.depth = depth
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        dims = [input_dim] + [hidden_dim] * (depth + 2)
        self.layers = [
            HierarchicalGNNLayer(dims[i], dims[i + 1], rng)
            for i in range(depth + 2)
        ]

    @property
    def output_dim(self) -> int:
        return self.hidden_dim

    def forward(self, x: Tensor, spec: GraphSpec) -> Tensor:
        """Propagate (B, |V|, input_dim) -> final reasoning embedding (B, D).

        Returns the embedding-node row of the last layer's output — the
        paper's ``r_T`` extracted from ``X_{d+2}``.
        """
        if spec.depth != self.depth:
            raise ValueError(f"spec depth {spec.depth} != model depth {self.depth}")
        h = x
        for level, layer in enumerate(self.layers):
            h = layer(h, spec, level)
        return h[:, spec.embedding_row, :]

    @property
    def norm_training(self) -> bool:
        """Whether batch normalization takes its statistics from the input.

        It then takes them over *all* nodes, so every row depends on every
        frame and only the all-nodes path (:meth:`forward_embedded`) is
        correct; with frozen statistics :meth:`token_side` +
        :meth:`frame_side` compute the same values from far fewer rows.
        """
        return any(layer.norm.training for layer in self.layers)

    def token_side(self, base: Tensor, spec: GraphSpec
                   ) -> list[tuple[Tensor, Tensor]]:
        """Everything the forward derives from the node matrix alone.

        A row is a function of the tokens only until its node receives
        messages, which happens at the layer of its own level — so up to
        there it never takes part in message passing, and the whole token
        side is dense -> norm -> ELU on the (|V|, D) matrix.  Per level
        ``1 .. depth + 1`` this yields ``(own, target_factor)`` as
        :meth:`HierarchicalGNNLayer.propagate` takes them: the level's
        refined rows with the receiving nodes zeroed (a node whose
        predecessors were all pruned still enters the next level, as a row
        shared by every frame), and the target row of each edge's Eq. 2
        product.  Ordinary tape ops: gradients reach the tokens through
        them, the sum over the batch happening where ``propagate``
        broadcasts.
        """
        if spec.depth != self.depth:
            raise ValueError(f"spec depth {spec.depth} != model depth {self.depth}")
        sides = []
        refined = self.layers[0].dense(base)  # layer 0 passes no message
        for below, layer, level in zip(self.layers, self.layers[1:],
                                       spec.level_slices[1:]):
            refined = layer.dense(below.norm(refined).elu())
            rows = refined.take_rows(level.rows, level.row_passes)
            sides.append((rows * Tensor(level.keep_mask),
                          rows.take_rows(level.targets,
                                         level.edges.target_passes)))
        return sides

    def frame_side(self, encoded: Tensor,
                   sides: list[tuple[list[tuple[Tensor, Tensor]], GraphSpec]],
                   owner: np.ndarray | None = None) -> Tensor:
        """(B, input_dim) frame encodings -> reasoning embeddings (B, D).

        Level 0 is the sensor row alone, level ``depth + 1`` the embedding
        node alone; in between only the current level's rows are carried.

        ``sides`` holds one ``(token_side, spec)`` per token state, ``owner[b]``
        says whose frame ``b`` is (``None`` with one state: its ``(n, D)``
        arrays broadcast).  Layer 0 runs once over all frames; states of one
        :attr:`GraphSpec.signature` climb the levels together, each frame
        gathering its owner's rows into the leading axis, a diverged structure
        (a prune) alone.  Elementwise work, row-stable GEMMs: batch-invariant.
        """
        first = self.layers[0]
        h = first.norm(first.dense(encoded)).elu().reshape(
            encoded.shape[0], 1, -1)
        if len(sides) == 1:
            return self._climb(h, *sides[0])
        groups: dict[tuple, list[int]] = {}
        for index, (_, spec) in enumerate(sides):
            groups.setdefault(spec.signature, []).append(index)
        alone = len(groups) == 1  # the usual case: all frames, in place
        outputs, frames = [], []
        for members in groups.values():
            mine = slice(None) if alone else np.flatnonzero(np.isin(owner, members))
            token_side, spec = sides[members[0]]
            if len(members) > 1:
                local = np.searchsorted(members, owner[mine])
                token_side = [  # per level: members' (own, factor), stacked
                    tuple(Tensor.stack(column)[local] for column in zip(*level))
                    for level in zip(*(sides[m][0] for m in members))]
            outputs.append(self._climb(h[mine], token_side, spec))
            frames.append(mine)
        if alone:
            return outputs[0]
        return Tensor.concat(outputs)[np.argsort(np.concatenate(frames))]

    def _climb(self, h: Tensor, token_side: list[tuple[Tensor, Tensor]],
               spec: GraphSpec) -> Tensor:
        """Levels ``1 .. depth + 1`` over the sensor rows ``h`` (B, 1, D)."""
        for layer, level, (own, target_factor) in zip(
                self.layers[1:], spec.level_slices[1:], token_side):
            h = layer.propagate(h, level, own, target_factor)
        return h[:, 0, :]

    def forward_embedded(self, base: Tensor, encoded: Tensor,
                         spec: GraphSpec) -> Tensor:
        """Like :meth:`forward`, from the factored GNN input.

        The all-nodes path: required while :attr:`norm_training`, and the
        reference :meth:`token_side` + :meth:`frame_side` are tested
        against.

        ``base`` is the (|V|, input_dim) static node matrix (concept rows
        from the text path, sensor row ignored) and ``encoded`` the
        (B, input_dim) frame encodings destined for the sensor row.  The
        layer-0 dense refinement distributes over that row structure, so
        instead of materializing the (B, |V|, input_dim) input — by far the
        largest tensor of the whole forward pass, ``input_dim`` being the
        joint-space width — we refine the two factors separately and
        assemble the much smaller (B, |V|, hidden) result.
        """
        if spec.depth != self.depth:
            raise ValueError(f"spec depth {spec.depth} != model depth {self.depth}")
        first = self.layers[0]
        refined_base = first.dense(base)        # (|V|, hidden)
        refined_frames = first.dense(encoded)   # (B, hidden)
        sensor = Tensor(spec.sensor_one_hot)    # (|V|, 1)
        refined = (refined_base * (1.0 - sensor)
                   + refined_frames.reshape(encoded.shape[0], 1, -1) * sensor)
        h = first.finish(refined, spec, 0)
        for level, layer in enumerate(self.layers[1:], start=1):
            h = layer(h, spec, level)
        return h[:, spec.embedding_row, :]


class KGReasoner(Module):
    """Binds one reasoning KG + the joint embedding model + a GNN.

    Responsibilities:

    * compile and cache the :class:`GraphSpec` (recompiled on structural
      adaptation via :meth:`refresh_structure`);
    * build the GNN input matrix: concept-node rows from learnable token
      embeddings (differentiable), sensor row from encoded frames;
    * expose the per-node token tensors so the adaptation controller can
      mark them as trainable leaves.
    """

    def __init__(self, kg: ReasoningKG, embedding_model: JointEmbeddingModel,
                 gnn: HierarchicalGNN):
        super().__init__()
        if not kg.tokens_initialized():
            raise ValueError("KG token embeddings must be initialized "
                             "(call kg.initialize_tokens) before reasoning")
        self.kg = kg
        self.embedding_model = embedding_model
        self.gnn = gnn
        self.spec = GraphSpec(kg)
        # Off-tape token side and the arrays it was computed from.
        self._token_side: list[tuple[Tensor, Tensor]] | None = None
        self._token_side_inputs: list[object] = []
        self._token_tensors: dict[int, Tensor] = {}
        self._sync_token_tensors(trainable=False)

    # ------------------------------------------------------------------
    # Token tensors (the adaptation target)
    # ------------------------------------------------------------------
    def _sync_token_tensors(self, trainable: bool) -> None:
        self._token_tensors = {
            node.node_id: Tensor(node.token_embeddings, requires_grad=trainable)
            for node in self.kg.concept_nodes()
        }
        self._token_side = None  # the KG's arrays are read afresh

    def token_tensors(self) -> dict[int, Tensor]:
        """Node id -> its learnable token-embedding tensor."""
        return dict(self._token_tensors)

    def set_tokens_trainable(self, trainable: bool) -> None:
        """Mark the KG token embeddings as adaptation leaves (or freeze them)."""
        self._sync_token_tensors(trainable=trainable)

    def commit_tokens(self) -> None:
        """Write current token tensor values back into the KG nodes."""
        for node in self.kg.concept_nodes():
            tensor = self._token_tensors.get(node.node_id)
            if tensor is not None:
                node.token_embeddings = tensor.data.copy()
        # Also covers a token array edited in place before the commit.
        self._token_side = None

    def refresh_structure(self) -> None:
        """Recompile after node pruning/creation changed the KG."""
        self.spec = GraphSpec(self.kg)
        trainable = any(t.requires_grad for t in self._token_tensors.values())
        self._sync_token_tensors(trainable=trainable)

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def node_embedding_matrix(self) -> Tensor:
        """(|V|, joint_dim) matrix of node embeddings via the text path.

        The sensor row is zeroed here and overwritten with the frame
        encoding in :meth:`forward`.  The embedding node gets a small
        constant vector rather than zeros: Eq. 2's messages multiply source
        and destination embeddings, so an exactly-zero destination would
        annihilate both the messages into the embedding node and — worse —
        every gradient flowing back through them at initialization.
        """
        joint_dim = self.embedding_model.joint_dim
        base = np.zeros((self.spec.num_nodes, joint_dim))
        base[self.spec.embedding_row] = 0.05 / np.sqrt(joint_dim)
        rows = np.array([self.spec.row_of(node_id)
                         for node_id in self._token_tensors], dtype=np.int64)
        return self.embedding_model.encode_token_tensors(
            list(self._token_tensors.values()), rows, base)

    def _current_token_side(self) -> list[tuple[Tensor, Tensor]]:
        """The GNN's token side for the tokens, structure and weights as
        they are now.

        On the tape it is recomputed so gradients flow through it.  Off the
        tape it is a function of the arrays listed here and nothing else,
        and every writer in this codebase *rebinds* them (``tensor.data =
        ...``, never an in-place store — ``repro lint`` rule
        ``data-rebind``), so it is reused for as long as each is still the
        same object.
        """
        if is_grad_enabled():
            return self.gnn.token_side(self.node_embedding_matrix(), self.spec)
        inputs: list[object] = [self.spec]
        inputs += [t.data for t in self._token_tensors.values()]
        for layer in self.gnn.layers:
            inputs += [layer.dense.weight.data, layer.dense.bias.data,
                       layer.norm.gamma.data, layer.norm.beta.data,
                       layer.norm.running_mean, layer.norm.running_var]
        stale = self._token_side is None or any(
            a is not b for a, b in zip(inputs, self._token_side_inputs))
        if stale:
            self._token_side = self.gnn.token_side(
                self.node_embedding_matrix(), self.spec)
            self._token_side_inputs = inputs
        return self._token_side

    def forward(self, frames: np.ndarray,
                sharers: list["KGReasoner"] | None = None,
                owner: np.ndarray | None = None) -> Tensor:
        """Reason over a batch of frames -> (B, gnn_output_dim).

        ``frames`` holds raw frame features (B, frame_dim); they are encoded
        with the frozen image encoder E_I and placed on the sensor node.
        With ``sharers`` (over this GNN, this one among them) frame ``b`` is
        reasoned over ``sharers[owner[b]]``'s KG.
        """
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim == 1:
            frames = frames[None, :]
        # Frames are data (constant on the tape); adaptation gradients flow
        # through the token side into the token embeddings.
        encoded = Tensor(self.embedding_model.encode_image(frames))
        if self.gnn.norm_training:  # never shared: Module.train refuses
            return self.gnn.forward_embedded(self.node_embedding_matrix(),
                                             encoded, self.spec)
        return self.gnn.frame_side(
            encoded, [(reasoner._current_token_side(), reasoner.spec)
                      for reasoner in sharers or [self]], owner)
