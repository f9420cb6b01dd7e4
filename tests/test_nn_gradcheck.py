"""Composite-module gradient checks against finite differences.

The per-op gradients are verified in test_nn_tensor.py; these tests verify
that *composed* graphs — attention, batch-norm in training mode, the full
hierarchical GNN layer, and the token->score path used by continuous
adaptation — still differentiate correctly end to end, and that each fused
kernel is the expression it replaced: same bits forward, same gradients.
"""

import numpy as np
import pytest

from repro.gnn import GraphSpec, HierarchicalGNNLayer
from repro.kg import ReasoningKG
from repro.nn import (
    BatchNorm,
    Dense,
    LayerNorm,
    MultiHeadAttention,
    Tensor,
    vad_loss,
)
from repro.nn.gradcheck import GradcheckError, check_gradients, numerical_gradient
from repro.nn.tensor import MIN_STABLE_GEMM_ROWS, EdgeSchedule, scatter_passes


def make_rng():
    return np.random.default_rng(0)


class TestCheckGradientsMachinery:
    def test_detects_correct_gradients(self):
        w = Tensor(np.array([2.0, -1.0]), requires_grad=True)

        def loss():
            return (w * w).sum()

        check_gradients(loss, [("w", w)], sample=None)

    def test_detects_wrong_gradients(self):
        """A gradient path silently severed by detach() must be caught:
        analytic sees d/dw (c*w) = c, finite differences see 2w."""
        w = Tensor(np.array([2.0, -1.0]), requires_grad=True)

        def loss():
            return (w.detach() * w).sum()

        with pytest.raises(GradcheckError):
            check_gradients(loss, [("w", w)], sample=None)

    def test_numerical_gradient_sampling(self):
        arr = np.arange(100.0)
        grad = numerical_gradient(lambda: float((arr ** 2).sum()), arr,
                                  sample=10)
        mask = ~np.isnan(grad)
        assert mask.sum() == 10
        np.testing.assert_allclose(grad[mask], 2 * arr[mask], rtol=1e-5)


class TestCompositeModules:
    def test_dense_layernorm_chain(self):
        rng = make_rng()
        dense = Dense(4, 3, rng)
        norm = LayerNorm(3)
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)

        def loss():
            return (norm(dense(x)) ** 2).sum()

        check_gradients(loss, [("x", x), ("w", dense.weight),
                               ("gamma", norm.gamma)], sample=None)

    def test_batchnorm_training_mode(self):
        """Batch statistics make every output depend on every input row —
        the classic place for a broadcasting bug."""
        rng = make_rng()
        bn = BatchNorm(3)
        bn.train()
        x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        base_mean = bn.running_mean.copy()
        base_var = bn.running_var.copy()

        def loss():
            # Freeze running-stat side effects so fn is a pure function.
            bn.running_mean = base_mean.copy()
            bn.running_var = base_var.copy()
            return (bn(x) * np.arange(3)).sum()

        check_gradients(loss, [("x", x), ("gamma", bn.gamma),
                               ("beta", bn.beta)], sample=None, atol=5e-4)

    def test_multihead_attention(self):
        rng = make_rng()
        attn = MultiHeadAttention(8, 2, rng, causal=True)
        x = Tensor(rng.normal(size=(1, 4, 8)), requires_grad=True)

        def loss():
            return (attn(x) ** 2).sum()

        check_gradients(loss, [("x", x), ("wq", attn.w_q.weight),
                               ("wo", attn.w_o.weight)], sample=30)

    def test_hierarchical_gnn_layer(self):
        """Eq. 1-4 end to end: dense + product messages + mean aggregation
        + batch-norm + ELU."""
        rng = make_rng()
        kg = ReasoningKG(mission="m", depth=2)
        a = kg.add_node("a", level=1)
        b = kg.add_node("b", level=1)
        c = kg.add_node("c", level=2)
        kg.add_edge(a, c)
        kg.add_edge(b, c)
        kg.attach_terminals()
        spec = GraphSpec(kg)
        layer = HierarchicalGNNLayer(4, 4, rng)
        layer.eval()  # running stats: pure function of inputs
        x = Tensor(rng.normal(size=(2, spec.num_nodes, 4)), requires_grad=True)

        def loss():
            return (layer(x, spec, level=2) ** 2).sum()

        check_gradients(loss, [("x", x), ("w", layer.dense.weight),
                               ("gamma", layer.norm.gamma)], sample=30)

    def test_token_to_score_path(self, embedding_model):
        """The continuous-adaptation gradient path: node token embeddings
        -> frozen text projection -> joint vector -> quadratic head."""
        ids = embedding_model.tokenizer.encode("sneaky")
        tokens = Tensor(embedding_model.token_table.lookup(ids),
                        requires_grad=True)

        def loss():
            joint = embedding_model.encode_token_tensor(tokens)
            return (joint * joint).sum()

        check_gradients(loss, [("tokens", tokens)], sample=40)


# ----------------------------------------------------------------------
# Fused kernels: each against finite differences and, bit for bit, against
# the expression of elementary ops it stands for (written out here).
# ----------------------------------------------------------------------
def composite_affine(x, weight, bias):
    in_features, out_features = weight.shape
    if x.ndim == 1:
        out = x @ weight
        return out if bias is None else out + bias
    lead = x.shape[:-1]
    flat = x.reshape(-1, in_features) if x.ndim > 2 else x
    rows = flat.shape[0]
    if rows < MIN_STABLE_GEMM_ROWS:
        pad = Tensor(np.zeros((MIN_STABLE_GEMM_ROWS - rows, in_features)))
        out = (Tensor.concat([flat, pad]) @ weight)[:rows]
    else:
        out = flat @ weight
    if bias is not None:
        out = out + bias
    return out.reshape(lead + (out_features,))


def composite_layer_norm(x, gamma, beta, eps):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / (var + eps).sqrt() * gamma + beta


def composite_softmax(x, axis):
    exp = (x - x.max(axis=axis, keepdims=True).detach()).exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def composite_log_softmax(x, axis):
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def composite_frozen_batch_norm(x, gamma, beta, mean, var, eps):
    scale = gamma * Tensor(1.0 / np.sqrt(var + eps))
    return x * scale + (beta - Tensor(mean) * scale)


def composite_message_pass(refined, factor, own, sources, targets, mean_scale):
    """Gather, multiply, ``np.add.at`` into the targets, scale, add."""
    messages = refined[..., sources, :] * factor
    summed = np.zeros(messages.shape[:-2] + own.shape[-2:])
    np.add.at(np.moveaxis(summed, -2, 0), targets,
              np.moveaxis(messages, -2, 0))
    return summed * mean_scale + own


def composite_last_only_attention(attn, x):
    """``MultiHeadAttention.forward(x, last_only=True)`` as the 17
    elementary ops ``Tensor.last_query_attention`` replaced: one query,
    but keys and values projected at all ``T`` positions."""
    batch, length, _ = x.shape
    q = attn._split_heads(attn.w_q(x[:, length - 1:, :]), batch, 1)
    k = attn._split_heads(attn.w_k(x), batch, length)
    v = attn._split_heads(attn.w_v(x), batch, length)
    scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(attn.head_dim))
    context = scores.softmax(axis=-1) @ v
    return attn.w_o(context.transpose(0, 2, 1, 3).reshape(batch, 1, attn.dim))


def composite_node_embedding_matrix(reasoner):
    """``KGReasoner.node_embedding_matrix`` as one ``sum``, ``mul`` and
    ``@`` per concept node plus the ``stack``."""
    joint_dim = reasoner.embedding_model.joint_dim
    projection = Tensor(reasoner.embedding_model._text_projection)
    tokens = reasoner.token_tensors()
    rows = []
    for node_id in reasoner.spec.node_ids:
        node = reasoner.kg.node(node_id)
        if node.is_concept:
            rows.append(tokens[node_id].mean(axis=0) @ projection)
        elif node.is_embedding:
            rows.append(Tensor(np.full(joint_dim, 0.05 / np.sqrt(joint_dim))))
        else:
            rows.append(Tensor(np.zeros(joint_dim)))
    return Tensor.stack(rows, axis=0)


def max_relative_difference(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def assert_same_gradients(fused_loss, composite_loss, tensors):
    """Closed-form backward vs the elementary ops' tape, to rounding."""
    grads = []
    for loss_fn in (fused_loss, composite_loss):
        for tensor in tensors:
            tensor.zero_grad()
        loss_fn().backward()
        grads.append([None if t.grad is None else t.grad.copy()
                      for t in tensors])
    for got, want in zip(*grads):
        assert (got is None) == (want is None)
        if want is not None:
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


class TestFusedKernels:
    @pytest.mark.parametrize("shape", [(6,), (1, 6), (15, 6), (16, 6), (40, 6),
                                       (3, 5, 6), (2, 3, 4, 6)])
    @pytest.mark.parametrize("use_bias", [True, False])
    @pytest.mark.parametrize("trainable", [True, False])
    def test_affine(self, shape, use_bias, trainable):
        rng = make_rng()
        dense = Dense(6, 3, rng, bias=use_bias)
        if use_bias:
            dense.bias.data = rng.normal(size=3)
        if not trainable:
            dense.freeze()
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        mix = rng.normal(size=shape[:-1] + (3,))
        fused = dense(x)
        assert np.array_equal(
            fused.numpy(), composite_affine(x, dense.weight, dense.bias).numpy())
        tensors = [x, dense.weight] + ([dense.bias] if use_bias else [])

        def loss():
            return (dense(x) * mix).sum()

        assert_same_gradients(
            loss, lambda: (composite_affine(x, dense.weight, dense.bias)
                           * mix).sum(), tensors)
        if trainable:
            check_gradients(loss, [(str(i), t) for i, t in enumerate(tensors)],
                            sample=None)
        else:
            check_gradients(loss, [("x", x)], sample=None)
            assert dense.weight.grad is None

    @pytest.mark.parametrize("shape", [(5,), (4, 5), (2, 3, 5)])
    def test_layer_norm(self, shape):
        rng = make_rng()
        norm = LayerNorm(5)
        norm.gamma.data = rng.uniform(0.5, 1.5, size=5)
        norm.beta.data = rng.normal(size=5)
        x = Tensor(rng.normal(size=shape) * 3.0 + 1.0, requires_grad=True)
        mix = rng.normal(size=shape)
        assert np.array_equal(
            norm(x).numpy(),
            composite_layer_norm(x, norm.gamma, norm.beta, norm.eps).numpy())
        tensors = [x, norm.gamma, norm.beta]

        def loss():
            return (norm(x) * mix).sum()

        assert_same_gradients(
            loss, lambda: (composite_layer_norm(x, norm.gamma, norm.beta,
                                                norm.eps) * mix).sum(), tensors)
        check_gradients(loss, [("x", x), ("gamma", norm.gamma),
                               ("beta", norm.beta)], sample=None)

    @pytest.mark.parametrize("axis", [-1, 0, 1])
    @pytest.mark.parametrize("fused, composite", [
        (Tensor.softmax, composite_softmax),
        (Tensor.log_softmax, composite_log_softmax)])
    def test_softmax_and_log_softmax(self, axis, fused, composite):
        rng = make_rng()
        x = Tensor(rng.normal(size=(3, 4, 5)) * 4.0, requires_grad=True)
        mix = rng.normal(size=(3, 4, 5))
        assert np.array_equal(fused(x, axis).numpy(), composite(x, axis).numpy())

        def loss():
            return (fused(x, axis) * mix).sum()

        assert_same_gradients(loss, lambda: (composite(x, axis) * mix).sum(), [x])
        check_gradients(loss, [("x", x)], sample=None)

    @pytest.mark.parametrize("trainable", [True, False])
    def test_eval_batch_norm(self, trainable):
        rng = make_rng()
        bn = BatchNorm(4)
        bn.gamma.data = rng.uniform(0.5, 1.5, size=4)
        bn.beta.data = rng.normal(size=4)
        bn.running_mean = rng.normal(size=4)
        bn.running_var = rng.uniform(0.5, 2.0, size=4)
        bn.eval()
        if not trainable:
            bn.freeze()
        x = Tensor(rng.normal(size=(3, 5, 4)), requires_grad=True)
        mix = rng.normal(size=(3, 5, 4))

        def composite():
            return composite_frozen_batch_norm(
                x, bn.gamma, bn.beta, bn.running_mean, bn.running_var, bn.eps)

        assert np.array_equal(bn(x).numpy(), composite().numpy())
        tensors = [x, bn.gamma, bn.beta]

        def loss():
            return (bn(x) * mix).sum()

        assert_same_gradients(loss, lambda: (composite() * mix).sum(), tensors)
        names = ["x", "gamma", "beta"] if trainable else ["x"]
        check_gradients(loss, list(zip(names, tensors)), sample=None)
        if not trainable:
            assert bn.gamma.grad is None and bn.beta.grad is None

    # In-degrees 0 (row 3), 1 (row 0), 2 (row 2) and 4 (row 1), edges not
    # grouped by target; and a level nothing reaches.
    EDGES = {"mixed": ([0, 2, 1, 0, 2, 1, 2], [1, 2, 1, 0, 1, 2, 1]),
             "edgeless": ([], [])}

    @staticmethod
    def rows_first(frames_first: np.ndarray) -> Tensor:
        """The kernel's input layout, (rows, frames, D), of a (frames, rows,
        D) array; a 2-D one (shared by all frames) is the same either way."""
        data = frames_first if frames_first.ndim == 2 else \
            np.ascontiguousarray(frames_first.swapaxes(0, 1))
        return Tensor(data, requires_grad=True)

    @pytest.mark.parametrize("edges", ["mixed", "edgeless"])
    @pytest.mark.parametrize("per_frame", [True, False])
    def test_message_pass(self, edges, per_frame):
        """``per_frame``: ``factor`` and ``own`` per frame (the all-nodes
        path) or shared by all frames (the token side's)."""
        rng = make_rng()
        sources, targets = (np.asarray(ids, dtype=np.int64)
                            for ids in self.EDGES[edges])
        schedule = EdgeSchedule(sources, targets)
        lead = (6,) if per_frame else ()
        refined = self.rows_first(rng.normal(size=(6, 3, 2)))
        factor = self.rows_first(rng.normal(size=lead + (sources.size, 2)))
        own = self.rows_first(rng.normal(size=lead + (4, 2)))
        in_degree = np.bincount(targets, minlength=4)
        mean_scale = np.where(in_degree, 1.0 / np.maximum(in_degree, 1),
                              0.0)[:, None]
        mix = self.rows_first(rng.normal(size=(6, 4, 2))).data

        def fused():
            return Tensor.message_pass(refined, factor, own, schedule,
                                       mean_scale)

        def frames_first(data):
            return data if data.ndim == 2 else data.swapaxes(0, 1)

        assert np.array_equal(
            frames_first(fused().numpy()),
            composite_message_pass(frames_first(refined.data),
                                   frames_first(factor.data),
                                   frames_first(own.data),
                                   sources, targets, mean_scale))
        check_gradients(lambda: (fused() * mix).sum(),
                        [("refined", refined), ("factor", factor),
                         ("own", own)], sample=None)

    def test_message_pass_matches_the_elementary_ops_tape(self):
        rng = make_rng()
        sources, targets = (np.asarray(ids, dtype=np.int64)
                            for ids in self.EDGES["mixed"])
        schedule = EdgeSchedule(sources, targets)
        refined = self.rows_first(rng.normal(size=(6, 3, 2)))
        factor = Tensor(rng.normal(size=(7, 2)), requires_grad=True)
        own = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        mean_scale = rng.uniform(size=(4, 1))
        mix = rng.normal(size=(6, 4, 2))

        def composite():
            summed = Tensor.segment_sum(
                refined.transpose(1, 0, 2)[:, sources, :] * factor, targets, 4)
            return ((summed * Tensor(mean_scale) + own) * mix).sum()

        assert_same_gradients(
            lambda: (Tensor.message_pass(refined, factor, own, schedule,
                                         mean_scale).transpose(1, 0, 2)
                     * mix).sum(),
            composite, [refined, factor, own])

    # (B, T, H, d_h): under, at and over the GEMM row floor; the served
    # shape first.
    ATTENTION_SHAPES = [(1, 8, 8, 16), (15, 8, 8, 16), (16, 3, 2, 4),
                        (40, 8, 4, 8)]

    @staticmethod
    def make_attention(shape):
        """An attention block with every bias non-zero, its input and a
        mixing array for the loss."""
        batch, length, heads, head_dim = shape
        rng = make_rng()
        dim = heads * head_dim
        attn = MultiHeadAttention(dim, heads, rng, causal=True)
        for dense in (attn.w_q, attn.w_k, attn.w_v, attn.w_o):
            dense.bias.data = rng.normal(size=dim)
        x = Tensor(rng.normal(size=(batch, length, dim)), requires_grad=True)
        return attn, x, rng.normal(size=(batch, 1, dim))

    @pytest.mark.parametrize("shape", ATTENTION_SHAPES)
    @pytest.mark.parametrize("trainable", [True, False])
    def test_last_query_attention_gradcheck(self, shape, trainable):
        attn, x, mix = self.make_attention(shape)
        if not trainable:
            attn.freeze()

        def loss():
            return (attn(x, last_only=True) * mix).sum()

        checked = [("x", x)]
        if trainable:
            checked += [("w_q", attn.w_q.weight), ("b_q", attn.w_q.bias),
                        ("w_k", attn.w_k.weight), ("w_v", attn.w_v.weight),
                        ("b_v", attn.w_v.bias)]
        check_gradients(loss, checked, sample=60)
        if not trainable:
            assert all(p.grad is None for p in attn.parameters())

    @pytest.mark.parametrize("shape", ATTENTION_SHAPES)
    def test_last_query_attention_is_the_last_row_of_all_queries(self, shape):
        """Against the untouched all-queries path, with a non-zero key
        bias: the constant the fold drops really cancels in the softmax,
        and the bias it no longer reads gets no gradient."""
        attn, x, mix = self.make_attention(shape)
        length = shape[1]
        tensors = [x] + list(attn.parameters())
        grads = []
        for forward in (lambda: attn(x, last_only=True),
                        lambda: attn(x)[:, length - 1:, :],
                        lambda: composite_last_only_attention(attn, x)):
            for tensor in tensors:
                tensor.zero_grad()
            out = forward()
            (out * mix).sum().backward()
            grads.append((out.numpy(), [t.grad for t in tensors]))
        (fused, fused_grads), *references = grads
        for reference, reference_grads in references:
            assert max_relative_difference(fused, reference) <= 1e-12
            for tensor, got, want in zip(tensors, fused_grads, reference_grads):
                if tensor is attn.w_k.bias:
                    assert got is None and np.abs(want).max() <= 1e-12
                else:
                    assert max_relative_difference(got, want) <= 1e-12

    def test_node_embedding_matrix(self, fresh_model):
        """The text-path kernel: the same per-node GEMVs forward, the
        elementary ops' gradients backward (ragged token counts)."""
        model = fresh_model()
        model.freeze_for_deployment()
        reasoner = model.reasoners[0]
        tokens = list(reasoner.token_tensors().values())
        assert len({t.shape[0] for t in tokens}) > 1
        assert np.array_equal(reasoner.node_embedding_matrix().numpy(),
                              composite_node_embedding_matrix(reasoner).numpy())
        mix = make_rng().normal(size=(reasoner.spec.num_nodes,
                                      model.embedding_model.joint_dim))
        grads = []
        for matrix in (reasoner.node_embedding_matrix,
                       lambda: composite_node_embedding_matrix(reasoner)):
            for tensor in tokens:
                tensor.zero_grad()
            (matrix() * mix).sum().backward()
            grads.append([t.grad for t in tokens])
        for got, want in zip(*grads):
            assert max_relative_difference(got, want) <= 1e-12
        check_gradients(
            lambda: (reasoner.node_embedding_matrix() * mix).sum(),
            [(str(i), t) for i, t in enumerate(tokens[:3])], sample=20)

    def test_take_rows(self):
        """A gather over precompiled passes is ``x[rows]``, bit for bit in
        both directions; no rows at all (a level nothing reaches) too."""
        rng = make_rng()
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        for rows in ([3, 0, 3, 3, 1, 0], []):
            rows = np.asarray(rows, dtype=np.int64)
            mix = rng.normal(size=(rows.size, 3))
            grads = []
            for gather in (lambda: x.take_rows(rows, scatter_passes(rows)),
                           lambda: x[rows]):
                x.zero_grad()
                out = gather()
                (out * mix).sum().backward()
                grads.append((out.numpy(), x.grad))
            for got, want in zip(*grads):
                assert np.array_equal(got, want)


def count_tensor_ops(monkeypatch, fn) -> int:
    made = []
    make = Tensor._make

    def counting(data, parents, backward):
        made.append(None)
        return make(data, parents, backward)

    with monkeypatch.context() as patch:
        patch.setattr(Tensor, "_make", staticmethod(counting))
        fn()
    return len(made)


class TestTapeSize:
    """One tensor per repeated block: at the served shape a forward costs
    what its tensor count costs, so un-fusing a block is a regression no
    value-level test would see."""

    def test_ops_per_forward_and_per_update_step(self, fresh_model,
                                                 embedding_model, monkeypatch):
        model = fresh_model(window=8)
        assert model.reasoners[0].spec.num_nodes == 16
        assert model.reasoners[0].spec.depth == 3
        model.freeze_for_deployment()
        windows = make_rng().normal(size=(16, 8, embedding_model.frame_dim))
        for batch in (1, 16):
            model.anomaly_scores(windows[:batch])  # token side now at rest
            assert count_tensor_ops(
                monkeypatch,
                lambda: model.anomaly_scores(windows[:batch])) <= 45
        targets = np.arange(16) % 2
        assert count_tensor_ops(
            monkeypatch, lambda: vad_loss(model(windows), targets)) <= 100

    def test_update_step_matches_the_elementary_ops_tape(self, fresh_model,
                                                         embedding_model,
                                                         monkeypatch):
        """Token gradients of one 22-window step, kernels vs the op chains
        they replaced (attention, text path, index gathers), and no
        schedule compiled on the way."""
        model = fresh_model(window=8)
        model.freeze_for_deployment()
        windows = make_rng().normal(size=(22, 8, embedding_model.frame_dim))
        targets = np.arange(22) % 2
        tokens = model.token_parameters()

        def token_gradients():
            for tensor in tokens:
                tensor.zero_grad()
            vad_loss(model(windows), targets).backward()
            return [t.grad for t in tokens]

        with monkeypatch.context() as patch:
            patch.setattr("repro.nn.tensor.scatter_passes", None)
            fused = token_gradients()
        reasoner = model.reasoners[0]
        all_queries = MultiHeadAttention.forward
        monkeypatch.setattr(
            MultiHeadAttention, "forward",
            lambda attn, x, last_only=False:
                composite_last_only_attention(attn, x) if last_only
                else all_queries(attn, x))
        monkeypatch.setattr(
            reasoner, "node_embedding_matrix",
            lambda: composite_node_embedding_matrix(reasoner))
        monkeypatch.setattr(Tensor, "take_rows",
                            lambda tensor, rows, passes: tensor[rows])
        for got, want in zip(fused, token_gradients()):
            assert max_relative_difference(got, want) <= 1e-10
