"""Tests for multi-head attention and the transformer encoder."""

import gc
import weakref

import numpy as np
import pytest

from repro.nn import (
    MultiHeadAttention,
    Tensor,
    TransformerEncoder,
    TransformerEncoderLayer,
    no_grad,
    sinusoidal_positions,
)


def make_rng():
    return np.random.default_rng(0)


class TestSinusoidalPositions:
    def test_shape(self):
        table = sinusoidal_positions(10, 16)
        assert table.shape == (10, 16)

    def test_bounded(self):
        table = sinusoidal_positions(50, 32)
        assert np.all(np.abs(table) <= 1.0)

    def test_rows_distinct(self):
        table = sinusoidal_positions(20, 16)
        assert not np.allclose(table[0], table[1])

    def test_odd_dim(self):
        table = sinusoidal_positions(5, 7)
        assert table.shape == (5, 7)


class TestMultiHeadAttention:
    def test_output_shape(self):
        attn = MultiHeadAttention(16, 4, make_rng())
        out = attn(Tensor(np.random.default_rng(1).normal(size=(2, 5, 16))))
        assert out.shape == (2, 5, 16)

    def test_dim_head_divisibility(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3, make_rng())

    def test_requires_3d(self):
        attn = MultiHeadAttention(8, 2, make_rng())
        with pytest.raises(ValueError):
            attn(Tensor(np.ones((5, 8))))

    def test_causal_masking(self):
        """With a causal mask, position t must not depend on positions > t."""
        attn = MultiHeadAttention(8, 2, make_rng(), causal=True)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 6, 8))
        base = attn(Tensor(x)).numpy()
        perturbed = x.copy()
        perturbed[0, -1] += 10.0  # change only the last position
        out = attn(Tensor(perturbed)).numpy()
        # All positions before the last are unaffected.
        np.testing.assert_allclose(out[0, :-1], base[0, :-1], atol=1e-10)
        assert not np.allclose(out[0, -1], base[0, -1])

    def test_non_causal_attends_everywhere(self):
        attn = MultiHeadAttention(8, 2, make_rng(), causal=False)
        x = np.random.default_rng(3).normal(size=(1, 4, 8))
        base = attn(Tensor(x)).numpy()
        perturbed = x.copy()
        perturbed[0, -1] += 10.0
        out = attn(Tensor(perturbed)).numpy()
        assert not np.allclose(out[0, 0], base[0, 0])

    def test_gradients_reach_inputs(self):
        attn = MultiHeadAttention(8, 2, make_rng())
        x = Tensor(np.random.default_rng(4).normal(size=(2, 3, 8)),
                   requires_grad=True)
        attn(x).sum().backward()
        assert x.grad is not None
        assert np.any(x.grad != 0)


class TestLastQueryAttention:
    """``forward(x, last_only=True)``: the single-query kernel.  Values and
    gradients are held to the all-queries path in test_nn_gradcheck.py;
    here, the serving contracts."""

    def test_output_shape(self):
        attn = MultiHeadAttention(16, 4, make_rng())
        out = attn(Tensor(make_rng().normal(size=(3, 5, 16))), last_only=True)
        assert out.shape == (3, 1, 16)

    @pytest.mark.parametrize("batch", [15, 16, 40])
    def test_a_window_scores_the_same_alone_or_batched(self, batch):
        """The row-floor contract, at the served shape: under, at and over
        ``MIN_STABLE_GEMM_ROWS`` windows per call."""
        attn = MultiHeadAttention(128, 8, make_rng(), causal=True)
        x = np.random.default_rng(9).normal(size=(batch, 8, 128))
        with no_grad():
            together = attn(Tensor(x), last_only=True).numpy()
            for index in range(batch):
                alone = attn(Tensor(x[index:index + 1]), last_only=True)
                assert np.array_equal(alone.numpy(), together[index:index + 1])

    @pytest.mark.parametrize("mission", ["Stealing", "Robbery"])
    def test_model_scores_solo_equal_coalesced(self, fresh_model,
                                               embedding_model, mission):
        model = fresh_model(mission, window=8)
        model.freeze_for_deployment()
        windows = np.random.default_rng(10).normal(
            size=(40, 8, embedding_model.frame_dim))
        together = model.anomaly_scores(windows)
        for index in (0, 14, 15, 16, 39):
            assert np.array_equal(
                model.anomaly_scores(windows[index:index + 1]),
                together[index:index + 1])
        assert np.array_equal(model.anomaly_scores(windows[:15]), together[:15])
        assert np.array_equal(model.anomaly_scores(windows[24:]), together[24:])

    def test_off_the_tape_nothing_outlives_the_call(self):
        """No closure, hence no input, is kept for a backward that will
        never run."""
        attn = MultiHeadAttention(16, 4, make_rng())
        gc.collect()
        gc.disable()
        try:
            x = Tensor(make_rng().normal(size=(2, 5, 16)))
            with no_grad():
                out = attn(x, last_only=True)
            probe = weakref.ref(x)
            del x
            assert probe() is None and out.shape == (2, 1, 16)
        finally:
            gc.enable()


class TestTransformerEncoder:
    def test_forward_shape(self):
        enc = TransformerEncoder(12, 16, 4, 2, make_rng(), max_length=10)
        out = enc(Tensor(np.random.default_rng(5).normal(size=(3, 7, 12))))
        assert out.shape == (3, 7, 12)

    def test_last_output_shape(self):
        enc = TransformerEncoder(12, 16, 4, 1, make_rng(), max_length=10)
        out = enc.last_output(Tensor(np.random.default_rng(6).normal(size=(3, 7, 12))))
        assert out.shape == (3, 12)

    def test_length_limit(self):
        enc = TransformerEncoder(4, 8, 2, 1, make_rng(), max_length=5)
        with pytest.raises(ValueError):
            enc(Tensor(np.ones((1, 6, 4))))

    def test_causal_last_output_ignores_nothing_but_uses_past(self):
        """The last output must change when early positions change (it reads
        the past) — that's the short-term temporal model contract."""
        enc = TransformerEncoder(6, 8, 2, 1, make_rng(), max_length=8, causal=True)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 8, 6))
        base = enc.last_output(Tensor(x)).numpy()
        perturbed = x.copy()
        perturbed[0, 0] += 5.0
        out = enc.last_output(Tensor(perturbed)).numpy()
        assert not np.allclose(out, base)

    def test_deterministic_given_seed(self):
        a = TransformerEncoder(6, 8, 2, 1, np.random.default_rng(42))
        b = TransformerEncoder(6, 8, 2, 1, np.random.default_rng(42))
        x = Tensor(np.ones((1, 4, 6)))
        np.testing.assert_allclose(a(x).numpy(), b(x).numpy())

    def test_encoder_layer_residual_path(self):
        layer = TransformerEncoderLayer(8, 2, 16, make_rng())
        x = Tensor(np.random.default_rng(8).normal(size=(2, 4, 8)))
        out = layer(x)
        assert out.shape == x.shape
        # Residual connections: output correlates with input.
        corr = np.corrcoef(out.numpy().ravel(), x.numpy().ravel())[0, 1]
        assert corr > 0.3
