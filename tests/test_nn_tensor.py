"""Autodiff engine tests: every op checked against numerical gradients."""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.nn import Tensor, as_tensor, is_grad_enabled, no_grad


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued fn at x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def check_gradient(op, shape, seed=0, positive=False, atol=1e-5):
    """Compare autodiff gradient of sum(op(x)) to finite differences."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    if positive:
        x = np.abs(x) + 0.5
    t = Tensor(x.copy(), requires_grad=True)
    out = op(t).sum()
    out.backward()
    expected = numerical_grad(lambda v: float(op(Tensor(v)).sum().numpy()), x.copy())
    np.testing.assert_allclose(t.grad, expected, atol=atol)


class TestElementwiseGradients:
    def test_add(self):
        check_gradient(lambda t: t + 3.0, (3, 4))

    def test_mul(self):
        check_gradient(lambda t: t * t, (3, 4))

    def test_sub(self):
        check_gradient(lambda t: 5.0 - t, (4,))

    def test_div(self):
        check_gradient(lambda t: 1.0 / t, (3, 3), positive=True)

    def test_pow(self):
        check_gradient(lambda t: t ** 3, (2, 5))

    def test_exp(self):
        check_gradient(lambda t: t.exp(), (3, 4))

    def test_log(self):
        check_gradient(lambda t: t.log(), (3, 4), positive=True)

    def test_sqrt(self):
        check_gradient(lambda t: t.sqrt(), (3, 4), positive=True)

    def test_tanh(self):
        check_gradient(lambda t: t.tanh(), (3, 4))

    def test_sigmoid(self):
        check_gradient(lambda t: t.sigmoid(), (3, 4))

    def test_relu(self):
        check_gradient(lambda t: t.relu(), (5, 5), seed=3)

    def test_elu(self):
        check_gradient(lambda t: t.elu(), (5, 5), seed=3)

    def test_elu_alpha(self):
        check_gradient(lambda t: t.elu(alpha=0.5), (4, 4))

    def test_abs(self):
        check_gradient(lambda t: t.abs(), (4, 4), positive=True)

    def test_clip(self):
        check_gradient(lambda t: t.clip(-0.5, 0.5), (6,), seed=2)

    def test_neg(self):
        check_gradient(lambda t: -t, (3,))


def masked_elu(x: np.ndarray, alpha: float):
    """ELU's value and local gradient by boolean-mask gather and scatter:
    expm1 evaluated on the entries ``x <= 0`` only."""
    negative = x <= 0
    neg_expm1 = np.expm1(x[negative])
    value = x.copy()
    value[negative] = alpha * neg_expm1
    local = np.ones_like(x)
    local[negative] = alpha * (neg_expm1 + 1.0)
    return value, local


class TestEluBits:
    """``Tensor.elu`` is the masked formula to the bit, zero signs, NaN,
    subnormals and floating-point exceptions included."""

    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, -1e-310, 2.2250738585072014e-308,
               -2.2250738585072014e-308, -800.0, 800.0, -np.inf, np.inf,
               np.nan, -np.nan, -1e-17, 1e-17, -37.5, 709.0, 710.0]

    @staticmethod
    def fused(x: np.ndarray, alpha: float, grad: np.ndarray):
        tensor = Tensor(x, requires_grad=True)
        tensor.elu(alpha).backward(grad)
        return tensor.elu(alpha).numpy(), tensor.grad

    @staticmethod
    def outcome(fn):
        try:
            return fn()
        except FloatingPointError as exc:
            return str(exc)

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    @pytest.mark.parametrize("value", SPECIAL)
    def test_special_values(self, alpha, value):
        x = np.array([value, -value, 1.0, -1.0])
        grad = np.array([0.75, -1.25, 3.0, 0.5])
        with np.errstate(all="raise"):  # the same exceptions, if any
            got = self.outcome(lambda: self.fused(x, alpha, grad))
            want = self.outcome(lambda: masked_elu(x, alpha))
        assert isinstance(got, str) == isinstance(want, str)
        if isinstance(want, str):  # alpha times a subnormal underflows
            assert got == want
        with np.errstate(all="raise", under="ignore"):
            got = self.fused(x, alpha, grad)
            want = masked_elu(x, alpha)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == (grad * want[1]).tobytes()

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    @pytest.mark.parametrize("shape", [(7,), (16, 8), (5, 33, 8)])
    def test_random_signs(self, alpha, shape):
        rng = np.random.default_rng(11)
        x = rng.normal(scale=3.0, size=shape)
        x.reshape(-1)[::5] = -0.0
        grad = rng.normal(size=shape)
        value, local = masked_elu(x, alpha)
        got_value, got_grad = self.fused(x, alpha, grad)
        assert got_value.tobytes() == value.tobytes()
        assert got_grad.tobytes() == (grad * local).tobytes()


class TestMatmulGradients:
    def test_matmul_2d(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 5))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta @ tb).sum().backward()
        np.testing.assert_allclose(ta.grad, np.ones((3, 5)) @ b.T, atol=1e-10)
        np.testing.assert_allclose(tb.grad, a.T @ np.ones((3, 5)), atol=1e-10)

    def test_matmul_batched(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(2, 4, 5))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta @ tb).sum().backward()
        np.testing.assert_allclose(ta.grad,
                                   np.ones((2, 3, 5)) @ b.transpose(0, 2, 1),
                                   atol=1e-10)

    def test_matmul_broadcast_2d_vs_3d(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 4))           # broadcast over batch
        b = rng.normal(size=(5, 4, 2))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        out = ta @ tb
        assert out.shape == (5, 3, 2)
        out.sum().backward()
        assert ta.grad.shape == a.shape
        assert tb.grad.shape == b.shape
        expected_a = sum(np.ones((3, 2)) @ b[i].T for i in range(5))
        np.testing.assert_allclose(ta.grad, expected_a, atol=1e-10)

    def test_matvec(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(3, 4))
        v = rng.normal(size=4)
        ta = Tensor(a, requires_grad=True)
        tv = Tensor(v, requires_grad=True)
        (ta @ tv).sum().backward()
        np.testing.assert_allclose(tv.grad, a.sum(axis=0), atol=1e-10)
        np.testing.assert_allclose(ta.grad, np.outer(np.ones(3), v), atol=1e-10)


class TestReductions:
    def test_sum_all(self):
        check_gradient(lambda t: t.sum(), (3, 4))

    def test_sum_axis(self):
        check_gradient(lambda t: t.sum(axis=0), (3, 4))

    def test_sum_keepdims(self):
        check_gradient(lambda t: t.sum(axis=1, keepdims=True), (3, 4))

    def test_mean(self):
        check_gradient(lambda t: t.mean(axis=-1), (3, 4))

    def test_var(self):
        check_gradient(lambda t: t.var(axis=0), (5, 3), atol=1e-4)

    def test_max(self):
        # Use distinct values so the max is differentiable.
        x = np.array([[1.0, 5.0, 2.0], [7.0, 3.0, 4.0]])
        t = Tensor(x, requires_grad=True)
        t.max(axis=1).sum().backward()
        expected = np.array([[0, 1, 0], [1, 0, 0]], dtype=float)
        np.testing.assert_allclose(t.grad, expected)

    def test_mean_value(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert t.mean().item() == pytest.approx(2.5)

    def test_norm(self):
        check_gradient(lambda t: t.norm(axis=-1), (3, 4), atol=1e-4)


class TestShapeOps:
    def test_reshape(self):
        check_gradient(lambda t: (t.reshape(6) * np.arange(6)).sum(), (2, 3))

    def test_transpose(self):
        check_gradient(lambda t: t.transpose(1, 0) @ Tensor(np.ones((2, 2))), (2, 3))

    def test_swapaxes(self):
        t = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        out = t.swapaxes(0, 2)
        assert out.shape == (4, 3, 2)
        out.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones((2, 3, 4)))

    def test_getitem_rows(self):
        x = np.arange(12.0).reshape(4, 3)
        t = Tensor(x, requires_grad=True)
        idx = np.array([0, 2, 2])
        t[idx].sum().backward()
        expected = np.zeros((4, 3))
        expected[0] = 1
        expected[2] = 2  # row 2 picked twice -> gradient accumulates
        np.testing.assert_allclose(t.grad, expected)

    def test_getitem_backward_adds_in_add_at_order(self):
        """Repeated (and negative) integer rows, basic slices: the same
        bits as ``np.add.at``, which the backward no longer calls."""
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 3, 2))
        rows = np.array([4, 1, 4, -2, 4, 0, 1, 4])
        for index in (rows, (slice(None), slice(1, None)), (2, Ellipsis, 0)):
            t = Tensor(x, requires_grad=True)
            out = t[index]
            upstream = rng.normal(size=out.shape)
            out.backward(upstream)
            expected = np.zeros_like(x)
            np.add.at(expected, index, upstream)
            assert np.array_equal(t.grad, expected)

    def test_getitem_tuple_index(self):
        x = np.arange(24.0).reshape(2, 4, 3)
        t = Tensor(x, requires_grad=True)
        idx = (slice(None), np.array([1, 3]))
        out = t[idx]
        assert out.shape == (2, 2, 3)
        out.sum().backward()
        expected = np.zeros_like(x)
        expected[:, [1, 3], :] = 1
        np.testing.assert_allclose(t.grad, expected)

    def test_concat(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        out = Tensor.concat([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * np.arange(5)).sum().backward()
        np.testing.assert_allclose(a.grad, np.tile([0, 1, 2], (2, 1)))
        np.testing.assert_allclose(b.grad, np.tile([3, 4], (2, 1)))

    def test_stack(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        out = Tensor.stack([a, b], axis=0)
        assert out.shape == (2, 3)
        (out[0] * 2.0 + out[1] * 3.0).sum().backward()
        np.testing.assert_allclose(a.grad, 2 * np.ones(3))
        np.testing.assert_allclose(b.grad, 3 * np.ones(3))


class TestComposites:
    def test_softmax_rows_sum_to_one(self):
        t = Tensor(np.random.default_rng(0).normal(size=(4, 6)))
        s = t.softmax(axis=-1).numpy()
        np.testing.assert_allclose(s.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_softmax_gradient(self):
        check_gradient(lambda t: (t.softmax(axis=-1) * np.arange(4)).sum(),
                       (3, 4), atol=1e-5)

    def test_log_softmax_matches_log_of_softmax(self):
        x = np.random.default_rng(1).normal(size=(3, 5))
        a = Tensor(x).log_softmax(axis=-1).numpy()
        b = np.log(Tensor(x).softmax(axis=-1).numpy())
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_softmax_stable_for_large_values(self):
        t = Tensor(np.array([[1000.0, 1000.0, -1000.0]]))
        s = t.softmax(axis=-1).numpy()
        assert np.all(np.isfinite(s))
        np.testing.assert_allclose(s[0, :2], [0.5, 0.5], atol=1e-9)


class TestBroadcasting:
    def test_add_broadcast_gradient(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(b.grad, 3 * np.ones(4))

    def test_mul_broadcast_scalar_like(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.array(2.0), requires_grad=True)
        (a * b).sum().backward()
        assert b.grad.shape == ()
        assert float(b.grad) == pytest.approx(6.0)

    def test_broadcast_keepdims_axis(self):
        a = Tensor(np.ones((2, 1, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 4, 3)))
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, 4 * np.ones((2, 1, 3)))


class TestTapeMechanics:
    def test_grad_accumulates_across_uses(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        out = t * 3.0 + t * 4.0
        out.backward()
        assert t.grad[0] == pytest.approx(7.0)

    def test_detach_cuts_graph(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        out = (t.detach() * t).sum()
        out.backward()
        assert t.grad[0] == pytest.approx(2.0)  # only the live branch

    def test_no_grad_disables_tape(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            out = t * 2.0
        assert not out.requires_grad
        assert is_grad_enabled()

    def test_no_grad_is_per_thread(self):
        """One thread's ``no_grad`` never turns another thread's tape off:
        a sharded fleet's shards score on one thread while another adapts.
        More threads than cores, switching as often as the interpreter
        allows."""
        interval = sys.getswitchinterval()
        errors: list[str] = []
        start = threading.Barrier(6)

        def scorer():
            start.wait()
            for _ in range(2000):
                with no_grad():
                    if is_grad_enabled():
                        errors.append("no_grad scope saw the tape on")

        def learner():
            start.wait()
            leaf = Tensor(np.ones(3), requires_grad=True)
            for _ in range(2000):
                if not (leaf * 2.0).requires_grad:
                    errors.append("another thread's no_grad stopped the tape")

        threads = [threading.Thread(target=work)
                   for work in (scorer, learner) * 3]
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert is_grad_enabled()

    def test_op_outputs_are_float64_arrays(self):
        """``_make`` converts only what is not already a float64 array."""
        total = Tensor(np.arange(6.0).reshape(2, 3)).sum()  # a numpy scalar
        assert type(total.data) is np.ndarray and total.data.dtype == np.float64
        mask = Tensor._make(np.array([True, False]), (), None)
        assert mask.data.dtype == np.float64
        data = np.ones(3)
        assert Tensor._make(data, (), None).data is data

    def test_accumulated_grad_is_the_leafs_own_copy(self):
        """Accumulation is in place, into a copy: the upstream gradient an
        op handed over is never written to."""
        t = Tensor(np.ones(3), requires_grad=True)
        upstream = np.array([1.0, 2.0, 3.0])
        (t + t).backward(upstream)
        np.testing.assert_array_equal(t.grad, 2 * upstream)
        np.testing.assert_array_equal(upstream, [1.0, 2.0, 3.0])

    def test_backward_on_non_grad_raises(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(2)).backward()

    def test_tape_dies_with_its_last_reference(self):
        """No taped tensor references itself: with the cyclic collector
        off, dropping the loss frees the interior of the tape at once."""
        gc.collect()
        gc.disable()
        try:
            x = Tensor(np.ones((4, 3)), requires_grad=True)
            interior = ((x * 2.0).exp() @ Tensor(np.ones((3, 2)))).tanh()
            loss = interior.sum()
            loss.backward()
            probe = weakref.ref(interior)
            del interior
            assert probe() is not None  # the tape still holds it
            del loss
            assert probe() is None
        finally:
            gc.enable()

    def test_backward_deep_chain_iterative(self):
        # Topological sort is iterative: must survive graphs deeper than
        # Python's recursion limit.
        t = Tensor(np.array([1.0]), requires_grad=True)
        out = t
        for _ in range(5000):
            out = out + 1.0
        out.backward()
        assert t.grad[0] == pytest.approx(1.0)

    def test_zero_grad(self):
        t = Tensor(np.ones(2), requires_grad=True)
        (t * 2).sum().backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None

    def test_as_tensor_passthrough(self):
        t = Tensor(np.ones(2))
        assert as_tensor(t) is t
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)

    def test_scalar_exponent_only(self):
        with pytest.raises(TypeError):
            Tensor(np.ones(2)) ** Tensor(np.ones(2))


class TestSegmentSum:
    def test_forward_bins_rows(self):
        values = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        out = Tensor.segment_sum(values, np.array([1, 1, 0]), 3)
        np.testing.assert_array_equal(
            out.numpy(), [[5.0, 6.0], [4.0, 6.0], [0.0, 0.0]])

    def test_forward_batched(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(4, 5, 3))
        ids = np.array([0, 2, 2, 1, 0])
        out = Tensor.segment_sum(Tensor(values), ids, 3).numpy()
        expected = np.zeros((4, 3, 3))
        for e, t in enumerate(ids):
            expected[:, t, :] += values[:, e, :]
        np.testing.assert_allclose(out, expected)

    def test_forward_adds_in_add_at_order(self):
        """Bins of 0, 1, 2 and 5 rows, ids not grouped: bit-equal to
        ``np.add.at`` (``np.add.reduceat`` over sorted rows would not be)."""
        rng = np.random.default_rng(7)
        values = rng.normal(size=(3, 8, 4)) * 10.0 ** rng.integers(-8, 8, (3, 8, 4))
        ids = np.array([2, 0, 2, 3, 2, 0, 2, 2])
        expected = np.zeros((5, 3, 4))
        np.add.at(expected, ids, np.moveaxis(values, -2, 0))
        out = Tensor.segment_sum(Tensor(values), ids, 5).numpy()
        assert np.array_equal(out, np.moveaxis(expected, 0, -2))

    def test_scatter_passes_cover_every_entry_once(self):
        from repro.nn.tensor import scatter_passes
        ids = np.array([2, 0, 2, 3, 2, 0])
        passes = scatter_passes(ids)
        assert len(passes) == 3  # the largest bin holds three entries
        seen = np.concatenate([np.atleast_1d(p) for p, _ in passes])
        assert sorted(seen.tolist()) == list(range(ids.size))
        for positions, targets in passes:
            assert np.array_equal(ids[positions], targets)
            assert np.unique(targets).size == np.size(targets)
        assert scatter_passes(np.array([], dtype=np.int64)) == ()

    def test_backward_is_gather(self):
        values = Tensor(np.random.default_rng(1).normal(size=(2, 4, 3)),
                        requires_grad=True)
        ids = np.array([1, 0, 1, 2])
        out = Tensor.segment_sum(values, ids, 3)
        upstream = np.random.default_rng(2).normal(size=out.shape)
        out.backward(upstream)
        np.testing.assert_allclose(values.grad, upstream[:, ids, :])

    def test_gradcheck(self):
        from repro.nn.gradcheck import check_gradients
        values = Tensor(np.random.default_rng(3).normal(size=(2, 6, 4)),
                        requires_grad=True)
        ids = np.array([0, 1, 1, 3, 3, 3])

        def loss():
            return (Tensor.segment_sum(values, ids, 4) ** 2).sum()

        check_gradients(loss, [("values", values)], sample=None)

    def test_empty_segments(self):
        out = Tensor.segment_sum(Tensor(np.zeros((2, 0, 3))),
                                 np.array([], dtype=np.int64), 4)
        np.testing.assert_array_equal(out.numpy(), np.zeros((2, 4, 3)))

    def test_id_out_of_range_raises(self):
        with pytest.raises(IndexError):
            Tensor.segment_sum(Tensor(np.zeros((2, 2))), np.array([0, 5]), 3)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            Tensor.segment_sum(Tensor(np.zeros((2, 3, 4))), np.array([0, 1]), 3)
        with pytest.raises(ValueError):
            Tensor.segment_sum(Tensor(np.zeros(3)), np.array([0, 1, 2]), 3)


class TestRowStableGemm:
    def test_pad_gemm_rows_pads_small(self):
        from repro.nn.tensor import MIN_STABLE_GEMM_ROWS, pad_gemm_rows
        padded, rows = pad_gemm_rows(np.ones((3, 5)))
        assert rows == 3
        assert padded.shape == (MIN_STABLE_GEMM_ROWS, 5)
        np.testing.assert_array_equal(padded[3:], 0.0)

    def test_pad_gemm_rows_passthrough(self):
        from repro.nn.tensor import MIN_STABLE_GEMM_ROWS, pad_gemm_rows
        big = np.ones((MIN_STABLE_GEMM_ROWS, 2))
        padded, rows = pad_gemm_rows(big)
        assert padded is big and rows == MIN_STABLE_GEMM_ROWS
