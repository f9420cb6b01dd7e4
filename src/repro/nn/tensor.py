"""A small reverse-mode automatic differentiation engine on top of numpy.

This module is the computational substrate for the whole reproduction: the
hierarchical GNN (paper Eq. 1-4), the short-term transformer temporal model,
the decision head (Eq. 5) and — critically — the continuous KG adaptive
learning mechanism, which backpropagates a loss through *frozen* models into
the KG token embeddings only.  A tape-based engine makes "update only the
token embeddings" a one-liner: mark just the token table with
``requires_grad=True``.

Design notes
------------
* ``Tensor`` wraps a ``numpy.ndarray`` (always ``float64`` unless the caller
  passes something else) plus an optional gradient and a backward closure.
* The graph is dynamic: every op records its parents; ``backward()`` runs a
  topological sort and accumulates gradients.
* Broadcasting follows numpy semantics; ``_unbroadcast`` sums gradients back
  down to each parent's shape.
* ``no_grad()`` disables tape recording, used for inference-time scoring in
  the edge deployment loop where no adaptation is happening.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "as_tensor",
           "MIN_STABLE_GEMM_ROWS", "pad_gemm_rows"]

_GRAD_ENABLED = True

# BLAS kernels switch algorithm (and with it the K-accumulation order) for
# very small row counts, so the same logical row can produce last-ulp
# different results depending on how many rows share the GEMM call.  The
# serving layer relies on row-stable matmuls: a window's score must be
# bit-identical whether it is scored alone or coalesced into a micro-batch.
# Empirically the blocked-kernel regime is reached by 16 rows across the
# K values this codebase uses; padding tiny inputs up to that floor keeps
# every call in the same regime at negligible cost.
MIN_STABLE_GEMM_ROWS = 16


def pad_gemm_rows(matrix: np.ndarray) -> tuple[np.ndarray, int]:
    """Zero-pad a 2-D array to at least :data:`MIN_STABLE_GEMM_ROWS` rows.

    Returns the (possibly padded) matrix and the original row count.
    """
    rows = matrix.shape[0]
    if rows >= MIN_STABLE_GEMM_ROWS:
        return matrix, rows
    padded = np.zeros((MIN_STABLE_GEMM_ROWS,) + matrix.shape[1:])
    padded[:rows] = matrix
    return padded, rows


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient tape recording."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether operations are currently being recorded on the tape."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out prepended broadcast dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``numpy.ndarray`` of floats.
    requires_grad:
        Whether gradients should be accumulated into ``self.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Callable[[Tensor], None] | None = None
        self._prev: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[["Tensor"], None] | None) -> "Tensor":
        """Create an op output, recording the tape edge when grads are on."""
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=False)
        out.requires_grad = requires
        if requires and backward is not None:
            out._prev = tuple(parents)
            # The bare function, called as ``node._backward(node)``: a
            # closure over ``out`` would make every taped tensor reference
            # itself, and the whole tape (with each array its closures
            # hold) would then outlive ``del loss`` until the cyclic GC's
            # oldest generation happens to run.
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            self.grad = self.grad + grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (scalar outputs are the common case).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))
        self._accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node)

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad, other.shape))

        return Tensor._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(-out.grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad * self.data, other.shape))

        return Tensor._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-out.grad * self.data / (other.data ** 2), other.shape))

        return Tensor._make(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(self.data ** exponent, (self,), backward)

    # ------------------------------------------------------------------
    # Matrix multiplication (supports numpy batched semantics)
    # ------------------------------------------------------------------
    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(out: Tensor) -> None:
            grad = out.grad
            a, b = self.data, other.data
            if self.requires_grad:
                if b.ndim == 1:
                    ga = np.expand_dims(grad, -1) * b  # outer product rows
                elif a.ndim == 1:
                    ga = grad @ np.swapaxes(b, -1, -2)
                    ga = _unbroadcast(ga, a.shape)
                else:
                    ga = grad @ np.swapaxes(b, -1, -2)
                    ga = _unbroadcast(ga, a.shape)
                self._accumulate(ga)
            if other.requires_grad:
                if a.ndim == 1:
                    gb = np.expand_dims(a, -1) * grad
                    gb = _unbroadcast(gb, b.shape)
                elif b.ndim == 1:
                    gb = (np.swapaxes(a, -1, -2) @ np.expand_dims(grad, -1)).squeeze(-1)
                    gb = _unbroadcast(gb, b.shape)
                else:
                    gb = np.swapaxes(a, -1, -2) @ grad
                    gb = _unbroadcast(gb, b.shape)
                other._accumulate(gb)

        return Tensor._make(self.data @ other.data, (self, other), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        value = np.exp(self.data)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * value)

        return Tensor._make(value, (self,), backward)

    def log(self) -> "Tensor":
        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad / self.data)

        return Tensor._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        value = np.sqrt(self.data)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * 0.5 / value)

        return Tensor._make(value, (self,), backward)

    def tanh(self) -> "Tensor":
        value = np.tanh(self.data)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * (1.0 - value ** 2))

        return Tensor._make(value, (self,), backward)

    def sigmoid(self) -> "Tensor":
        value = 1.0 / (1.0 + np.exp(-self.data))

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * value * (1.0 - value))

        return Tensor._make(value, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * mask)

        return Tensor._make(self.data * mask, (self,), backward)

    def elu(self, alpha: float = 1.0) -> "Tensor":
        """Exponential linear unit — the activation in the paper's GNN layer (Eq. 4)."""
        negative = self.data <= 0
        # The transcendental is the expensive part: evaluate expm1 only on
        # the negative entries instead of over the whole array.
        neg_expm1 = np.expm1(self.data[negative])
        value = self.data.copy()
        value[negative] = alpha * neg_expm1

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                local = np.ones_like(self.data)
                local[negative] = alpha * (neg_expm1 + 1.0)
                self._accumulate(out.grad * local)

        return Tensor._make(value, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * sign)

        return Tensor._make(np.abs(self.data), (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * mask)

        return Tensor._make(np.clip(self.data, low, high), (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(out: Tensor) -> None:
            if not self.requires_grad:
                return
            grad = out.grad
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(grad, self.shape).copy())

        return Tensor._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Population variance (ddof=0), differentiable."""
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        value = self.data.max(axis=axis, keepdims=keepdims)

        def backward(out: Tensor) -> None:
            if not self.requires_grad:
                return
            grad = out.grad
            expanded = value
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
                expanded = np.expand_dims(value, axis)
            mask = self.data == expanded
            counts = mask.sum(axis=axis, keepdims=True)
            self._accumulate(mask * grad / counts)

        return Tensor._make(value, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad.reshape(self.shape))

        return Tensor._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = tuple(np.argsort(axes))

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad.transpose(inverse))

        return Tensor._make(self.data.transpose(axes), (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def __getitem__(self, index) -> "Tensor":
        """Differentiable indexing; integer-array indexing backs an embedding gather."""
        def backward(out: Tensor) -> None:
            if self.requires_grad:
                grad = np.zeros_like(self.data)
                np.add.at(grad, index, out.grad)
                self._accumulate(grad)

        return Tensor._make(self.data[index], (self,), backward)

    @staticmethod
    def segment_sum(values: "Tensor", segment_ids: np.ndarray,
                    num_segments: int) -> "Tensor":
        """Scatter-add rows of ``values`` into ``num_segments`` bins.

        ``values`` has shape ``(..., E, D)``; ``segment_ids`` maps each of
        the ``E`` rows to a bin index; the result has shape
        ``(..., num_segments, D)`` where bin ``s`` holds the sum of all rows
        with ``segment_ids == s`` (empty bins are zero).  This is the
        adjoint of an integer gather along the same axis, which is exactly
        what the backward pass is: ``grad_values = grad_out[..., ids, :]``.

        Backs the GNN's hierarchical message aggregation (Eq. 3) without
        materializing a dense (num_nodes, num_edges) matrix per level.
        """
        values = as_tensor(values)
        ids = np.asarray(segment_ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ValueError(f"segment_ids must be 1-D, got shape {ids.shape}")
        if values.ndim < 2 or values.shape[-2] != ids.size:
            raise ValueError(
                f"values shape {values.shape} does not provide {ids.size} "
                "rows along the second-to-last axis")
        if ids.size and (ids.min() < 0 or ids.max() >= num_segments):
            raise IndexError("segment id out of range")
        # Move the segment axis first so np.add.at's fancy index is on axis 0.
        moved = np.moveaxis(values.data, -2, 0)
        summed = np.zeros((num_segments,) + moved.shape[1:])
        np.add.at(summed, ids, moved)

        def backward(out: Tensor) -> None:
            if values.requires_grad:
                gathered = np.moveaxis(out.grad, -2, 0)[ids]
                values._accumulate(np.moveaxis(gathered, 0, -2))

        return Tensor._make(np.moveaxis(summed, 0, -2), (values,), backward)

    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [as_tensor(t) for t in tensors]
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(out: Tensor) -> None:
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    slicer = [slice(None)] * out.grad.ndim
                    slicer[axis] = slice(start, stop)
                    tensor._accumulate(out.grad[tuple(slicer)])

        data = np.concatenate([t.data for t in tensors], axis=axis)
        return Tensor._make(data, tensors, backward)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [as_tensor(t) for t in tensors]

        def backward(out: Tensor) -> None:
            grads = np.moveaxis(out.grad, axis, 0)
            for tensor, grad in zip(tensors, grads):
                if tensor.requires_grad:
                    tensor._accumulate(grad)

        data = np.stack([t.data for t in tensors], axis=axis)
        return Tensor._make(data, tensors, backward)

    # ------------------------------------------------------------------
    # Composite ops
    # ------------------------------------------------------------------
    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self - self.max(axis=axis, keepdims=True).detach()
        exp = shifted.exp()
        return exp / exp.sum(axis=axis, keepdims=True)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self - self.max(axis=axis, keepdims=True).detach()
        return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()

    def norm(self, axis=None, keepdims: bool = False) -> "Tensor":
        """L2 norm, differentiable (adds a small epsilon for stability at 0)."""
        return ((self * self).sum(axis=axis, keepdims=keepdims) + 1e-12).sqrt()


def as_tensor(value) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no-op if it already is one)."""
    return value if isinstance(value, Tensor) else Tensor(value)
