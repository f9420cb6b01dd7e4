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

Fused kernels
-------------
The rule: **a block the model repeats is one kernel** — one forward in
plain numpy, one tape node, one hand-written backward.  At the served
shapes a forward is bound by how many tensors it creates, not by their
arithmetic, so the blocks every forward runs many times are not spelled
as chains of the elementary ops above:

* :meth:`Tensor.affine` — ``x @ W + b`` as one row-stable 2-D GEMM
  (``Dense``);
* :meth:`Tensor.layer_norm` — normalization over the last axis
  (``LayerNorm``);
* :meth:`Tensor.softmax` / :meth:`Tensor.log_softmax`;
* :meth:`Tensor.frozen_batch_norm` — running statistics and affine
  parameters folded into one scale-and-shift (``BatchNorm`` in eval mode);
* :meth:`Tensor.message_pass` — gather x factor -> segment-sum -> mean ->
  add (the GNN's Eq. 2-3), over a compiled :class:`EdgeSchedule`, rows
  first: each gather and scatter moves one block of all frames per edge;
* :meth:`Tensor.pooled_projection` — the text path of all of a KG's
  concept nodes (token mean, then the projection into the joint space);
* :meth:`Tensor.take_rows` — a static row gather whose backward uses a
  schedule compiled once.

Each forward keeps the operation order of the expression it stands for
(the tests hold them bit-equal to it).  A kernel computes nothing for its
backward ahead of time, and off the tape ``_make`` drops the closure, so
no array outlives a forward on behalf of a backward that will never run.
Elementwise ops use whole-array numpy calls, not boolean-mask gathers and
scatters: :meth:`Tensor.elu` equals the masked formula to the bit, signed
zeros included.

One kernel is not the expression it replaced but an algebraic rewrite of
it, equal to rounding and cheaper in FLOPs:

* :meth:`Tensor.last_query_attention` — multi-head attention for the last
  position's query alone, with the key projection folded into the query
  and the values projected after mixing (the temporal model's last block).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "as_tensor",
           "MIN_STABLE_GEMM_ROWS", "pad_gemm_rows", "EdgeSchedule",
           "scatter_passes"]


class _GradMode(threading.local):
    """Whether ops record the tape, per thread: a sharded fleet's shards
    score under ``no_grad`` on one thread while another adapts."""

    enabled = True


_GRAD = _GradMode()

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
    previous = _GRAD.enabled
    _GRAD.enabled = False
    try:
        yield
    finally:
        _GRAD.enabled = previous


def is_grad_enabled() -> bool:
    """Return whether operations are currently being recorded on the tape
    (on this thread)."""
    return _GRAD.enabled


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


_BASIC_INDEX = (int, np.integer, slice, type(None), type(Ellipsis))


def _is_basic_index(index) -> bool:
    """Basic (view) indexing: no element is selected twice."""
    items = index if isinstance(index, tuple) else (index,)
    return all(isinstance(item, _BASIC_INDEX) for item in items)


def scatter_passes(ids: np.ndarray) -> tuple[tuple, ...]:
    """Split the scatter-add ``out[ids[e]] += values[e]`` into passes.

    Pass ``r`` is ``(positions, ids[positions])`` for the entries that are
    the ``r``-th occurrence of their id (plain ints when there is one such
    entry, which makes that pass a view operation), so within a pass no id
    repeats and an indexed ``+=`` is exact; run in order, every bin
    receives its values in entry order — the order ``np.add.at`` adds them
    in, hence the same bits, at a fraction of its cost.
    (``np.add.reduceat`` over sorted entries is not the same bits: from
    three entries per bin up it associates the sum differently.)
    """
    ids = np.asarray(ids, dtype=np.int64)
    if not ids.size:
        return ()
    order = np.argsort(ids, kind="stable")
    ordered = ids[order]
    is_first = np.ones(ids.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=is_first[1:])
    first = np.flatnonzero(is_first)
    counts = np.diff(first, append=ids.size)
    rank = np.arange(ids.size) - np.repeat(first, counts)
    passes = []
    for r in range(int(counts.max())):
        positions = order[rank == r]
        if positions.size == 1:
            passes.append((int(positions[0]), int(ids[positions[0]])))
        else:
            passes.append((positions, ids[positions]))
    return tuple(passes)


def _scatter_add(out: np.ndarray, passes: tuple[tuple, ...],
                 values: np.ndarray) -> None:
    """``out[ids[e]] += values[e]`` by :func:`scatter_passes`, along axis 0:
    one contiguous block per entry when the arrays are."""
    for positions, ids in passes:
        out[ids] += values[positions]


class EdgeSchedule:
    """Edges ``sources[e] -> targets[e]`` compiled for :meth:`Tensor.message_pass`.

    ``sources`` / ``targets`` stay in edge order; ``target_passes`` and
    ``source_passes`` are their :func:`scatter_passes`, for the forward's
    aggregation into the targets and the backward's into the sources.
    """

    __slots__ = ("sources", "targets", "target_passes", "source_passes")

    def __init__(self, sources: np.ndarray, targets: np.ndarray):
        self.sources = np.asarray(sources, dtype=np.int64)
        self.targets = np.asarray(targets, dtype=np.int64)
        if self.sources.shape != self.targets.shape or self.sources.ndim != 1:
            raise ValueError("sources and targets must be 1-D and equally long")
        self.target_passes = scatter_passes(self.targets)
        self.source_passes = scatter_passes(self.sources)


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
        self.requires_grad = bool(requires_grad) and _GRAD.enabled
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
        # Every op ends here, so this is the fixed cost of a tensor: no
        # ``__init__``, and no conversion of what already is a float64 array.
        out = object.__new__(Tensor)
        if type(data) is not np.ndarray or data.dtype != np.float64:
            data = np.asarray(data, dtype=np.float64)
        out.data = data
        out.grad = None
        out.name = None
        requires = False
        if _GRAD.enabled:
            for parent in parents:
                if parent.requires_grad:
                    requires = True
                    break
        out.requires_grad = requires
        if requires and backward is not None:
            out._prev = tuple(parents)
            # The bare function, called as ``node._backward(node)``: a
            # closure over ``out`` would make every taped tensor reference
            # itself, and the whole tape (with each array its closures
            # hold) would then outlive ``del loss`` until the cyclic GC's
            # oldest generation happens to run.
            out._backward = backward
        else:
            out._prev = ()
            out._backward = None
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            self.grad += grad  # into the copy made above

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
        x = self.data
        # Whole-array ops, no boolean gather or scatter (with random signs
        # those cost several times the transcendental).  ``expm1`` is
        # expm1(x) on every entry ELU bends (copysign keeps the -0.0 that
        # np.minimum may turn into +0.0) and +0.0 on the rest, so a large
        # positive entry never reaches expm1; np.maximum(x, -0.0) is x on
        # those and -0.0, which adds nothing, on the bent ones.
        expm1 = np.copysign(np.expm1(np.minimum(x, 0.0)), x)
        value = alpha * expm1
        value += np.maximum(x, -0.0)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(
                    out.grad * np.where(x <= 0, alpha * (expm1 + 1.0), 1.0))

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
                if _is_basic_index(index):
                    grad[index] += out.grad
                elif (isinstance(index, np.ndarray) and index.ndim == 1
                        and index.dtype.kind in "iu"):
                    rows = np.where(index < 0, index + self.shape[0], index)
                    _scatter_add(grad, scatter_passes(rows), out.grad)
                else:
                    np.add.at(grad, index, out.grad)
                self._accumulate(grad)

        return Tensor._make(self.data[index], (self,), backward)

    def take_rows(self, rows: np.ndarray, passes: tuple[tuple, ...]) -> "Tensor":
        """``self[rows]`` of an ``(n, D)`` matrix for a static index:
        ``passes`` is ``scatter_passes(rows)``, compiled once by whoever
        owns ``rows`` instead of by every backward."""
        def backward(out: Tensor) -> None:
            grad = np.zeros_like(self.data)
            _scatter_add(grad, passes, out.grad)
            self._accumulate(grad)

        return Tensor._make(self.data[rows], (self,), backward)

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
        summed = np.zeros(values.shape[:-2] + (num_segments, values.shape[-1]))
        _scatter_add(np.moveaxis(summed, -2, 0), scatter_passes(ids),
                     np.moveaxis(values.data, -2, 0))

        def backward(out: Tensor) -> None:
            if values.requires_grad:
                values._accumulate(out.grad[..., ids, :])

        return Tensor._make(summed, (values,), backward)

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
    # Fused kernels: one tape node per block the model repeats
    # ------------------------------------------------------------------
    def affine(self, weight: "Tensor", bias: "Tensor | None" = None) -> "Tensor":
        """``self @ weight + bias`` over the last axis (a ``Dense`` layer).

        The leading axes are flattened into one so the product runs as a
        single 2-D GEMM instead of numpy's per-batch matmul loop, and tiny
        row counts are padded up to :data:`MIN_STABLE_GEMM_ROWS` so a row's
        result does not depend on how many rows were batched with it
        (micro-batch / sequential score parity).
        """
        x, w = self.data, weight.data
        if x.ndim == 1:
            out = x @ w
        else:
            flat = x.reshape(-1, x.shape[-1])
            padded, rows = pad_gemm_rows(flat)
            out = (padded @ w)[:rows]
        if bias is not None:
            out += bias.data
        if x.ndim > 2:
            out = out.reshape(x.shape[:-1] + (w.shape[-1],))

        def backward(node: Tensor) -> None:
            grad = node.grad.reshape(-1, w.shape[-1])
            if self.requires_grad:
                self._accumulate((grad @ w.T).reshape(x.shape))
            if weight.requires_grad:
                weight._accumulate(x.reshape(-1, x.shape[-1]).T @ grad)
            if bias is not None and bias.requires_grad:
                bias._accumulate(grad.sum(axis=0))

        parents = (self, weight) if bias is None else (self, weight, bias)
        return Tensor._make(out, parents, backward)

    def layer_norm(self, gamma: "Tensor", beta: "Tensor", eps: float) -> "Tensor":
        """``(x - mean) / sqrt(var + eps) * gamma + beta`` over the last axis."""
        x = self.data
        scale = 1.0 / x.shape[-1]
        normed = x - x.sum(axis=-1, keepdims=True) * scale
        std = np.sqrt((normed * normed).sum(axis=-1, keepdims=True) * scale + eps)
        normed /= std
        out = normed * gamma.data
        out += beta.data

        def backward(node: Tensor) -> None:
            grad = node.grad
            lead = tuple(range(grad.ndim - 1))
            if beta.requires_grad:
                beta._accumulate(grad.sum(axis=lead))
            if gamma.requires_grad:
                gamma._accumulate((grad * normed).sum(axis=lead))
            if self.requires_grad:
                g = grad * gamma.data
                g -= g.mean(axis=-1, keepdims=True)
                g -= normed * (g * normed).mean(axis=-1, keepdims=True)
                g /= std
                self._accumulate(g)

        return Tensor._make(out, (self, gamma, beta), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        probs = np.exp(self.data - self.data.max(axis=axis, keepdims=True))
        probs /= probs.sum(axis=axis, keepdims=True)

        def backward(node: Tensor) -> None:
            inner = (node.grad * probs).sum(axis=axis, keepdims=True)
            self._accumulate(probs * (node.grad - inner))

        return Tensor._make(probs, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        out = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

        def backward(node: Tensor) -> None:
            total = node.grad.sum(axis=axis, keepdims=True)
            self._accumulate(node.grad - np.exp(out) * total)

        return Tensor._make(out, (self,), backward)

    def frozen_batch_norm(self, gamma: "Tensor", beta: "Tensor",
                          mean: np.ndarray, var: np.ndarray,
                          eps: float) -> "Tensor":
        """Batch normalization with fixed statistics over the last axis.

        The statistics and the affine parameters fold, on ``(features,)``
        vectors, into one scale-and-shift of the full-size input; nothing
        of the fold is kept between calls, so there is nothing to
        invalidate when a parameter or a buffer is rebound.
        """
        inv_std = 1.0 / np.sqrt(var + eps)
        scale = gamma.data * inv_std
        out = self.data * scale
        out += beta.data - mean * scale

        def backward(node: Tensor) -> None:
            grad = node.grad
            lead = tuple(range(grad.ndim - 1))
            if self.requires_grad:
                self._accumulate(grad * scale)
            if gamma.requires_grad:
                gamma._accumulate(
                    ((grad * self.data).sum(axis=lead)
                     - mean * grad.sum(axis=lead)) * inv_std)
            if beta.requires_grad:
                beta._accumulate(grad.sum(axis=lead))

        return Tensor._make(out, (self, gamma, beta), backward)

    @staticmethod
    def message_pass(refined: "Tensor", factor: "Tensor", own: "Tensor",
                     edges: EdgeSchedule, mean_scale: np.ndarray) -> "Tensor":
        """The GNN's hierarchical message passing and aggregation (Eq. 2-3).

        Rows first: ``refined`` ``(n_src, ..., D)`` holds the rows messages
        start from, each a block over the frame axes ``...``; edge ``e``
        carries ``refined[sources[e]] * factor[e]`` into row ``targets[e]``;
        the rows' sums, times ``mean_scale`` (the ``n`` reciprocal
        in-degrees, any shape of that size), are added to ``own``
        ``(n, ..., D)``.  ``factor`` ``(E, D)`` and ``own`` ``(n, D)`` may
        lack the frame axes (the token side has none) and are then shared
        by every frame.  With no edge the result is ``own`` for every
        frame of ``refined``, whose rows are then not read.

        Every gather and scatter moves one block of all frames per edge,
        not one ``D``-row per (frame, edge).
        """
        frames = refined.shape[1:-1]
        axes = tuple(range(1, 1 + len(frames)))  # a row block's frame axes

        def spread(tensor: Tensor) -> np.ndarray:
            data = tensor.data
            return data if data.ndim == refined.ndim else np.expand_dims(data, axes)

        def collapse(grad: np.ndarray, tensor: Tensor) -> np.ndarray:
            return grad if tensor.ndim == grad.ndim else grad.sum(axis=axes)

        scale = mean_scale.reshape((own.shape[0],) + (1,) * (len(frames) + 1))
        shape = own.shape[:1] + frames + own.shape[-1:]
        # Results (and ``into`` below) keep the memory order of the arrays
        # they stand for: ``finish`` passes rows-first views of frames-first
        # arrays, and the training-mode batch statistics after it reduce in
        # memory order, so their bits (and the trained weights') depend on it.
        out = np.zeros_like(own.data) if own.shape == shape else np.zeros(shape)
        gathered = None
        if edges.sources.size:
            gathered = refined.data[edges.sources]
            _scatter_add(out, edges.target_passes, gathered * spread(factor))
        out *= scale
        out += spread(own)

        def backward(node: Tensor) -> None:
            grad = node.grad
            if own.requires_grad:
                own._accumulate(collapse(grad, own))
            if gathered is None:
                return
            per_edge = (grad * scale)[edges.targets]
            if factor.requires_grad:
                factor._accumulate(collapse(per_edge * gathered, factor))
            if refined.requires_grad:
                into = np.zeros_like(refined.data)
                _scatter_add(into, edges.source_passes,
                             per_edge * spread(factor))
                refined._accumulate(into)

        return Tensor._make(out, (refined, factor, own), backward)

    @staticmethod
    def pooled_projection(tokens: Sequence["Tensor"], projection: np.ndarray,
                          rows: np.ndarray, base: np.ndarray) -> "Tensor":
        """``base`` with row ``rows[i]`` set to ``mean(tokens[i]) @ projection``.

        The text path of a KG's concept nodes: ``tokens[i]`` is node
        ``i``'s ``(n_i, token_dim)`` token matrix (``n_i`` varies, hence
        the loop), ``projection`` the frozen ``(token_dim, D)`` map and
        ``base`` the ``(n, D)`` constant rows.  Each row is the GEMV the
        per-node expression ``tokens.sum(0) * (1 / n_i) @ projection`` runs.
        """
        out = base.copy()
        for row, node in zip(rows, tokens):
            out[row] = (node.data.sum(axis=0) * (1.0 / node.shape[0])) @ projection

        def backward(result: Tensor) -> None:
            pooled = result.grad[rows] @ projection.T
            for grad, node in zip(pooled, tokens):
                if node.requires_grad:
                    count = node.shape[0]
                    node._accumulate(
                        np.repeat(grad[None] * (1.0 / count), count, axis=0))

        return Tensor._make(out, tuple(tokens), backward)

    def last_query_attention(self, w_q: "Tensor", b_q: "Tensor", w_k: "Tensor",
                             w_v: "Tensor", b_v: "Tensor",
                             num_heads: int) -> "Tensor":
        """Multi-head attention of the last position's query over all ``T``.

        ``self`` is ``(B, T, D)``; the result is the merged heads
        ``(B, 1, D)``, before the output projection.  One query needs
        neither K nor V.  With ``q_h`` the query's head ``h`` and
        ``W_k[h]``, ``W_v[h]`` the ``(D, d_h)`` column blocks:
        ``q_h . (x_t W_k[h] + b_k[h]) = (W_k[h] q_h) . x_t + const``, and a
        constant over ``t`` cancels in the softmax (the key bias takes no
        part and gets no gradient); ``sum_t a_t (x_t W_v[h] + b_v[h]) =
        (sum_t a_t x_t) W_v[h] + b_v[h]`` because the weights sum to one.
        So the keys' projection is folded into the query and the values are
        projected after mixing: ``2 D^2 + 2 H T D`` multiply-adds per
        window instead of ``2 T D^2``.

        Every product whose row count is the number of windows pads it to
        :data:`MIN_STABLE_GEMM_ROWS` like :meth:`affine`, and the two
        per-window products have shapes that do not depend on ``B``, so a
        window's result does not depend on what it was batched with.  The
        head-major weight blocks are laid out per call: nothing is cached,
        so nothing needs invalidating when a weight is rebound.
        """
        x = self.data
        batch, _, dim = x.shape
        head_dim = dim // num_heads
        scale = 1.0 / np.sqrt(head_dim)
        by_head = (1, 0, 2)  # (B, H, .) <-> (H, B, .)
        last, _ = pad_gemm_rows(x[:, -1, :])
        padded = last.shape[0]
        q = last @ w_q.data
        q += b_q.data
        k_blocks = np.ascontiguousarray(w_k.data.T).reshape(
            num_heads, head_dim, dim)                             # W_k[h].T
        v_blocks = np.ascontiguousarray(
            w_v.data.reshape(dim, num_heads, head_dim).transpose(by_head))
        folded = (q.reshape(padded, num_heads, head_dim).transpose(by_head)
                  @ k_blocks).transpose(by_head)[:batch]         # (B, H, D)
        attn = folded @ x.transpose(0, 2, 1)                      # (B, H, T)
        attn *= scale
        np.exp(attn - attn.max(axis=-1, keepdims=True), out=attn)
        attn /= attn.sum(axis=-1, keepdims=True)
        mixed = np.zeros((padded, num_heads, dim))
        np.matmul(attn, x, out=mixed[:batch])                     # (B, H, D)
        out = (mixed.transpose(by_head) @ v_blocks).transpose(by_head)[:batch]
        out = out.reshape(batch, 1, dim)
        out += b_v.data

        def backward(node: Tensor) -> None:
            grad = node.grad.reshape(batch, num_heads, head_dim)
            g_heads = grad.transpose(by_head)                     # (H, B, d_h)
            if b_v.requires_grad:
                b_v._accumulate(grad.reshape(batch, dim).sum(axis=0))
            if w_v.requires_grad:
                mixed_heads = mixed[:batch].transpose(by_head)    # (H, B, D)
                w_v._accumulate((mixed_heads.transpose(0, 2, 1) @ g_heads)
                                .transpose(by_head).reshape(dim, dim))
            g_mixed = (g_heads @ v_blocks.transpose(0, 2, 1)).transpose(by_head)
            g_scores = g_mixed @ x.transpose(0, 2, 1)             # (B, H, T)
            g_scores -= (g_scores * attn).sum(axis=-1, keepdims=True)
            g_scores *= attn
            g_scores *= scale
            g_folded = (g_scores @ x).transpose(by_head)          # (H, B, D)
            if w_k.requires_grad:
                q_heads = q[:batch].reshape(batch, num_heads, head_dim)
                w_k._accumulate(
                    (g_folded.transpose(0, 2, 1) @ q_heads.transpose(by_head))
                    .transpose(by_head).reshape(dim, dim))
            g_q = ((g_folded @ k_blocks.transpose(0, 2, 1))
                   .transpose(by_head).reshape(batch, dim))
            if b_q.requires_grad:
                b_q._accumulate(g_q.sum(axis=0))
            if w_q.requires_grad:
                w_q._accumulate(x[:, -1, :].T @ g_q)
            if self.requires_grad:
                g_x = attn.transpose(0, 2, 1) @ g_mixed           # (B, T, D)
                g_x += g_scores.transpose(0, 2, 1) @ folded
                g_x[:, -1, :] += g_q @ w_q.data.T
                self._accumulate(g_x)

        return Tensor._make(out, (self, w_q, b_q, w_k, w_v, b_v), backward)

    # ------------------------------------------------------------------
    # Composite ops
    # ------------------------------------------------------------------
    def norm(self, axis=None, keepdims: bool = False) -> "Tensor":
        """L2 norm, differentiable (adds a small epsilon for stability at 0)."""
        return ((self * self).sum(axis=axis, keepdims=keepdims) + 1e-12).sqrt()


def as_tensor(value) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no-op if it already is one)."""
    return value if isinstance(value, Tensor) else Tensor(value)
