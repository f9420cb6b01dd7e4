"""Multi-head self-attention and transformer encoder blocks.

The paper's short-term temporal model ``T : R^{T x D} -> R^D`` is a
transformer that consumes the reasoning embeddings of the previous ``T``
consecutive frames and emits the output embedding at the final position
(Section III-C).  The paper specifies an inner dimensionality of 128 with
8 attention heads.

Only that final position is ever read, so the last block runs from one
query per window: :meth:`Tensor.last_query_attention` (no keys or values
are projected), then everything position-wise on one row.
"""

from __future__ import annotations

import numpy as np

from .layers import Dense, Dropout, LayerNorm, Module
from .tensor import Tensor

__all__ = ["MultiHeadAttention", "TransformerEncoderLayer", "TransformerEncoder",
           "sinusoidal_positions"]


def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    """Standard sinusoidal positional encoding table of shape (length, dim)."""
    positions = np.arange(length)[:, None]
    div = np.exp(np.arange(0, dim, 2) * (-np.log(10000.0) / dim))
    table = np.zeros((length, dim))
    table[:, 0::2] = np.sin(positions * div)
    table[:, 1::2] = np.cos(positions * div[: table[:, 1::2].shape[1]])
    return table


class MultiHeadAttention(Module):
    """Scaled dot-product multi-head self-attention.

    Operates on ``(B, T, D)`` tensors.  Supports an optional causal mask so
    the temporal model's final-position output only attends to the past —
    matching "focusing on short-term relationships" in the paper.
    """

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator,
                 causal: bool = False):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.causal = causal
        self.w_q = Dense(dim, dim, rng)
        self.w_k = Dense(dim, dim, rng)
        self.w_v = Dense(dim, dim, rng)
        self.w_o = Dense(dim, dim, rng)

    def _split_heads(self, x: Tensor, batch: int, length: int) -> Tensor:
        # (B, T, D) -> (B, H, T, Dh)
        return x.reshape(batch, length, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, x: Tensor, last_only: bool = False) -> Tensor:
        """Self-attention over ``(B, T, D)``.

        With ``last_only`` the query set is restricted to the final
        position, returning ``(B, 1, D)``.  For a *causal* model whose
        consumer only reads the last time step (the paper's short-term
        temporal model) this is exactly that step's attention output, and
        needs no mask: the final position attends to the whole window.
        A single query also needs no keys or values — that path is the
        :meth:`Tensor.last_query_attention` kernel, and the all-queries
        path below is what the tests hold it to.
        """
        if x.ndim != 3:
            raise ValueError(f"expected (B, T, D), got shape {x.shape}")
        if last_only:
            return self.w_o(x.last_query_attention(
                self.w_q.weight, self.w_q.bias, self.w_k.weight,
                self.w_v.weight, self.w_v.bias, self.num_heads))
        batch, length, _ = x.shape
        q = self._split_heads(self.w_q(x), batch, length)
        k = self._split_heads(self.w_k(x), batch, length)
        v = self._split_heads(self.w_v(x), batch, length)

        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(self.head_dim))
        if self.causal:
            mask = np.triu(np.full((length, length), -1e9), k=1)
            scores = scores + Tensor(mask)
        attn = scores.softmax(axis=-1)
        context = attn @ v  # (B, H, T, Dh)
        merged = context.transpose(0, 2, 1, 3).reshape(batch, length, self.dim)
        return self.w_o(merged)


class TransformerEncoderLayer(Module):
    """Pre-norm transformer block: MHA + position-wise feed-forward."""

    def __init__(self, dim: int, num_heads: int, ff_dim: int,
                 rng: np.random.Generator, dropout: float = 0.0,
                 causal: bool = False):
        super().__init__()
        self.attn = MultiHeadAttention(dim, num_heads, rng, causal=causal)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)
        self.ff1 = Dense(dim, ff_dim, rng)
        self.ff2 = Dense(ff_dim, dim, rng)
        self.drop = Dropout(dropout, rng) if dropout > 0 else None

    def forward(self, x: Tensor, last_only: bool = False) -> Tensor:
        """One encoder block; ``last_only`` restricts the output (and all
        position-wise work — feed-forward, second norm, residuals) to the
        final time step, returning ``(B, 1, D)``.  Only valid as the *last*
        block of a stack, since downstream blocks would need the full
        sequence."""
        attn_out = self.attn(self.norm1(x), last_only=last_only)
        if self.drop is not None:
            attn_out = self.drop(attn_out)
        x = (x[:, x.shape[1] - 1:, :] if last_only else x) + attn_out
        ff_out = self.ff2(self.ff1(self.norm2(x)).relu())
        if self.drop is not None:
            ff_out = self.drop(ff_out)
        return x + ff_out


class TransformerEncoder(Module):
    """Stack of encoder layers with learned input projection and positions.

    ``forward`` maps ``(B, T, D_in)`` to ``(B, T, D_in)`` and
    :meth:`last_output` returns only the final time step, matching the
    paper's ``f'_t = T(F_t)`` which "only takes the last output embedding".
    """

    def __init__(self, input_dim: int, model_dim: int, num_heads: int,
                 num_layers: int, rng: np.random.Generator,
                 max_length: int = 64, ff_multiplier: int = 4,
                 dropout: float = 0.0, causal: bool = True):
        super().__init__()
        self.input_dim = input_dim
        self.model_dim = model_dim
        self.in_proj = Dense(input_dim, model_dim, rng)
        self.out_proj = Dense(model_dim, input_dim, rng)
        self.layers = [
            TransformerEncoderLayer(model_dim, num_heads, ff_multiplier * model_dim,
                                    rng, dropout=dropout, causal=causal)
            for _ in range(num_layers)
        ]
        self.final_norm = LayerNorm(model_dim)
        self.positions = sinusoidal_positions(max_length, model_dim)
        self.max_length = max_length

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 3:
            raise ValueError(f"expected (B, T, D), got shape {x.shape}")
        length = x.shape[1]
        if length > self.max_length:
            raise ValueError(f"sequence length {length} exceeds max {self.max_length}")
        h = self.in_proj(x) + Tensor(self.positions[:length])
        for layer in self.layers:
            h = layer(h)
        return self.out_proj(self.final_norm(h))

    def last_output(self, x: Tensor) -> Tensor:
        """Return the output embedding at the final position, shape (B, D_in).

        For a causal stack only the final position is needed downstream of
        the last block, so that block (plus the final norm and output
        projection) runs on a single time step — the bulk of the
        position-wise compute in the window-scoring hot path.
        """
        if x.ndim != 3:
            raise ValueError(f"expected (B, T, D), got shape {x.shape}")
        length = x.shape[1]
        if length > self.max_length:
            raise ValueError(f"sequence length {length} exceeds max {self.max_length}")
        h = self.in_proj(x) + Tensor(self.positions[:length])
        for layer in self.layers[:-1]:
            h = layer(h)
        h = self.layers[-1](h, last_only=True)
        return self.out_proj(self.final_norm(h))[:, -1, :]
