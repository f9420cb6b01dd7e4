"""Vocabulary token-embedding table and nearest-token search.

The joint embedding model owns a frozen, "pre-trained" embedding vector per
BPE vocabulary token.  Two consumers:

* the text encoder (token ids -> token vectors -> pooled text embedding);
* interpretable KG retrieval, which searches this table for the nearest
  tokens to an *adaptively learned* embedding and decodes them to words
  (paper Section III-E; Euclidean distance is the paper's chosen metric).
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..utils.rng import derive_rng
from .bpe import BPETokenizer

__all__ = ["TokenEmbeddingTable"]


class TokenEmbeddingTable:
    """Frozen per-token embedding matrix with similarity search.

    Parameters
    ----------
    tokenizer:
        Trained BPE tokenizer; table rows align with its token ids.
    dim:
        Token embedding dimensionality.
    seed:
        Determinism root for the "pre-trained" vectors.
    """

    METRICS = ("euclidean", "cosine", "dot")

    def __init__(self, tokenizer: BPETokenizer, dim: int = 128, seed: int = 7):
        if tokenizer.vocab_size == 0:
            raise ValueError("tokenizer has an empty vocabulary; train it first")
        self.tokenizer = tokenizer
        self.dim = dim
        rng = derive_rng(seed, "token-table")
        table = rng.normal(0.0, 1.0, size=(tokenizer.vocab_size, dim))
        table /= np.linalg.norm(table, axis=1, keepdims=True)
        self.vectors: np.ndarray = table  # frozen; never trained
        self._fingerprint: tuple[np.ndarray | None, str] = (None, "")

    @classmethod
    def from_vectors(cls, tokenizer: BPETokenizer,
                     vectors: np.ndarray) -> "TokenEmbeddingTable":
        """A table over stored vectors; draws nothing."""
        table = cls.__new__(cls)
        table.tokenizer, table.dim, table.vectors = (tokenizer,
                                                     vectors.shape[1], vectors)
        table._fingerprint = (None, "")
        return table

    @property
    def fingerprint(self) -> str:
        """SHA-256 of :attr:`vectors`, once per array (``data-rebind``)."""
        if self._fingerprint[0] is not self.vectors:
            vectors = np.ascontiguousarray(self.vectors, dtype=np.float64)
            self._fingerprint = (self.vectors, hashlib.sha256(
                vectors.tobytes()).hexdigest()[:16])
        return self._fingerprint[1]

    @property
    def vocab_size(self) -> int:
        return self.vectors.shape[0]

    def lookup(self, token_ids: list[int] | np.ndarray) -> np.ndarray:
        """Rows for the given token ids, shape (len(ids), dim)."""
        ids = np.asarray(token_ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.vocab_size):
            raise IndexError("token id out of range")
        return self.vectors[ids]

    def embed_text(self, text: str) -> np.ndarray:
        """Mean-pooled token embedding of a text phrase."""
        ids = self.tokenizer.encode(text)
        if not ids:
            return np.zeros(self.dim)
        return self.lookup(ids).mean(axis=0)

    # ------------------------------------------------------------------
    # Nearest-token retrieval (paper Section III-E)
    # ------------------------------------------------------------------
    def scores(self, query: np.ndarray, metric: str = "euclidean") -> np.ndarray:
        """Similarity score of ``query`` against every vocabulary token.

        Higher is more similar for all metrics (Euclidean distances are
        negated).
        """
        if metric not in self.METRICS:
            raise ValueError(f"unknown metric {metric!r}; choose from {self.METRICS}")
        if query.shape != (self.dim,):
            raise ValueError(f"query must have shape ({self.dim},), got {query.shape}")
        if metric == "euclidean":
            return -np.linalg.norm(self.vectors - query[None, :], axis=1)
        if metric == "cosine":
            norms = np.linalg.norm(self.vectors, axis=1) * max(np.linalg.norm(query), 1e-12)
            return (self.vectors @ query) / np.maximum(norms, 1e-12)
        return self.vectors @ query  # dot

    def nearest_tokens(self, query: np.ndarray, k: int = 5,
                       metric: str = "euclidean",
                       skip_special: bool = True) -> list[tuple[int, str, float]]:
        """Top-k nearest tokens: (token id, decoded word piece, score)."""
        sims = self.scores(query, metric=metric)
        order = np.argsort(-sims)
        results: list[tuple[int, str, float]] = []
        for token_id in order:
            token = self.tokenizer.id_to_token[token_id]
            if skip_special and token in (self.tokenizer.PAD, self.tokenizer.UNK):
                continue
            results.append((int(token_id), self.tokenizer.decode_token(int(token_id)),
                            float(sims[token_id])))
            if len(results) == k:
                break
        return results
