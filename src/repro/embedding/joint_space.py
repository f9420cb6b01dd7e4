"""The large joint embedding model (ImageBind substitute).

ImageBind binds images and text into one embedding space.  The reproduction
needs exactly two of its properties:

1. **Alignment** — a video frame showing anomaly-class evidence must embed
   near the text embeddings of that class's concepts.  We guarantee this by
   construction: synthetic frames are *rendered* from concept-space semantic
   vectors by a fixed full-rank linear map, and the image encoder inverts
   that map (plus noise).  The text encoder is fitted once by ridge
   regression so that encoding a concept phrase lands on its ontology
   vector.
2. **Differentiability through tokens** — the text path must be a
   differentiable function of token embeddings, because continuous KG
   adaptive learning backpropagates into the KG token embeddings *through*
   the frozen text encoder.  :meth:`encode_token_tensor` provides that path
   on autodiff tensors.

The model is deterministic in its seed and frozen after construction, mirror
ing the paper's frozen "Large Joint Embedding Model" (Fig. 2).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..concepts.ontology import ConceptOntology, build_default_ontology
from ..concepts.vectors import ConceptSpace
from ..nn.tensor import Tensor, pad_gemm_rows
from ..utils.rng import derive_rng
from .bpe import BPETokenizer
from .corpus import build_domain_corpus
from .tokens import TokenEmbeddingTable

__all__ = ["JointEmbeddingModel", "build_default_embedding_model",
           "EMBEDDING_FORMAT"]

#: Version of :meth:`JointEmbeddingModel.to_dict`'s layout and, with the
#: seed, a stored model's registry key: bump it when the layout or the
#: built bits change (a default of :func:`build_default_embedding_model`
#: included).
EMBEDDING_FORMAT = 1


class JointEmbeddingModel:
    """Frozen joint text/image embedding model over the concept space.

    Parameters
    ----------
    tokenizer / token_table:
        Trained BPE tokenizer and its frozen vocabulary embedding table.
    concept_space:
        The latent semantic geometry (class anchors, concept vectors).
    frame_dim:
        Dimensionality of raw synthetic frame features ("pixels").
    ridge:
        Ridge-regression regularizer used when fitting the text projection.
    """

    def __init__(self, tokenizer: BPETokenizer, token_table: TokenEmbeddingTable,
                 concept_space: ConceptSpace, frame_dim: int = 192,
                 seed: int = 7, ridge: float = 1e-3):
        self.tokenizer = tokenizer
        self.token_table = token_table
        self.concept_space = concept_space
        self.frame_dim = frame_dim
        self.joint_dim = concept_space.dim
        self.token_dim = token_table.dim
        self.seed = seed

        # --- image path: fixed rendering matrix and its pseudo-inverse ---
        rng = derive_rng(seed, "render")
        self._render = rng.normal(0.0, 1.0 / np.sqrt(self.joint_dim),
                                  size=(frame_dim, self.joint_dim))
        self._image_projection = np.linalg.pinv(self._render)
        # Contiguous transpose for encode_image: a GEMM against a
        # transposed view takes a different BLAS path whose tiny-M kernels
        # are not row-stable, which would break micro-batch score parity.
        self._image_projection_t = np.ascontiguousarray(
            self._image_projection.T)

        # --- text path: ridge-fit pooled-token -> concept-vector map -----
        vocabulary = concept_space.ontology.vocabulary()
        pooled = np.stack([token_table.embed_text(text) for text in vocabulary])
        targets = concept_space.matrix(vocabulary)
        gram = pooled.T @ pooled + ridge * np.eye(self.token_dim)
        self._text_projection = np.linalg.solve(gram, pooled.T @ targets)
        # Fit quality (diagnostic, exposed for tests): mean cosine between
        # encoded phrases and their ontology vectors.
        encoded = pooled @ self._text_projection
        cos = np.sum(encoded * targets, axis=1) / np.maximum(
            np.linalg.norm(encoded, axis=1) * np.linalg.norm(targets, axis=1), 1e-12)
        self.text_fit_cosine = float(np.mean(cos))

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    # The fitted arrays are stored as they are: a load reads the bits of
    # the process that fitted them, whatever its own BLAS threads.
    _STORED = ("frame_dim", "joint_dim", "token_dim", "seed",
               "text_fit_cosine", "_render", "_image_projection",
               "_image_projection_t", "_text_projection")

    def to_dict(self) -> dict:
        """What :meth:`from_dict` rebuilds this model from without training
        or fitting anything."""
        return {"format": EMBEDDING_FORMAT,
                "tokenizer": self.tokenizer.to_dict(),
                "token_vectors": self.token_table.vectors,
                "concept_space": self.concept_space.to_dict(),
                **{name: getattr(self, name) for name in self._STORED}}

    @classmethod
    def from_dict(cls, payload: dict) -> "JointEmbeddingModel":
        """Rebuild a :meth:`to_dict` model over the default ontology,
        adopting its arrays."""
        if payload.get("format") != EMBEDDING_FORMAT:
            raise ValueError("unsupported embedding format version: "
                             f"{payload.get('format')}")
        model = cls.__new__(cls)
        model.tokenizer = BPETokenizer.from_dict(payload["tokenizer"])
        model.token_table = TokenEmbeddingTable.from_vectors(
            model.tokenizer, payload["token_vectors"])
        model.concept_space = ConceptSpace.from_dict(
            build_default_ontology(), payload["concept_space"])
        for name in cls._STORED:
            setattr(model, name, payload[name])
        return model

    # ------------------------------------------------------------------
    # Image path
    # ------------------------------------------------------------------
    def render_semantic(self, semantic: np.ndarray,
                        rng: np.random.Generator | None = None,
                        noise: float = 0.0) -> np.ndarray:
        """Render a joint-space semantic vector into a raw frame feature.

        This is the data generator's "camera": the dataset synthesizes
        frames by rendering concept mixtures.  ``noise`` adds sensor noise
        in frame space.
        """
        if semantic.shape != (self.joint_dim,):
            raise ValueError(f"semantic must have shape ({self.joint_dim},)")
        frame = self._render @ semantic
        if noise > 0:
            if rng is None:
                raise ValueError("rng required when noise > 0")
            frame = frame + rng.normal(0.0, noise, size=self.frame_dim)
        return frame

    def render_semantics(self, semantics: np.ndarray) -> np.ndarray:
        """Render a batch of semantic vectors, noiselessly.

        Row ``i`` is bit-identical to ``render_semantic(semantics[i])``:
        the render stays a per-row GEMV (a batched GEMM accumulates in a
        different order and would change low bits, breaking the stream
        generators' bit-exactness guarantee).  Callers add sensor noise
        themselves so they control the RNG draw order.
        """
        if semantics.ndim != 2 or semantics.shape[1] != self.joint_dim:
            raise ValueError(
                f"semantics must have shape (n, {self.joint_dim})")
        frames = np.empty((semantics.shape[0], self.frame_dim))
        for index in range(semantics.shape[0]):
            frames[index] = self._render @ semantics[index]
        return frames

    def encode_image(self, frame: np.ndarray) -> np.ndarray:
        """Embed raw frame features into the joint space (E_I in the paper).

        Tiny batches are padded up to the row-stable GEMM floor so a
        frame's encoding is bit-identical whether it is encoded alone or
        inside a coalesced serving micro-batch.
        """
        frame = np.asarray(frame, dtype=np.float64)
        if frame.shape[-1] != self.frame_dim:
            raise ValueError(f"frame feature dim must be {self.frame_dim}")
        if frame.ndim >= 2:
            # Always flatten to one 2-D GEMM: a stacked (..., B, T) matmul
            # would run per-batch tiny-M kernels — the unstable regime the
            # row floor exists to avoid — and pad tiny batches up to it.
            lead = frame.shape[:-1]
            flat = frame.reshape(-1, self.frame_dim)
            flat, rows = pad_gemm_rows(flat)
            out = flat @ self._image_projection_t
            return out[:rows].reshape(lead + (self.joint_dim,))
        return frame @ self._image_projection_t

    # ------------------------------------------------------------------
    # Text path
    # ------------------------------------------------------------------
    def encode_text(self, text: str) -> np.ndarray:
        """Embed a text phrase into the joint space (frozen, non-diff path)."""
        pooled = self.token_table.embed_text(text)
        return pooled @ self._text_projection

    def encode_token_vectors(self, token_vectors: np.ndarray) -> np.ndarray:
        """Embed explicit token vectors (n_tokens, token_dim) -> joint vector."""
        if token_vectors.ndim != 2 or token_vectors.shape[1] != self.token_dim:
            raise ValueError(f"expected (n, {self.token_dim}) token vectors")
        return token_vectors.mean(axis=0) @ self._text_projection

    def encode_token_tensor(self, token_vectors: Tensor) -> Tensor:
        """Differentiable text path for continuous KG adaptation.

        ``token_vectors`` is an autodiff tensor of shape
        ``(n_tokens, token_dim)`` — typically a KG node's learnable token
        embeddings.  The projection itself stays frozen (a constant on the
        tape), so gradients flow only into the token vectors.
        """
        return self.encode_token_tensors(
            [token_vectors], np.zeros(1, dtype=np.int64),
            np.zeros((1, self.joint_dim)))[0]

    def encode_token_tensors(self, token_tensors: Sequence[Tensor],
                             rows: np.ndarray, base: np.ndarray) -> Tensor:
        """:meth:`encode_token_tensor` of several nodes as one tape node:
        ``base`` ``(n, joint_dim)`` with row ``rows[i]`` replaced by the
        embedding of ``token_tensors[i]``."""
        return Tensor.pooled_projection(token_tensors, self._text_projection,
                                        rows, base)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def alignment(self, frame: np.ndarray, text: str) -> float:
        """Cosine similarity between an encoded frame and an encoded phrase."""
        image_vec = self.encode_image(frame)
        text_vec = self.encode_text(text)
        denom = max(np.linalg.norm(image_vec) * np.linalg.norm(text_vec), 1e-12)
        return float(image_vec @ text_vec / denom)


def build_default_embedding_model(seed: int = 7, joint_dim: int = 64,
                                  token_dim: int = 128, frame_dim: int = 192,
                                  num_merges: int = 300,
                                  ontology: ConceptOntology | None = None,
                                  ) -> JointEmbeddingModel:
    """Assemble the full default stack: ontology, BPE, token table, model."""
    ontology = ontology or build_default_ontology()
    tokenizer = BPETokenizer().train(build_domain_corpus(), num_merges=num_merges)
    token_table = TokenEmbeddingTable(tokenizer, dim=token_dim, seed=seed)
    space = ConceptSpace(ontology, dim=joint_dim, seed=seed)
    return JointEmbeddingModel(tokenizer, token_table, space,
                               frame_dim=frame_dim, seed=seed)
