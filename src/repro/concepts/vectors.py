"""Deterministic concept vector space.

This is the latent semantic geometry underlying the whole synthetic
evaluation.  Every ontology concept gets a unit vector such that:

* concepts belonging to the same anomaly class cluster together;
* anomaly classes in the same semantic cluster (e.g. Stealing and Robbery,
  both acquisitive crimes) have *correlated* class anchors, while classes
  in different clusters (Stealing vs Explosion) are nearly orthogonal;
* normal-activity concepts live in their own region.

These properties are exactly what makes the paper's weak-vs-strong
anomaly-shift distinction (Fig. 5 A/B) meaningful in our reproduction: a
weak shift moves the data distribution a short distance in concept space,
a strong shift moves it far.
"""

from __future__ import annotations

import numpy as np

from ..utils.rng import derive_rng
from .ontology import ANOMALY_CLASSES, CLASS_CLUSTERS, ConceptOntology

__all__ = ["ConceptSpace"]


def _normalize(v: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / np.maximum(norm, 1e-12)


class ConceptSpace:
    """Maps ontology concepts and anomaly classes to unit vectors.

    Parameters
    ----------
    ontology:
        The concept ontology to embed.
    dim:
        Dimensionality of the semantic space (paper's joint space is large;
        64 is ample for 13 classes and keeps the reproduction fast).
    seed:
        Root seed; all vectors are deterministic functions of it.
    cluster_spread:
        How far class anchors deviate from their cluster anchor.  Smaller
        values make same-cluster classes more similar (weaker shifts).
    concept_spread:
        How far concept vectors deviate from their class anchor(s).
    normal_spread:
        Spread of normal-activity concepts around the normal anchor.  Kept
        deliberately wide: real "normal" surveillance footage is diverse,
        which prevents the decision model from collapsing to a trivial
        one-class "far from normal" rule and forces it to rely on KG
        concept alignment (the property the paper's trend-shift dynamics
        depend on).
    """

    def __init__(self, ontology: ConceptOntology, dim: int = 64, seed: int = 7,
                 cluster_spread: float = 1.0, concept_spread: float = 0.45,
                 normal_spread: float = 1.5):
        self.ontology = ontology
        self.dim = dim
        self.seed = seed
        self.cluster_spread = cluster_spread
        self.concept_spread = concept_spread
        self.normal_spread = normal_spread

        self._cluster_anchor: dict[str, np.ndarray] = {}
        for cluster in sorted(CLASS_CLUSTERS):
            rng = derive_rng(seed, "cluster", cluster)
            self._cluster_anchor[cluster] = _normalize(rng.normal(size=dim))

        rng = derive_rng(seed, "normal-anchor")
        self._normal_anchor = _normalize(rng.normal(size=dim))

        self._class_anchor: dict[str, np.ndarray] = {}
        for class_name in ANOMALY_CLASSES:
            cluster = ConceptOntology.cluster_of(class_name)
            rng = derive_rng(seed, "class", class_name)
            noise = _normalize(rng.normal(size=dim))
            anchor = self._cluster_anchor[cluster] + cluster_spread * noise
            self._class_anchor[class_name] = _normalize(anchor)

        self._concept_vec: dict[str, np.ndarray] = {}
        for concept in ontology.all_concepts():
            rng = derive_rng(seed, "concept", concept.text)
            noise = _normalize(rng.normal(size=dim))
            if concept.is_normal:
                base = self._normal_anchor
            elif concept.classes:
                base = _normalize(
                    np.mean([self._class_anchor[c] for c in concept.classes], axis=0))
            else:
                base = np.zeros(dim)
            # Deeper concepts are finer-grained: slightly more idiosyncratic.
            if concept.is_normal:
                spread = normal_spread
            else:
                spread = concept_spread * (1.0 + 0.15 * max(concept.depth - 1, 0))
            self._concept_vec[concept.text] = _normalize(base + spread * noise)

    # -- storage ---------------------------------------------------------
    _STORED = ("dim", "seed", "cluster_spread", "concept_spread",
               "normal_spread", "_cluster_anchor", "_normal_anchor",
               "_class_anchor", "_concept_vec")

    def to_dict(self) -> dict:
        """Every setting and vector, for :meth:`from_dict` (which draws
        nothing) over the same ontology."""
        return {name: getattr(self, name) for name in self._STORED}

    @classmethod
    def from_dict(cls, ontology: ConceptOntology,
                  payload: dict) -> "ConceptSpace":
        space = cls.__new__(cls)
        space.ontology = ontology
        for name in cls._STORED:
            setattr(space, name, payload[name])
        return space

    # -- access ----------------------------------------------------------
    def concept_vector(self, text: str) -> np.ndarray:
        """Unit vector for a known concept phrase."""
        return self._concept_vec[text].copy()

    def has_concept(self, text: str) -> bool:
        return text in self._concept_vec

    def class_anchor(self, class_name: str) -> np.ndarray:
        return self._class_anchor[class_name].copy()

    def normal_anchor(self) -> np.ndarray:
        return self._normal_anchor.copy()

    def class_similarity(self, a: str, b: str) -> float:
        """Cosine similarity between two class anchors."""
        return float(self._class_anchor[a] @ self._class_anchor[b])

    def matrix(self, texts: list[str]) -> np.ndarray:
        """Stack concept vectors into a (len(texts), dim) matrix."""
        return np.stack([self._concept_vec[t] for t in texts])

    def nearest_concepts(self, vector: np.ndarray, k: int = 5,
                         metric: str = "euclidean") -> list[tuple[str, float]]:
        """Nearest ontology concepts to an arbitrary vector.

        Supports the three metrics the paper tested for interpretable KG
        retrieval: ``euclidean`` (the paper's final choice), ``cosine``
        and ``dot``.
        """
        texts = sorted(self._concept_vec)
        mat = self.matrix(texts)
        if metric == "euclidean":
            scores = -np.linalg.norm(mat - vector[None, :], axis=1)
        elif metric == "cosine":
            norm_v = vector / max(np.linalg.norm(vector), 1e-12)
            scores = mat @ norm_v
        elif metric == "dot":
            scores = mat @ vector
        else:
            raise ValueError(f"unknown metric: {metric!r}")
        order = np.argsort(-scores)[:k]
        return [(texts[i], float(scores[i])) for i in order]
