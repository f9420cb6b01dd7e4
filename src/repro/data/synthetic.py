"""Synthetic surveillance frame and video generation.

Frames are generated *in the concept space*: a frame showing anomaly class
``c`` renders a noisy mixture of ``c``'s concept vectors (weighted toward
the class anchor); a normal frame renders a mixture of normal-activity
concepts.  The joint embedding model's image encoder inverts the rendering,
so encoded frames land near the text embeddings of the concepts they
depict — the alignment property the real pipeline gets from ImageBind.

Videos follow UCF-Crime's structure: *untrimmed* sequences, mostly normal,
with one contiguous anomaly segment in anomalous videos, and per-frame
ground-truth labels for evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..concepts.ontology import ANOMALY_CLASSES
from ..embedding.joint_space import JointEmbeddingModel

__all__ = ["FrameGenerator", "Video", "make_windows"]


def _normalize(v: np.ndarray) -> np.ndarray:
    return v / max(np.linalg.norm(v), 1e-12)


@dataclass
class Video:
    """An untrimmed synthetic video.

    Attributes
    ----------
    frames:
        (num_frames, frame_dim) raw frame features.
    labels:
        (num_frames,) ints — 0 for normal frames, 1 for anomalous frames.
    anomaly_class:
        The anomaly depicted in the anomalous segment, or None.
    segment:
        (start, stop) frame range of the anomaly, or None.
    """

    frames: np.ndarray
    labels: np.ndarray
    anomaly_class: str | None = None
    segment: tuple[int, int] | None = None

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def is_anomalous(self) -> bool:
        return self.anomaly_class is not None


class FrameGenerator:
    """Renders class-conditioned synthetic frames through the joint model."""

    def __init__(self, embedding_model: JointEmbeddingModel, seed: int = 7,
                 anchor_weight: float = 1.0, normal_anchor_weight: float = 0.15,
                 concept_weight: float = 0.8,
                 concepts_per_frame: int = 3, semantic_noise: float = 0.35,
                 sensor_noise: float = 0.35):
        self.model = embedding_model
        self.seed = seed
        self.anchor_weight = anchor_weight
        self.normal_anchor_weight = normal_anchor_weight
        self.concept_weight = concept_weight
        self.concepts_per_frame = concepts_per_frame
        self.semantic_noise = semantic_noise
        self.sensor_noise = sensor_noise
        ontology = embedding_model.concept_space.ontology
        self._class_concepts = {
            name: [c.text for c in ontology.concepts_for_class(name)]
            for name in ANOMALY_CLASSES
        }
        self._normal_concepts = [c.text for c in ontology.normal_concepts()]
        self._pool_matrices: dict[tuple[str, ...], np.ndarray] = {}

    def _pool_matrix(self, pool: list[str]) -> np.ndarray:
        """Concept vectors for ``pool`` stacked once (batched mixture path)."""
        key = tuple(pool)
        if key not in self._pool_matrices:
            space = self.model.concept_space
            self._pool_matrices[key] = np.stack(
                [space.concept_vector(text) for text in pool])
        return self._pool_matrices[key]

    # ------------------------------------------------------------------
    def _mixture(self, anchor: np.ndarray, pool: list[str],
                 rng: np.random.Generator,
                 anchor_weight: float | None = None) -> np.ndarray:
        space = self.model.concept_space
        if anchor_weight is None:
            anchor_weight = self.anchor_weight
        semantic = anchor_weight * anchor
        k = min(self.concepts_per_frame, len(pool))
        for index in rng.choice(len(pool), size=k, replace=False):
            semantic = semantic + (self.concept_weight / k) * space.concept_vector(
                pool[index])
        semantic = semantic + self.semantic_noise * rng.normal(size=space.dim)
        return _normalize(semantic)

    def anomaly_frame(self, anomaly_class: str, rng: np.random.Generator) -> np.ndarray:
        """One raw frame feature depicting ``anomaly_class``."""
        if anomaly_class not in self._class_concepts:
            raise KeyError(f"unknown anomaly class: {anomaly_class!r}")
        semantic = self._mixture(
            self.model.concept_space.class_anchor(anomaly_class),
            self._class_concepts[anomaly_class], rng)
        return self.model.render_semantic(semantic, rng=rng, noise=self.sensor_noise)

    def normal_frame(self, rng: np.random.Generator) -> np.ndarray:
        """One raw frame feature of normal surveillance activity."""
        semantic = self._mixture(self.model.concept_space.normal_anchor(),
                                 self._normal_concepts, rng,
                                 anchor_weight=self.normal_anchor_weight)
        return self.model.render_semantic(semantic, rng=rng, noise=self.sensor_noise)

    # ------------------------------------------------------------------
    # Batched generation (bit-identical to the per-frame methods)
    # ------------------------------------------------------------------
    def _frames_batch(self, count: int, anchor: np.ndarray, pool: list[str],
                      rng: np.random.Generator,
                      anchor_weight: float) -> np.ndarray:
        """``count`` frames in bulk, bit-identical to ``count`` sequential
        single-frame calls on the same generator state.

        Bit-exactness constrains the implementation: the RNG draws stay in
        the original per-frame interleaved order (concept choice, semantic
        noise, sensor noise — ``choice`` consumes a data-dependent amount
        of the bit stream, so draws cannot be hoisted across frames), and
        row norms / renders stay per-row (batched reductions and GEMMs
        accumulate in a different order).  Everything else — the mixture
        accumulation, noise application, normalization — is elementwise
        and vectorizes exactly.
        """
        space = self.model.concept_space
        dim = space.dim
        frame_dim = self.model.frame_dim
        if count == 0:
            return np.empty((0, frame_dim))
        k = min(self.concepts_per_frame, len(pool))
        choices = np.empty((count, k), dtype=np.intp)
        semantic_noise = np.empty((count, dim))
        sensor_noise = (np.empty((count, frame_dim))
                        if self.sensor_noise > 0 else None)
        for index in range(count):
            choices[index] = rng.choice(len(pool), size=k, replace=False)
            semantic_noise[index] = rng.normal(size=dim)
            if sensor_noise is not None:
                sensor_noise[index] = rng.normal(0.0, self.sensor_noise,
                                                 size=frame_dim)
        pool_matrix = self._pool_matrix(pool)
        semantics = np.tile(anchor_weight * anchor, (count, 1))
        for pick in range(k):
            semantics = semantics + (self.concept_weight / k) * pool_matrix[
                choices[:, pick]]
        semantics = semantics + self.semantic_noise * semantic_noise
        norms = np.empty(count)
        for index in range(count):
            norms[index] = max(np.linalg.norm(semantics[index]), 1e-12)
        semantics = semantics / norms[:, None]
        frames = self.model.render_semantics(semantics)
        if sensor_noise is not None:
            frames = frames + sensor_noise
        return frames

    def anomaly_frames(self, anomaly_class: str, count: int,
                       rng: np.random.Generator) -> np.ndarray:
        """``count`` raw frames of ``anomaly_class``, bit-identical to
        ``count`` sequential :meth:`anomaly_frame` calls."""
        if anomaly_class not in self._class_concepts:
            raise KeyError(f"unknown anomaly class: {anomaly_class!r}")
        return self._frames_batch(
            count, self.model.concept_space.class_anchor(anomaly_class),
            self._class_concepts[anomaly_class], rng, self.anchor_weight)

    def normal_frames(self, count: int,
                      rng: np.random.Generator) -> np.ndarray:
        """``count`` raw normal frames, bit-identical to ``count``
        sequential :meth:`normal_frame` calls."""
        return self._frames_batch(
            count, self.model.concept_space.normal_anchor(),
            self._normal_concepts, rng, self.normal_anchor_weight)

    # ------------------------------------------------------------------
    def normal_video(self, num_frames: int, rng: np.random.Generator) -> Video:
        frames = self.normal_frames(num_frames, rng)
        return Video(frames=frames, labels=np.zeros(num_frames, dtype=np.int64))

    def anomalous_video(self, anomaly_class: str, num_frames: int,
                        rng: np.random.Generator,
                        min_segment: float = 0.2, max_segment: float = 0.6) -> Video:
        """Untrimmed video: normal lead-in, anomaly segment, normal tail."""
        seg_len = int(num_frames * rng.uniform(min_segment, max_segment))
        seg_len = max(seg_len, 1)
        start = int(rng.integers(0, num_frames - seg_len + 1))
        stop = start + seg_len
        frames, labels = [], np.zeros(num_frames, dtype=np.int64)
        for t in range(num_frames):
            if start <= t < stop:
                frames.append(self.anomaly_frame(anomaly_class, rng))
                labels[t] = 1
            else:
                frames.append(self.normal_frame(rng))
        return Video(frames=np.stack(frames), labels=labels,
                     anomaly_class=anomaly_class, segment=(start, stop))


def make_windows(video: Video, window: int,
                 stride: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Slice a video into (num_windows, T, frame_dim) with last-frame labels.

    The temporal model scores the *last* frame of each window (the paper's
    f'_t corresponds to frame t given frames t-T+1..t), so each window takes
    the label of its final frame.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if video.num_frames < window:
        raise ValueError(f"video has {video.num_frames} frames < window {window}")
    starts = range(0, video.num_frames - window + 1, stride)
    windows = np.stack([video.frames[s:s + window] for s in starts])
    labels = np.array([video.labels[s + window - 1] for s in starts], dtype=np.int64)
    return windows, labels
