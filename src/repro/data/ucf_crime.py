"""SyntheticUCFCrime: the UCF-Crime-shaped evaluation dataset.

UCF-Crime (Sultani et al., 2018) has 1 900 untrimmed surveillance videos
over 13 anomaly classes: a training split of 800 normal + 810 anomalous
videos and a testing split of 150 normal + 140 anomalous videos.  This
module reproduces that schema synthetically with a ``scale`` knob (the
experiments use a fraction of the full 1 900 videos to stay laptop-fast;
``scale=1.0`` yields the paper-exact counts).

Videos are materialized lazily, so constructing the dataset is cheap and
experiments touch only the classes they use; ``video`` caches what it
returns, ``mission_windows`` keeps no video once its windows are cut.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..concepts.ontology import ANOMALY_CLASSES
from ..utils.rng import derive_rng
from .synthetic import FrameGenerator, Video, make_windows

__all__ = ["UCFCrimeSplit", "SyntheticUCFCrime"]

# Paper-exact split sizes.
_TRAIN_NORMAL, _TRAIN_ANOMALOUS = 800, 810
_TEST_NORMAL, _TEST_ANOMALOUS = 150, 140


@dataclass(frozen=True)
class _VideoKey:
    split: str           # "train" | "test"
    kind: str            # "normal" | anomaly class name
    index: int


@dataclass
class UCFCrimeSplit:
    """Video keys belonging to one split."""

    normal: list[_VideoKey]
    anomalous: list[_VideoKey]

    @property
    def num_videos(self) -> int:
        return len(self.normal) + len(self.anomalous)


class SyntheticUCFCrime:
    """Lazily-materialized synthetic UCF-Crime.

    Parameters
    ----------
    generator:
        Class-conditioned frame generator.
    scale:
        Fraction of the full 1 900-video corpus to expose (>= one video per
        anomaly class is always kept).
    frames_per_video:
        Length of each untrimmed video.
    seed:
        Determinism root — every video is a pure function of (seed, key).
    """

    def __init__(self, generator: FrameGenerator, scale: float = 1.0,
                 frames_per_video: int = 48, seed: int = 7):
        if not 0.0 < scale <= 1.0:
            raise ValueError("scale must be in (0, 1]")
        self.generator = generator
        self.scale = scale
        self.frames_per_video = frames_per_video
        self.seed = seed
        self._cache: dict[_VideoKey, Video] = {}

        def scaled(count: int, minimum: int = 1) -> int:
            return max(int(round(count * scale)), minimum)

        def anomaly_keys(split: str, total: int) -> list[_VideoKey]:
            per_class = max(total // len(ANOMALY_CLASSES), 1)
            keys = []
            for name in ANOMALY_CLASSES:
                keys.extend(_VideoKey(split, name, i) for i in range(per_class))
            return keys

        self.train = UCFCrimeSplit(
            normal=[_VideoKey("train", "normal", i)
                    for i in range(scaled(_TRAIN_NORMAL))],
            anomalous=anomaly_keys("train", scaled(_TRAIN_ANOMALOUS,
                                                   len(ANOMALY_CLASSES))))
        self.test = UCFCrimeSplit(
            normal=[_VideoKey("test", "normal", i)
                    for i in range(scaled(_TEST_NORMAL))],
            anomalous=anomaly_keys("test", scaled(_TEST_ANOMALOUS,
                                                  len(ANOMALY_CLASSES))))

    # ------------------------------------------------------------------
    # Video materialization
    # ------------------------------------------------------------------
    def video(self, key: _VideoKey) -> Video:
        if key not in self._cache:
            self._cache[key] = self._synthesise(key)
        return self._cache[key]

    def _synthesise(self, key: _VideoKey) -> Video:
        rng = derive_rng(self.seed, "video", key.split, key.kind, key.index)
        if key.kind == "normal":
            return self.generator.normal_video(self.frames_per_video, rng)
        return self.generator.anomalous_video(key.kind, self.frames_per_video, rng)

    def clear_cache(self) -> None:
        self._cache.clear()

    # ------------------------------------------------------------------
    # Task views
    # ------------------------------------------------------------------
    def _split(self, name: str) -> UCFCrimeSplit:
        if name == "train":
            return self.train
        if name == "test":
            return self.test
        raise ValueError("split must be 'train' or 'test'")

    def _class_keys(self, split: str, anomaly_class: str,
                    limit: int | None) -> list[_VideoKey]:
        if anomaly_class not in ANOMALY_CLASSES:
            raise KeyError(f"unknown anomaly class: {anomaly_class!r}")
        return [k for k in self._split(split).anomalous if k.kind == anomaly_class][:limit]

    def class_videos(self, split: str, anomaly_class: str,
                     limit: int | None = None) -> list[Video]:
        """Anomalous videos of one class in a split."""
        return [self.video(k) for k in self._class_keys(split, anomaly_class, limit)]

    def normal_videos(self, split: str, limit: int | None = None) -> list[Video]:
        return [self.video(k) for k in self._split(split).normal[:limit]]

    def mission_videos(self, split: str, anomaly_class: str,
                       normal_videos: int | None = None,
                       anomaly_videos: int | None = None) -> Iterator[Video]:
        """A mission task's videos, normal ones first, each synthesised when reached."""
        keys = self._split(split).normal[:normal_videos] + self._class_keys(
            split, anomaly_class, anomaly_videos)
        return (self._synthesise(key) for key in keys)

    def mission_windows(self, split: str, anomaly_class: str, window: int,
                        stride: int = 4, normal_videos: int | None = None,
                        anomaly_videos: int | None = None,
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Binary windows for a single-mission task.

        Returns ``(windows, labels)`` where label 1 marks windows whose last
        frame lies inside an anomaly segment of ``anomaly_class``; label 0
        covers both normal-video windows and normal frames of anomalous
        videos (untrimmed, as in UCF-Crime).
        """
        videos = self.mission_videos(split, anomaly_class, normal_videos,
                                     anomaly_videos)
        windows, labels = zip(*(make_windows(v, window, stride) for v in videos))
        return np.concatenate(windows), np.concatenate(labels)
