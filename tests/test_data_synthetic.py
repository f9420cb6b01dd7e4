"""Tests for synthetic frame/video generation."""

import numpy as np
import pytest

from repro.data import make_windows


class TestFrameGenerator:
    def test_anomaly_frame_shape(self, frame_generator, embedding_model, rng):
        frame = frame_generator.anomaly_frame("Robbery", rng)
        assert frame.shape == (embedding_model.frame_dim,)

    def test_normal_frame_shape(self, frame_generator, embedding_model, rng):
        frame = frame_generator.normal_frame(rng)
        assert frame.shape == (embedding_model.frame_dim,)

    def test_unknown_class_raises(self, frame_generator, rng):
        with pytest.raises(KeyError):
            frame_generator.anomaly_frame("NotAClass", rng)

    def test_class_frames_align_with_class_text(self, frame_generator,
                                                 embedding_model, rng):
        """Rendered Robbery frames must embed closer to robbery concepts
        than to normal activities — the foundation of the whole evaluation."""
        same, other = [], []
        for _ in range(20):
            frame = frame_generator.anomaly_frame("Robbery", rng)
            same.append(embedding_model.alignment(frame, "firearm"))
            other.append(embedding_model.alignment(frame, "walking"))
        assert np.mean(same) > np.mean(other) + 0.04

    def test_weak_pair_frames_closer_than_strong(self, frame_generator,
                                                 embedding_model, rng):
        """Stealing frames look more like Robbery than like Explosion."""
        weak, strong = [], []
        robbery_anchor = embedding_model.concept_space.class_anchor("Robbery")
        explosion_anchor = embedding_model.concept_space.class_anchor("Explosion")
        for _ in range(20):
            encoded = embedding_model.encode_image(
                frame_generator.anomaly_frame("Stealing", rng))
            encoded /= np.linalg.norm(encoded)
            weak.append(encoded @ robbery_anchor)
            strong.append(encoded @ explosion_anchor)
        assert np.mean(weak) > np.mean(strong) + 0.04

    def test_frames_are_stochastic(self, frame_generator, rng):
        a = frame_generator.anomaly_frame("Arson", rng)
        b = frame_generator.anomaly_frame("Arson", rng)
        assert not np.allclose(a, b)


class TestVideos:
    def test_normal_video_all_zero_labels(self, frame_generator, rng):
        video = frame_generator.normal_video(20, rng)
        assert video.num_frames == 20
        assert not video.is_anomalous
        assert video.labels.sum() == 0

    def test_normal_video_matches_the_per_frame_loop(self, frame_generator):
        """The batched path draws and renders exactly what a loop of
        ``normal_frame`` calls on the same generator state does."""
        video = frame_generator.normal_video(80, np.random.default_rng(11))
        rng = np.random.default_rng(11)
        loop = np.stack([frame_generator.normal_frame(rng) for _ in range(80)])
        assert video.frames.dtype == loop.dtype
        assert video.frames.tobytes() == loop.tobytes()

    def test_anomalous_video_has_contiguous_segment(self, frame_generator, rng):
        video = frame_generator.anomalous_video("Explosion", 30, rng)
        assert video.is_anomalous
        start, stop = video.segment
        assert 0 <= start < stop <= 30
        np.testing.assert_array_equal(video.labels[start:stop], 1)
        assert video.labels.sum() == stop - start  # nothing outside segment

    def test_segment_length_bounds(self, frame_generator, rng):
        for _ in range(10):
            video = frame_generator.anomalous_video(
                "Abuse", 40, rng, min_segment=0.2, max_segment=0.6)
            seg_len = video.segment[1] - video.segment[0]
            assert 0.15 * 40 <= seg_len <= 0.65 * 40


class TestMakeWindows:
    def test_window_count_and_shape(self, frame_generator, embedding_model, rng):
        video = frame_generator.normal_video(20, rng)
        windows, labels = make_windows(video, window=8, stride=1)
        assert windows.shape == (13, 8, embedding_model.frame_dim)
        assert labels.shape == (13,)

    def test_stride(self, frame_generator, rng):
        video = frame_generator.normal_video(20, rng)
        windows, _ = make_windows(video, window=8, stride=4)
        assert windows.shape[0] == 4

    def test_labels_follow_last_frame(self, frame_generator, rng):
        video = frame_generator.anomalous_video("Vandalism", 30, rng)
        windows, labels = make_windows(video, window=4, stride=1)
        start, stop = video.segment
        for i, label in enumerate(labels):
            last_frame_index = i + 3
            assert label == video.labels[last_frame_index]

    def test_too_short_video_raises(self, frame_generator, rng):
        video = frame_generator.normal_video(4, rng)
        with pytest.raises(ValueError):
            make_windows(video, window=8)

    def test_window_must_be_positive(self, frame_generator, rng):
        video = frame_generator.normal_video(4, rng)
        with pytest.raises(ValueError):
            make_windows(video, window=0)
