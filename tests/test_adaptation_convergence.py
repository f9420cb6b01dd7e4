"""Tests for per-node convergence tracking (paper Fig. 4 distance check)."""

import pytest

from repro.adaptation import ConvergenceConfig, NodeConvergenceTracker


def cfg(**kwargs):
    defaults = dict(patience=2, tolerance=0.0, min_updates=1,
                    max_flags_per_step=10, min_distance=0.0)
    defaults.update(kwargs)
    return ConvergenceConfig(**defaults)


KEY = (0, 1)
OTHER = (0, 2)


class TestDivergenceDetection:
    def test_decreasing_distance_never_flags(self):
        tracker = NodeConvergenceTracker(cfg())
        for d in [1.0, 0.9, 0.8, 0.7]:
            assert tracker.observe({KEY: d}) == []
        assert tracker.is_converging(KEY)

    def test_sustained_increase_flags(self):
        tracker = NodeConvergenceTracker(cfg(patience=2))
        assert tracker.observe({KEY: 0.1}) == []
        assert tracker.observe({KEY: 0.2}) == []   # streak 1
        assert tracker.observe({KEY: 0.3}) == [KEY]  # streak 2 = patience

    def test_single_blip_resets_streak(self):
        tracker = NodeConvergenceTracker(cfg(patience=2))
        tracker.observe({KEY: 0.1})
        tracker.observe({KEY: 0.2})   # streak 1
        tracker.observe({KEY: 0.15})  # reset
        assert tracker.observe({KEY: 0.2}) == []  # streak 1 again

    def test_tolerance_ignores_small_increases(self):
        tracker = NodeConvergenceTracker(cfg(patience=1, tolerance=0.5))
        tracker.observe({KEY: 0.10})
        assert tracker.observe({KEY: 0.12}) == []  # +20% < 50% tolerance
        assert tracker.observe({KEY: 0.30}) == [KEY]

    def test_min_distance_floor(self):
        """Microscopic distances are numerical noise, never divergence."""
        tracker = NodeConvergenceTracker(cfg(patience=1, min_distance=0.05))
        tracker.observe({KEY: 0.001})
        assert tracker.observe({KEY: 0.002}) == []
        assert tracker.observe({KEY: 0.004}) == []

    def test_min_updates_grace_period(self):
        tracker = NodeConvergenceTracker(cfg(patience=1, min_updates=5))
        for d in [0.1, 0.2, 0.3, 0.4]:
            assert tracker.observe({KEY: d}) == []
        assert tracker.observe({KEY: 0.5}) == [KEY]  # 5th update

    def test_max_flags_per_step_rate_limit(self):
        tracker = NodeConvergenceTracker(cfg(patience=1, max_flags_per_step=1))
        tracker.observe({KEY: 0.1, OTHER: 0.1})
        flagged = tracker.observe({KEY: 0.2, OTHER: 0.3})
        assert len(flagged) == 1


class TestStateManagement:
    def test_forget_resets_node(self):
        tracker = NodeConvergenceTracker(cfg(patience=1))
        tracker.observe({KEY: 0.1})
        tracker.forget(KEY)
        # After forgetting, the next observation has no previous distance.
        assert tracker.observe({KEY: 0.5}) == []

    def test_disappeared_nodes_cleaned_up(self):
        tracker = NodeConvergenceTracker(cfg())
        tracker.observe({KEY: 0.1, OTHER: 0.1})
        tracker.observe({KEY: 0.2})  # OTHER pruned between steps
        assert OTHER not in tracker._last_distance

    def test_distance_history_recorded(self):
        tracker = NodeConvergenceTracker(cfg())
        tracker.observe({KEY: 0.1})
        tracker.observe({KEY: 0.2})
        assert list(tracker.distance_history[KEY]) == [0.1, 0.2]

    def test_distance_trails_are_bounded_and_die_with_their_node(
            self, monkeypatch):
        from repro.adaptation import convergence as convergence_module
        monkeypatch.setattr(convergence_module, "LOG_TRAIL_LENGTH", 3)
        tracker = NodeConvergenceTracker(cfg())
        for step in range(7):
            tracker.observe({KEY: 0.1 * step, OTHER: 0.5})
        assert list(tracker.distance_history[KEY]) == pytest.approx(
            [0.4, 0.5, 0.6])
        tracker.forget(KEY)
        assert KEY not in tracker.distance_history
        tracker.observe({KEY: 0.3})  # OTHER was pruned between steps
        assert set(tracker.distance_history) == {KEY}
