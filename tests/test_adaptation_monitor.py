"""Tests for the anomaly-score monitor and the K = |delta_m| * N rule."""

import numpy as np
import pytest

from repro.adaptation import AnomalyScoreMonitor, MonitorConfig


def make_monitor(window=10, lag=5, **kwargs):
    return AnomalyScoreMonitor(MonitorConfig(window=window, lag=lag, **kwargs))


class TestObservation:
    def test_warmup(self):
        monitor = make_monitor()
        assert not monitor.warmed_up
        monitor.observe(np.zeros(15))
        assert monitor.warmed_up

    def test_current_window_is_most_recent(self):
        monitor = make_monitor(window=4, lag=2)
        monitor.observe([1, 2, 3, 4, 5, 6])
        np.testing.assert_allclose(monitor.current_window(), [3, 4, 5, 6])

    def test_reference_window_lags(self):
        monitor = make_monitor(window=4, lag=2)
        monitor.observe([1, 2, 3, 4, 5, 6])
        np.testing.assert_allclose(monitor.reference_window(), [1, 2, 3, 4])

    def test_reference_empty_before_lag(self):
        monitor = make_monitor(window=4, lag=3)
        monitor.observe([1, 2])
        assert monitor.reference_window().size == 0

    def test_scalar_observation(self):
        monitor = make_monitor()
        monitor.observe(0.5)
        assert monitor.current_window().size == 1

    def test_history_tracks_means(self):
        monitor = make_monitor(window=2, lag=1)
        monitor.observe([1.0, 3.0])
        assert monitor.history[-1] == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            AnomalyScoreMonitor(MonitorConfig(window=1))
        with pytest.raises(ValueError):
            AnomalyScoreMonitor(MonitorConfig(lag=0))

    def test_select_without_observations_raises(self):
        with pytest.raises(RuntimeError):
            make_monitor().select()


class TestKRule:
    def test_paper_formula(self):
        """K = round(|delta_m| * N) when the mean drops past the threshold."""
        monitor = make_monitor(window=10, lag=10, trigger_threshold=0.01, min_k=0)
        monitor.observe(np.full(10, 0.8))   # reference era
        monitor.observe(np.full(10, 0.5))   # current era: mean dropped 0.3
        selection = monitor.select()
        assert selection.delta_m == pytest.approx(-0.3)
        assert selection.k == 3  # |−0.3| * 10
        assert selection.triggered

    def test_no_trigger_on_stable_mean(self):
        monitor = make_monitor(window=10, lag=10, min_k=0)
        monitor.observe(np.full(20, 0.5))
        selection = monitor.select()
        assert selection.delta_m == pytest.approx(0.0)
        assert selection.k == 0
        assert not selection.triggered

    def test_no_trigger_on_rising_mean(self):
        monitor = make_monitor(window=10, lag=10, min_k=0)
        monitor.observe(np.full(10, 0.2))
        monitor.observe(np.full(10, 0.7))
        assert monitor.select().k == 0

    def test_threshold_suppresses_noise(self):
        monitor = make_monitor(window=10, lag=10, trigger_threshold=0.05, min_k=0)
        monitor.observe(np.full(10, 0.50))
        monitor.observe(np.full(10, 0.48))  # drop of 0.02 < threshold
        assert monitor.select().k == 0

    def test_min_k_maintenance_trickle(self):
        monitor = make_monitor(window=10, lag=10, min_k=2)
        monitor.observe(np.full(20, 0.5))
        assert monitor.select().k == 2

    def test_max_k_fraction_caps(self):
        monitor = make_monitor(window=10, lag=10, trigger_threshold=0.01,
                               max_k_fraction=0.3, min_k=0)
        monitor.observe(np.full(10, 0.9))
        monitor.observe(np.full(10, 0.1))  # drop 0.8 -> k would be 8
        assert monitor.select().k == 3

    def test_top_k_indices_are_highest_scores(self):
        monitor = make_monitor(window=5, lag=5, trigger_threshold=0.01, min_k=0)
        monitor.observe(np.full(5, 0.9))
        recent = np.array([0.1, 0.8, 0.2, 0.9, 0.3])
        monitor.observe(recent)
        selection = monitor.select()
        assert selection.k >= 2
        top = recent[selection.anomalous_indices]
        rest = recent[selection.normal_indices]
        assert top.min() >= rest.max()

    def test_indices_partition_window(self):
        monitor = make_monitor(window=6, lag=6, trigger_threshold=0.01, min_k=0)
        monitor.observe(np.full(6, 0.9))
        monitor.observe(np.array([0.5, 0.1, 0.6, 0.2, 0.7, 0.3]))
        selection = monitor.select()
        combined = np.concatenate([selection.anomalous_indices,
                                   selection.normal_indices])
        assert sorted(combined.tolist()) == list(range(6))


class TestOneSnapshotPerDecision:
    """The windows are slices of one snapshot of the score buffer; the
    decisions are those of the per-call list copies they replaced."""

    @staticmethod
    def reference(scores: list[float], cfg: MonitorConfig):
        """Windows and warm-up as the list-copying monitor computed them."""
        items = scores[-(cfg.window + cfg.lag):]
        current = np.asarray(items[-cfg.window:], dtype=np.float64)
        older = items[:-cfg.lag] if len(items) > cfg.lag else []
        reference = np.asarray(older[-cfg.window:], dtype=np.float64)
        warmed = (current.size >= cfg.window
                  and reference.size >= max(cfg.window // 2, 1))
        return current, reference, warmed

    @pytest.mark.parametrize("window, lag", [(8, 3), (8, 8), (5, 12), (2, 1)])
    def test_random_stream(self, window, lag):
        rng = np.random.default_rng(window * 100 + lag)
        monitor = make_monitor(window=window, lag=lag, trigger_threshold=0.01)
        cfg = monitor.config
        fed: list[float] = []
        for _ in range(60):
            batch = rng.uniform(size=int(rng.integers(1, 5)))
            # A falling mean now and then, so the K-rule triggers.
            batch *= 0.2 if rng.random() < 0.3 else 1.0
            monitor.observe(batch)
            fed.extend(batch.tolist())
            current, reference, warmed = self.reference(fed, cfg)
            assert monitor.warmed_up == warmed
            assert np.array_equal(monitor.current_window(), current)
            assert np.array_equal(monitor.reference_window(), reference)
            assert monitor.history[-1] == float(current.mean())
            selection = monitor.select()
            assert selection.window_mean == float(current.mean())
            assert selection.reference_mean == (
                float(reference.mean()) if reference.size
                else selection.window_mean)
            if selection.k:
                order = np.argsort(-current, kind="mergesort")
                assert np.array_equal(selection.anomalous_indices,
                                      np.sort(order[:selection.k]))

    def test_history_keeps_the_most_recent_means(self, monkeypatch):
        from repro.adaptation import monitor as monitor_module
        monkeypatch.setattr(monitor_module, "LOG_TRAIL_LENGTH", 5)
        monitor = make_monitor(window=2, lag=1)
        for value in range(12):
            monitor.observe(float(value))
        assert list(monitor.history) == [6.5, 7.5, 8.5, 9.5, 10.5]
