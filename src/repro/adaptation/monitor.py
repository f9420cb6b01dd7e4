"""Anomaly-score distribution monitoring and top-K pseudo-labeling.

Paper Section III-D: after deployment, the system "continuously monitors
the anomaly score distribution over time", and selects the top ``K`` scores
within the most recent ``N`` data points as pseudo-anomalies, where

    K = |delta_m| * N,    delta_m = m_t - m_t' < 0,

``m_t`` being the current mean of the score distribution and ``m_t'`` the
mean at an earlier reference time ``t'``.  Intuition: when the anomaly
trend shifts, the deployed model under-scores the new anomaly, the window
mean *drops*, and the magnitude of the drop scales how many recent points
get pseudo-labeled for adaptation.  When the mean is stable or rising
(delta_m >= 0) no pseudo-labels are produced.

``t'`` and ``N`` are hyperparameters to be tuned on a validation set
(paper); here ``t'`` is expressed as a lag in scores: ``m_t'`` is the mean
of the ``N`` scores ending ``lag`` observations before the newest one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = ["MonitorConfig", "PseudoLabels", "AnomalyScoreMonitor"]


@dataclass
class MonitorConfig:
    """Monitor hyperparameters.

    ``window`` is the paper's N; ``lag`` positions the reference time t'
    (in number of observations).  ``min_k``/``max_k_fraction`` bound the
    selection to keep adaptation batches sane on tiny windows.
    ``trigger_threshold`` ignores mean drops smaller than ordinary sampling
    noise so a stable deployment does not self-perturb.
    """

    window: int = 96
    lag: int = 48
    min_k: int = 0
    max_k_fraction: float = 0.5
    trigger_threshold: float = 0.05


@dataclass
class PseudoLabels:
    """Result of one monitoring decision.

    ``anomalous_indices`` / ``normal_indices`` index into the *most recent
    N observations* (0 = oldest of the window).  ``delta_m`` and ``k``
    record the rule's internals for logging and tests.
    """

    anomalous_indices: np.ndarray
    normal_indices: np.ndarray
    delta_m: float
    k: int
    window_mean: float
    reference_mean: float

    @property
    def triggered(self) -> bool:
        return self.k > 0


class AnomalyScoreMonitor:
    """Sliding-window score tracker implementing the K = |delta_m| * N rule."""

    def __init__(self, config: MonitorConfig | None = None):
        self.config = config or MonitorConfig()
        if self.config.window < 2:
            raise ValueError("window must be >= 2")
        if self.config.lag < 1:
            raise ValueError("lag must be >= 1")
        capacity = self.config.window + self.config.lag
        self._scores: deque[float] = deque(maxlen=capacity)

    # ------------------------------------------------------------------
    def observe(self, scores: np.ndarray | list[float] | float) -> None:
        """Append new anomaly scores (arrival order)."""
        scores = np.atleast_1d(np.asarray(scores, dtype=np.float64))
        self._scores.extend(scores.tolist())

    def _snapshot(self) -> np.ndarray:
        """Every retained score, oldest first, as one array."""
        return np.fromiter(self._scores, dtype=np.float64,
                           count=len(self._scores))

    def _reference(self, snapshot: np.ndarray) -> np.ndarray:
        cfg = self.config
        return snapshot[:-cfg.lag][-cfg.window:]

    def current_window(self) -> np.ndarray:
        """The most recent N scores (fewer during warm-up)."""
        return self._snapshot()[-self.config.window:]

    def reference_window(self) -> np.ndarray:
        """The N scores ending ``lag`` observations ago (fewer during warm-up)."""
        return self._reference(self._snapshot())

    @property
    def warmed_up(self) -> bool:
        """A full current window and at least half a reference window."""
        cfg = self.config
        held = len(self._scores)
        return (held >= cfg.window
                and held - cfg.lag >= max(cfg.window // 2, 1))

    # ------------------------------------------------------------------
    def select(self) -> PseudoLabels:
        """Apply the paper's selection rule to the current window."""
        cfg = self.config
        snapshot = self._snapshot()
        window = snapshot[-cfg.window:]
        reference = self._reference(snapshot)
        n = window.size
        if n == 0:
            raise RuntimeError("monitor has no observations")
        window_mean = float(window.mean())
        reference_mean = float(reference.mean()) if reference.size else window_mean
        delta_m = window_mean - reference_mean

        if delta_m < 0 and abs(delta_m) >= cfg.trigger_threshold:
            # Shift detected: the paper's rule sizes the pseudo-label set by
            # the magnitude of the mean drop.
            k = max(int(round(abs(delta_m) * n)), cfg.min_k)
        else:
            # Stable regime: continue the maintenance trickle (the paper
            # runs one KG-modification loop per day regardless of trend).
            k = cfg.min_k
        k = min(k, int(n * cfg.max_k_fraction))

        if k > 0:
            order = np.argsort(-window, kind="mergesort")
            anomalous = np.sort(order[:k])
            normal = np.sort(order[k:])
        else:
            anomalous = np.asarray([], dtype=np.int64)
            normal = np.arange(n)
        return PseudoLabels(anomalous_indices=anomalous, normal_indices=normal,
                            delta_m=delta_m, k=k, window_mean=window_mean,
                            reference_mean=reference_mean)
