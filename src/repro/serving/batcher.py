"""Micro-batching for multi-stream serving.

Many concurrent streams each deliver a small arrival batch per tick; one
forward pass per stream wastes most of its time on per-call fixed costs
(node-matrix assembly, tape construction, op dispatch) rather than on the
windows themselves.  :class:`MicroBatcher` coalesces the pending windows
of all streams whose models run through one set of frozen weights into one
forward (``model.anomaly_scores`` for one model, :func:`~repro.gnn.pipeline.
score_parts` when each stream brings its own KG tokens) and slices the
results back out per stream.

Because every op in the scoring path is batch-independent per window
(eval-mode BatchNorm, per-window attention, row-stable GEMMs — see
:data:`repro.nn.tensor.MIN_STABLE_GEMM_ROWS` — and a per-frame gather of
token-side rows), the coalesced scores are **bit-identical** to scoring
each stream's windows separately; micro-batching is purely a throughput
decision, never an accuracy one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from ..errors import ConfigError, WindowShapeError
from ..gnn.pipeline import score_parts

__all__ = ["ScoreRequest", "MicroBatcher"]


@dataclass
class ScoreRequest:
    """One stream's pending windows plus the model that must score them."""

    model: object                # anything with ``anomaly_scores(windows)``
    windows: np.ndarray          # (B, T, frame_dim)

    def __post_init__(self) -> None:
        self.windows = np.asarray(self.windows, dtype=np.float64)
        if self.windows.ndim != 3:
            raise WindowShapeError(
                f"expected (B, T, frame_dim) windows, got {self.windows.shape}")


class MicroBatcher:
    """Coalesces score requests across streams into batched forwards.

    Requests are grouped by weight set (a model's ``weight_set``; a model
    without one is its own).  Each group is scored in one forward,
    optionally chunked to ``max_batch_windows`` to bound peak memory.
    Results come back in request order.
    """

    def __init__(self, max_batch_windows: int | None = None):
        if max_batch_windows is not None and max_batch_windows < 1:
            raise ConfigError("max_batch_windows must be >= 1")
        self.max_batch_windows = max_batch_windows
        self.batches_run = 0     # forwards actually executed
        self.windows_scored = 0  # total windows pushed through

    def score(self, requests: list[ScoreRequest]) -> list[np.ndarray]:
        """Score all requests, coalescing per weight set; returns
        per-request score arrays in input order."""
        groups: dict[int, list[int]] = {}
        for index, request in enumerate(requests):
            weights = getattr(request.model, "weight_set", request.model)
            groups.setdefault(id(weights), []).append(index)

        results: list[np.ndarray | None] = [None] * len(requests)
        for indices in groups.values():
            shapes = {requests[i].windows.shape[1:] for i in indices}
            if len(shapes) > 1:
                raise WindowShapeError(
                    f"cannot coalesce windows of mixed shapes {sorted(shapes)} "
                    "into one batch")
            scores = np.concatenate([
                self._forward(chunk) for chunk in self._chunks(
                    [(requests[i].model, requests[i].windows)
                     for i in indices])])
            offset = 0
            for i in indices:
                count = requests[i].windows.shape[0]
                results[i] = scores[offset:offset + count]
                offset += count
            self.windows_scored += offset
        return results  # type: ignore[return-value]

    def _chunks(self, parts: list[tuple]) -> list[list[tuple]]:
        """``parts`` cut into runs of at most ``max_batch_windows``."""
        cap = self.max_batch_windows
        if cap is None or sum(len(windows) for _, windows in parts) <= cap:
            return [parts]
        singles = [(model, windows[i:i + 1]) for model, windows in parts
                   for i in range(len(windows))]
        return [singles[start:start + cap]
                for start in range(0, len(singles), cap)]

    def _forward(self, chunk: list[tuple]) -> np.ndarray:
        """One forward over ``[(model, windows), ...]`` of one weight set."""
        self.batches_run += 1
        model = chunk[0][0]
        if any(other is not model for other, _ in chunk):
            return score_parts(chunk)
        # Looked up on the instance, so an instrumented method is honoured.
        return model.anomaly_scores(
            np.concatenate([windows for _, windows in chunk]))
