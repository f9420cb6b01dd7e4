"""The continuous KG adaptive learning loop (paper Fig. 2C + Fig. 4).

``ContinuousAdaptationController`` is the edge-side runtime.  Per incoming
batch of frame windows it:

1. scores the windows with the frozen decision model and feeds the scores
   to the :class:`AnomalyScoreMonitor`;
2. when the monitor triggers (window mean dropped, K = |delta_m| * N > 0),
   runs one token-embedding-only gradient step on the recent window with
   the monitor's pseudo-labels;
3. feeds the per-node update distances to the convergence tracker; every
   node flagged as diverging is pruned and replaced with a random node
   (structural adaptation), after which the optimizer re-binds to the new
   token tensors.

Everything the loop does is recorded in :class:`AdaptationStepLog` entries
so experiments (Fig. 5/6, Table I) can replay the decision trail.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field

import numpy as np

from ..gnn.pipeline import MissionGNNModel
from ..nn.optim import Adam
from ..utils.rng import derive_rng
from ..utils.serialization import decode_array, encode_array
from .convergence import ConvergenceConfig, NodeConvergenceTracker
from .monitor import LOG_TRAIL_LENGTH, AnomalyScoreMonitor, MonitorConfig
from .structure import StructuralAdapter, StructuralEvent
from .token_update import TokenEmbeddingUpdater, TokenUpdateConfig

__all__ = ["AdaptationConfig", "AdaptationStepLog", "ContinuousAdaptationController"]


@dataclass
class AdaptationConfig:
    """All knobs of the edge adaptation loop in one place."""

    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    update: TokenUpdateConfig = field(default_factory=TokenUpdateConfig)
    convergence: ConvergenceConfig = field(default_factory=ConvergenceConfig)
    structural_adaptation: bool = True
    tokens_per_new_node: int = 2
    edge_probability: float = 0.5
    normals_per_update: int = 16   # known-normal anchors mixed into each round
    adaptation_rounds: int = 6     # re-select top-K and update this many times
    min_trigger_k: int = 3         # ignore triggers smaller than this
    min_confidence: float = 0.25   # skip rounds whose top-K barely separates
    seed: int = 7


@dataclass
class AdaptationStepLog:
    """Record of one controller step."""

    step: int
    scores: np.ndarray
    window_mean: float = float("nan")
    delta_m: float = 0.0
    k: int = 0
    updated: bool = False
    loss: float = float("nan")
    pruned: list[StructuralEvent] = field(default_factory=list)


class ContinuousAdaptationController:
    """Edge-side driver of continuous KG adaptive learning."""

    def __init__(self, model: MissionGNNModel, config: AdaptationConfig | None = None,
                 anomaly_type: int = 1,
                 normal_anchor_windows: np.ndarray | None = None):
        """
        Parameters
        ----------
        model:
            The cloud-trained decision model; frozen here for deployment.
        anomaly_type:
            Class index assigned to pseudo-anomalies.
        normal_anchor_windows:
            Known non-anomalous frame windows shipped with the deployment.
            The paper's adaptation experiments use "corresponding
            non-anomalous samples from the training set" alongside the
            pseudo-anomalies; when omitted, the controller falls back to
            the lowest-scoring windows of the monitor window.
        """
        self.model = model
        self.config = config or AdaptationConfig()
        self.anomaly_type = anomaly_type
        if normal_anchor_windows is not None:
            normal_anchor_windows = np.asarray(normal_anchor_windows,
                                               dtype=np.float64)
            if normal_anchor_windows.ndim != 3:
                raise ValueError("normal_anchor_windows must be (N, T, frame_dim)")
        self.normal_anchor_windows = normal_anchor_windows
        self._anchor_rng = derive_rng(self.config.seed, "anchors")

        model.freeze_for_deployment()
        self.monitor = AnomalyScoreMonitor(self.config.monitor)
        self.updater = TokenEmbeddingUpdater(model, self.config.update)
        self.tracker = NodeConvergenceTracker(self.config.convergence)
        self.structural = StructuralAdapter(
            model.reasoners, token_dim=model.embedding_model.token_dim,
            rng=derive_rng(self.config.seed, "structural"),
            tokens_per_new_node=self.config.tokens_per_new_node,
            edge_probability=self.config.edge_probability,
            token_bank=model.embedding_model.token_table.vectors)

        capacity = self.config.monitor.window + self.config.monitor.lag
        self._window_buffer: deque[np.ndarray] = deque(maxlen=capacity)
        self.logs: deque[AdaptationStepLog] = deque(maxlen=LOG_TRAIL_LENGTH)
        self.step_count = 0    # batches processed, across checkpoint restores
        self.update_count = 0  # total token-update iterations (Fig. 6 x-axis)

    # ------------------------------------------------------------------
    def process_batch(self, windows: np.ndarray,
                      scores: np.ndarray | None = None) -> AdaptationStepLog:
        """Ingest one arrival batch; adapt if the monitor triggers.

        ``scores`` may carry precomputed anomaly scores for ``windows``
        (the serving fleet's micro-batcher scores many streams in one
        coalesced forward); when omitted they are computed here.  The
        caller is responsible for the scores actually being this model's
        output for ``windows`` — the batched path guarantees bit-equality.
        """
        windows = np.asarray(windows, dtype=np.float64)
        if windows.ndim != 3:
            raise ValueError(f"expected (B, T, frame_dim), got {windows.shape}")
        step = self.step_count
        if scores is None:
            scores = self.model.anomaly_scores(windows)
        else:
            scores = np.asarray(scores, dtype=np.float64)
            if scores.shape != (windows.shape[0],):
                raise ValueError(f"expected {windows.shape[0]} precomputed "
                                 f"scores, got shape {scores.shape}")
        self.monitor.observe(scores)
        for w in windows:
            self._window_buffer.append(w)
        log = AdaptationStepLog(step=step, scores=scores)

        if self.monitor.warmed_up:
            selection = self.monitor.select()
            log.window_mean = selection.window_mean
            log.delta_m = selection.delta_m
            log.k = selection.k
            if selection.triggered and selection.k >= self.config.min_trigger_k:
                self._adapt(selection.k, log)
        self.logs.append(log)
        self.step_count += 1
        return log

    # ------------------------------------------------------------------
    def _pick_normals(self, k: int, exclude: set[int],
                      recent_windows: np.ndarray) -> np.ndarray:
        """Known non-anomalous windows for the update batch.

        Prefers the deployment's normal anchors (paper IV-B: "corresponding
        non-anomalous samples from the training set"); lacking anchors, the
        lowest-scoring recent windows — the ones the deployed model is most
        confident are normal.
        """
        cfg = self.config
        n_normals = min(cfg.normals_per_update, max(k, 1) * 4)
        if self.normal_anchor_windows is not None:
            pick = self._anchor_rng.choice(
                self.normal_anchor_windows.shape[0],
                size=min(n_normals, self.normal_anchor_windows.shape[0]),
                replace=False)
            return self.normal_anchor_windows[pick]
        scores = self.model.anomaly_scores(recent_windows)
        order = np.argsort(scores, kind="mergesort")
        low = [i for i in order if i not in exclude]
        return recent_windows[np.asarray(low[:n_normals], dtype=np.int64)]

    def _snapshot_tokens(self) -> list[np.ndarray]:
        return [t.data.copy() for t in self.model.token_parameters()]

    def _restore_tokens(self, snapshot: list[np.ndarray]) -> None:
        for tensor, data in zip(self.model.token_parameters(), snapshot):
            tensor.data = data.copy()
        self.model.commit_tokens()

    def _anchor_mean_score(self) -> float | None:
        if self.normal_anchor_windows is None:
            return None
        sample = self.normal_anchor_windows[:48]
        return float(self.model.anomaly_scores(sample).mean())

    def _adapt(self, k: int, log: AdaptationStepLog) -> None:
        """One adaptation phase: re-select top-K and update, several rounds.

        This is the token-updating loop of Fig. 4(A): update tokens, check
        per-node convergence, repeat.  Re-scoring the buffer between rounds
        lets newly-risen windows of the shifted trend enter the top-K, which
        is what progressively pulls the KG toward the new anomaly.

        Two safety valves keep pseudo-labeled SGD from running away on a
        frozen nonlinear model:

        * **confidence scaling** — the step size shrinks when the selected
          top-K barely separates from the rest of the window (noisy labels,
          typical right after a *strong* shift), matching the paper's
          "slower improvement" under strong shifts;
        * **backtracking** — a round that inflates the loss or makes the
          known-normal anchors look anomalous is rolled back and retried at
          half the step size.
        """
        cfg = self.config
        recent = list(self._window_buffer)[-self.monitor.current_window().size:]
        recent_windows = np.stack(recent)
        k = min(k, recent_windows.shape[0])

        prev_loss: float | None = None
        baseline_anchor = self._anchor_mean_score()
        lr_damping = 1.0
        for _ in range(max(cfg.adaptation_rounds, 1)):
            scores = self.model.anomaly_scores(recent_windows)
            top = np.argsort(-scores, kind="mergesort")[:k]
            pseudo_anomalies = recent_windows[top]
            normals = self._pick_normals(k, set(top.tolist()), recent_windows)
            batch = np.concatenate([pseudo_anomalies, normals])
            labels = np.concatenate([
                np.ones(pseudo_anomalies.shape[0], dtype=np.int64),
                np.zeros(normals.shape[0], dtype=np.int64),
            ])
            # Pseudo-label confidence: separation of the top-K from the rest
            # of the window, in window standard deviations.
            rest = np.delete(scores, top)
            spread = float(scores.std())
            if rest.size and spread > 1e-9:
                z = (float(scores[top].mean()) - float(rest.mean())) / spread
                confidence = float(np.clip(z / 2.0, 0.1, 1.0))
            else:
                confidence = 0.1
            if confidence < cfg.min_confidence:
                # The top-K is statistically indistinguishable from the rest
                # of the window: pseudo-labels would be noise, and gradient
                # steps on noise only drift the deployment.  Wait for a
                # cleaner signal (do-no-harm).
                break

            snapshot = self._snapshot_tokens()
            result = self.updater.update(batch, labels,
                                         anomaly_type=self.anomaly_type,
                                         lr_scale=confidence * lr_damping)
            self.update_count += 1
            log.updated = True

            diverged = prev_loss is not None and result.loss > max(
                prev_loss * 1.5, prev_loss + 0.3)
            anchor_now = self._anchor_mean_score()
            anchors_corrupted = (baseline_anchor is not None
                                 and anchor_now is not None
                                 and anchor_now > baseline_anchor + 0.10)
            if diverged or anchors_corrupted:
                self._restore_tokens(snapshot)
                lr_damping *= 0.5
                if lr_damping < 1e-3:
                    break
                continue

            prev_loss = result.loss
            log.loss = result.loss

            flagged = self.tracker.observe(result.node_distances)
            if cfg.structural_adaptation:
                structure_changed = False
                for kg_index, node_id in flagged:
                    event = self.structural.replace_node(kg_index, node_id,
                                                         step=log.step)
                    if event is not None:
                        self.tracker.forget((kg_index, node_id))
                        log.pruned.append(event)
                        structure_changed = True
                if structure_changed:
                    self.updater.rebuild_optimizer()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def total_pruned(self) -> int:
        return len(self.structural.events)

    def mean_score_trace(self) -> np.ndarray:
        """Window-mean trace (the distribution the paper plots over time)."""
        return np.asarray(self.monitor.history)

    # ------------------------------------------------------------------
    # Checkpointing (Deployment.save/load)
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """JSON-safe snapshot of the loop's mutable runtime state.

        Covers everything a restarted process needs to continue adapting
        exactly where this one stopped: monitor scores, the recent-window
        buffer, per-node convergence statistics, structural events, and
        every RNG state.  Model weights and KG tokens are *not* included —
        they travel in the deployment checkpoint's model section.
        """
        def key_str(key: tuple[int, int]) -> str:
            return f"{key[0]}:{key[1]}"

        tracker = self.tracker
        optimizer = self.updater._optimizer
        optimizer_state = {"step_count": optimizer.step_count}
        if isinstance(optimizer, Adam):
            optimizer_state["m"] = [encode_array(m) for m in optimizer._m]
            optimizer_state["v"] = [encode_array(v) for v in optimizer._v]
        return {
            "step_count": self.step_count,
            "update_count": self.update_count,
            "optimizer": optimizer_state,
            "monitor": {
                "scores": [float(s) for s in self.monitor._scores],
                "history": [float(h) for h in self.monitor.history],
            },
            "buffer": [encode_array(w) for w in self._window_buffer],
            "anchor_rng": self._anchor_rng.bit_generator.state,
            "structural_rng": self.structural.rng.bit_generator.state,
            "structural_events": [asdict(e) for e in self.structural.events],
            "tracker": {
                "last_distance": {key_str(k): v
                                  for k, v in tracker._last_distance.items()},
                "increase_streak": {key_str(k): v
                                    for k, v in tracker._increase_streak.items()},
                "updates_seen": {key_str(k): v
                                 for k, v in tracker._updates_seen.items()},
                "distance_history": {key_str(k): list(v) for k, v
                                     in tracker.distance_history.items()},
            },
        }

    def restore_state(self, state: dict) -> None:
        """Resume from an :meth:`export_state` snapshot.

        The controller must wrap the same (restored) model the snapshot
        was taken against; logs restart empty but ``step_count`` continues
        from the checkpoint.
        """
        def key_tuple(text: str) -> tuple[int, int]:
            kg, _, node = text.partition(":")
            return int(kg), int(node)

        self.step_count = int(state["step_count"])
        self.logs.clear()
        self.update_count = int(state["update_count"])
        self.monitor._scores.clear()
        self.monitor._scores.extend(float(s) for s in state["monitor"]["scores"])
        # The trails keep the newest entries of a longer saved list.
        self.monitor.history.clear()
        self.monitor.history.extend(float(h) for h in state["monitor"]["history"])
        self._window_buffer.clear()
        for payload in state["buffer"]:
            self._window_buffer.append(decode_array(payload))
        self._anchor_rng.bit_generator.state = state["anchor_rng"]
        self.structural.rng.bit_generator.state = state["structural_rng"]
        self.structural.events = [StructuralEvent(**e)
                                  for e in state["structural_events"]]
        tracker = self.tracker
        tracker._last_distance = {key_tuple(k): float(v) for k, v
                                  in state["tracker"]["last_distance"].items()}
        tracker._increase_streak = {key_tuple(k): int(v) for k, v
                                    in state["tracker"]["increase_streak"].items()}
        tracker._updates_seen = {key_tuple(k): int(v) for k, v
                                 in state["tracker"]["updates_seen"].items()}
        tracker.distance_history = {}
        for k, v in state["tracker"]["distance_history"].items():
            tracker.record_distances(key_tuple(k), (float(d) for d in v))
        # Token tensors may have been replaced by the model restore; re-bind,
        # then put back the optimizer's own state (Adam moments, step count)
        # so the first post-resume update matches an uninterrupted run.
        self.updater.rebuild_optimizer()
        optimizer = self.updater._optimizer
        saved_optimizer = state.get("optimizer", {})
        optimizer.step_count = int(saved_optimizer.get("step_count", 0))
        if isinstance(optimizer, Adam) and "m" in saved_optimizer:
            moments_m = [decode_array(p) for p in saved_optimizer["m"]]
            moments_v = [decode_array(p) for p in saved_optimizer["v"]]
            if (len(moments_m) == len(optimizer._m)
                    and all(a.shape == b.shape
                            for a, b in zip(moments_m, optimizer._m))):
                optimizer._m = moments_m
                optimizer._v = moments_v
