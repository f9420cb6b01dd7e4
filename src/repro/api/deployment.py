"""The ``Deployment`` runtime: a long-lived edge serving object.

Wraps a trained :class:`~repro.gnn.MissionGNNModel` plus (optionally) the
continuous-adaptation controller behind a small serving surface:

* :meth:`ingest` — feed one arrival batch; the controller may adapt;
* :meth:`scores` — score windows without feeding the monitor;
* :meth:`serve` — drive a whole stream, yielding one event per batch;
* :meth:`save` / :meth:`load` — checkpoint the *entire* runtime (model,
  KGs, adaptation config, monitor state, frame-code buffer, RNG states) so a
  deployment survives process restarts mid-adaptation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..adaptation.controller import (
    AdaptationConfig,
    AdaptationStepLog,
    ContinuousAdaptationController,
    checked_batch,
)
from ..embedding.joint_space import JointEmbeddingModel
from ..errors import CheckpointError
from ..gnn.checkpoint import deployment_from_dict, deployment_to_dict
from ..gnn.pipeline import MissionGNNModel
from ..utils import binframe
from .config import config_from_dict, config_to_dict

__all__ = ["Deployment", "ServeEvent"]

_FORMAT_VERSION = 4  # the runtime holds no optimizer moments or per-step trails


def _embedding_fingerprint(embedding_model: JointEmbeddingModel) -> str:
    """Digest of the frozen token vocabulary the deployment was built on.

    The joint embedding model is shipped separately from deployment
    checkpoints; this digest catches resuming against the wrong one
    (e.g. a different seed), which would otherwise silently produce
    garbage scores.
    """
    return embedding_model.token_table.fingerprint


@dataclass
class ServeEvent:
    """One :meth:`Deployment.serve` step."""

    step: int
    scores: np.ndarray
    log: AdaptationStepLog | None = None
    active_class: str | None = None
    is_post_shift: bool | None = None


class Deployment:
    """Model + adaptation controller behind a serving interface."""

    def __init__(self, model: MissionGNNModel, mission: str | None = None,
                 adaptation_config: AdaptationConfig | None = None,
                 adaptive: bool = True,
                 normal_anchor_windows: np.ndarray | None = None):
        self.model = model
        self.mission = mission
        self.adaptive = adaptive
        self.adaptation_config = adaptation_config or AdaptationConfig()
        self.normal_anchor_windows = (
            None if normal_anchor_windows is None
            else np.asarray(normal_anchor_windows, dtype=np.float64))
        self.controller: ContinuousAdaptationController | None = None
        if adaptive:
            self.controller = ContinuousAdaptationController(
                model, self.adaptation_config,
                normal_anchor_windows=self.normal_anchor_windows)
        else:
            model.eval()
        self._static_steps = 0

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def scores(self, windows: np.ndarray) -> np.ndarray:
        """Anomaly probabilities without feeding the adaptation monitor."""
        return self.model.anomaly_scores(windows)

    def ingest(self, windows: np.ndarray,
               scores: np.ndarray | None = None) -> AdaptationStepLog:
        """Feed one arrival batch; adaptive deployments may adapt on it.

        ``scores`` may carry this model's precomputed anomaly scores for
        ``windows`` (the fleet micro-batcher scores many streams in one
        coalesced forward and dispatches the slices back here).  Windows
        holding NaN or ±Inf are refused before any state changes.
        """
        if self.controller is not None:
            return self.controller.process_batch(windows, scores=scores)
        windows, scores = checked_batch(windows, scores)
        if scores is None:
            scores = self.model.anomaly_scores(windows)
        log = AdaptationStepLog(step=self._static_steps, scores=scores)
        self._static_steps += 1
        return log

    def serve(self, stream, tracer=None):
        """Drive ``stream`` through :meth:`ingest`, yielding one event per batch.

        ``stream`` may yield :class:`~repro.data.StreamBatch` objects (the
        repo's deployment streams) or raw ``(B, T, frame_dim)`` arrays.
        ``tracer`` (an optional :class:`repro.obs.TraceRecorder`) records
        one ``engine.round`` span per batch, as a fleet round does.
        """
        for served, batch in enumerate(stream, start=1):
            wall, start = time.time(), time.perf_counter()
            log = self.ingest(getattr(batch, "windows", batch))
            if tracer is not None:
                tracer.record_span(
                    "engine.round", None, ts=wall,
                    dur=time.perf_counter() - start,
                    attrs={"round": served, "streams": 1, "pull": True})
            yield ServeEvent(step=log.step, scores=log.scores, log=log,
                             active_class=getattr(batch, "active_class",
                                                  None),
                             is_post_shift=getattr(batch, "is_post_shift",
                                                   None))

    def freeze(self) -> None:
        """Turn an adaptive deployment into a static one.

        The model keeps whatever adaptation it has absorbed so far; the
        controller is dropped, so further :meth:`ingest` calls only score.
        """
        if self.controller is not None:
            self._static_steps = self.controller.step_count
            self.controller = None
        self.adaptive = False
        self.model.eval()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def step_count(self) -> int:
        if self.controller is not None:
            return self.controller.step_count
        return self._static_steps

    @property
    def update_count(self) -> int:
        return 0 if self.controller is None else self.controller.update_count

    @property
    def total_pruned(self) -> int:
        return 0 if self.controller is None else self.controller.total_pruned

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def to_dict(self, include_model: bool = True,
                include_anchors: bool = True) -> dict:
        """Serialize the runtime; ``include_model=False`` /
        ``include_anchors=False`` omit the model section / the anchor
        windows (the fleet checkpoint stores what deployments share once)."""
        payload = {
            "format_version": _FORMAT_VERSION,
            "mission": self.mission,
            "adaptive": self.adaptive,
            "embedding_fingerprint": _embedding_fingerprint(
                self.model.embedding_model),
            "model": deployment_to_dict(self.model) if include_model else None,
            "adaptation_config": config_to_dict(self.adaptation_config),
            "anchors": (self.normal_anchor_windows if include_anchors
                        else None),
            "runtime": (None if self.controller is None
                        else self.controller.export_state()),
            "static_steps": self._static_steps,
        }
        return payload

    def save(self, path: str | Path) -> None:
        """Write the whole runtime (model + adaptation state) to one file."""
        binframe.write_file(path, self.to_dict())

    @classmethod
    def from_dict(cls, payload: dict, embedding_model: JointEmbeddingModel,
                  model: MissionGNNModel | None = None,
                  anchors: np.ndarray | None = None) -> "Deployment":
        """Rebuild from :meth:`to_dict` output.

        ``model`` / ``anchors`` inject an already-restored model instance /
        anchor array instead of rebuilding them from the payload — the
        fleet checkpoint stores what deployments share once and passes it
        to every deployment that referenced it.
        """
        version = payload.get("format_version")
        if version != _FORMAT_VERSION:
            raise CheckpointError(f"unsupported deployment format version: {version}")
        if payload["embedding_fingerprint"] != _embedding_fingerprint(
                embedding_model):
            raise ValueError(
                "embedding model mismatch: this deployment was built on a "
                "different joint embedding vocabulary (check the experiment "
                "seed used to construct the embedding model)")
        if model is None:
            if payload.get("model") is None:
                raise ValueError(
                    "payload has no model section (saved with "
                    "include_model=False); pass the restored model via "
                    "the `model` argument")
            model = deployment_from_dict(payload["model"], embedding_model)
        if anchors is None:
            anchors = payload.get("anchors")
        adaptation = config_from_dict(AdaptationConfig,
                                      payload["adaptation_config"])
        deployment = cls(model, mission=payload.get("mission"),
                         adaptation_config=adaptation,
                         adaptive=payload.get("adaptive", True),
                         normal_anchor_windows=anchors)
        if deployment.controller is not None and payload.get("runtime"):
            deployment.controller.restore_state(payload["runtime"])
        deployment._static_steps = payload.get("static_steps", 0)
        return deployment

    @classmethod
    def load(cls, path: str | Path,
             embedding_model: JointEmbeddingModel) -> "Deployment":
        """Rebuild a deployment saved by :meth:`save`.

        The frozen joint embedding model is shared infrastructure (shipped
        once, not per deployment), so it is passed in rather than stored.
        """
        return cls.from_dict(binframe.read_file(path), embedding_model)
