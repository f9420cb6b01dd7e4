"""Edge deployment runtime: a metered wrapper around the adaptation loop.

``EdgeDeploymentSimulator`` runs the continuous-adaptation controller over
an arrival stream while accounting for every FLOP the device spends —
inference scoring, adaptation forward/backward passes — and converting
them to energy and latency through the :class:`EdgeDeviceModel`.  Its
report is the measured counterpart of Table I's per-day edge numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..adaptation.controller import (
    AdaptationConfig,
    AdaptationStepLog,
    ContinuousAdaptationController,
)
from ..gnn.pipeline import MissionGNNModel
from .device import EdgeDeviceModel
from .flops import count_model_forward, count_token_side

__all__ = ["StepMeter", "DeploymentReport", "EdgeDeploymentSimulator"]


@dataclass
class StepMeter:
    """Resource accounting for one processed batch."""

    step: int
    windows: int
    inference_flops: float
    adaptation_flops: float
    energy_joules: float
    latency_seconds: float
    adapted: bool

    @property
    def total_flops(self) -> float:
        return self.inference_flops + self.adaptation_flops


@dataclass
class DeploymentReport:
    """Aggregate resource usage over a deployment run."""

    steps: list[StepMeter] = field(default_factory=list)

    @property
    def total_flops(self) -> float:
        return sum(m.total_flops for m in self.steps)

    @property
    def total_energy_joules(self) -> float:
        return sum(m.energy_joules for m in self.steps)

    @property
    def total_windows(self) -> int:
        return sum(m.windows for m in self.steps)

    @property
    def adaptation_steps(self) -> int:
        return sum(1 for m in self.steps if m.adapted)

    @property
    def adaptation_flops(self) -> float:
        return sum(m.adaptation_flops for m in self.steps)

    @property
    def inference_flops(self) -> float:
        return sum(m.inference_flops for m in self.steps)

    def flops_per_day(self, steps_per_day: int) -> float:
        """Extrapolate the run's mean per-step cost to a daily figure."""
        if not self.steps:
            return 0.0
        return self.total_flops / len(self.steps) * steps_per_day

    def summary(self) -> str:
        lines = [
            f"steps processed:        {len(self.steps)}",
            f"windows scored:         {self.total_windows}",
            f"adaptation phases:      {self.adaptation_steps}",
            f"inference FLOPs:        {self.inference_flops:.3e}",
            f"adaptation FLOPs:       {self.adaptation_flops:.3e}",
            f"total energy:           {self.total_energy_joules:.3f} J",
        ]
        return "\n".join(lines)


class EdgeDeploymentSimulator:
    """Runs a deployment while metering device resources.

    Wraps a :class:`ContinuousAdaptationController`; every
    :meth:`process_batch` both advances the adaptation loop and records a
    :class:`StepMeter`.  Adaptation cost is derived from the controller's
    actual update count delta (so backtracked/retried rounds are billed
    too) times the measured per-iteration cost.
    """

    def __init__(self, model: MissionGNNModel,
                 config: AdaptationConfig | None = None,
                 device: EdgeDeviceModel | None = None,
                 normal_anchor_windows: np.ndarray | None = None,
                 device_flops_per_second: float = 1e10):
        self.model = model
        self.controller = ContinuousAdaptationController(
            model, config, normal_anchor_windows=normal_anchor_windows)
        self.device = device or EdgeDeviceModel()
        self.device_flops_per_second = device_flops_per_second
        self.report = DeploymentReport()
        self._forward_flops = count_model_forward(model).total
        self._token_side_flops = count_token_side(model)
        self._structural_seen = self.controller.total_pruned

    # ------------------------------------------------------------------
    def _adaptation_flops(self, updates: int) -> float:
        """Cost of ``updates`` token-update calls.

        Each update call runs ``inner_steps`` forward+backward iterations
        on a batch of roughly (K + normals) windows, deriving the token
        side once per iteration; backward ~ 2x forward.
        """
        cfg = self.controller.config
        batch = cfg.normals_per_update * 2  # typical K + anchors
        per_update = ((batch * self._forward_flops + self._token_side_flops)
                      * 3.0 * max(cfg.update.inner_steps, 1))
        return updates * per_update

    def process_batch(self, windows: np.ndarray) -> tuple[AdaptationStepLog, StepMeter]:
        """Score (and possibly adapt on) one arrival batch, metered."""
        updates_before = self.controller.update_count
        log = self.controller.process_batch(windows)
        updates_done = self.controller.update_count - updates_before

        # This step's inference ran on the pre-adaptation structure (the
        # controller scores before it adapts), so it is billed at the
        # cached per-forward cost; the cache is refreshed below once any
        # structural change lands.
        inference = windows.shape[0] * self._forward_flops
        adaptation = self._adaptation_flops(updates_done)
        total = inference + adaptation
        meter = StepMeter(
            step=log.step,
            windows=int(windows.shape[0]),
            inference_flops=inference,
            adaptation_flops=adaptation,
            energy_joules=self.device.adaptation_energy_joules(total),
            latency_seconds=self.device.inference_latency_seconds(
                total, self.device_flops_per_second),
            adapted=updates_done > 0)
        self.report.steps.append(meter)
        if self.controller.total_pruned != self._structural_seen:
            # Structural adaptation pruned/created KG nodes, changing the
            # true per-forward cost (edge counts shifted); a cached figure
            # from __init__ would mis-bill every subsequent window.
            self._forward_flops = count_model_forward(self.model).total
            self._token_side_flops = count_token_side(self.model)
            self._structural_seen = self.controller.total_pruned
        return log, meter

    def run(self, stream) -> DeploymentReport:
        """Drive an iterable of batches (each with a ``windows`` attribute
        or a raw array) to completion."""
        for batch in stream:
            windows = getattr(batch, "windows", batch)
            self.process_batch(windows)
        return self.report
