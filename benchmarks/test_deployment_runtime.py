"""Metered deployment runtime (beyond the paper): measured Table-I edge costs.

Runs the weak-shift deployment through :class:`EdgeDeploymentSimulator`,
which meters every FLOP the edge device spends, and reports the measured
per-day figures that Table I's edge column models analytically.
"""

import pytest

from repro.data import TrendShiftConfig, TrendShiftStream
from repro.edge import EdgeDeploymentSimulator

from .conftest import emit


@pytest.mark.benchmark(group="runtime")
def test_metered_deployment(benchmark, pipeline):
    def run():
        simulator = EdgeDeploymentSimulator(pipeline.deploy("Stealing"))
        stream = TrendShiftStream(pipeline.generator, TrendShiftConfig(
            initial_class="Stealing", shifted_class="Robbery",
            steps_before_shift=6, steps_after_shift=14, windows_per_step=24,
            anomaly_fraction=0.3, window=8, seed=11))
        return simulator.run(stream)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    # One "day" = one stream step in the compressed timeline.
    emit("Metered edge deployment (Stealing -> Robbery stream)",
         report.summary()
         + f"\nextrapolated FLOPs/day (1 step/day): "
           f"{report.flops_per_day(steps_per_day=1):.3e}")
    assert report.total_windows == 20 * 24
    assert report.adaptation_steps >= 1
    # The edge cost regime of the paper's Table I: daily cost must sit
    # orders of magnitude below one cloud KG generation (1e15 FLOPs).
    assert report.flops_per_day(steps_per_day=1) < 1e12
    # Inference dominates steady-state; adaptation is the smaller share
    # but non-zero while the trend is shifting.
    assert report.adaptation_flops > 0
