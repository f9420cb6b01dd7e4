"""Ablation — adaptation trigger rule.

The paper triggers adaptation from the windowed mean drop (K = |Δm|·N).
This ablation feeds the *same* deployed-model score stream (a weak trend
shift) to three sequential detectors and compares detection latency and
pre-shift false alarms:

* ``paper``        — the |Δm| windowed rule (monitor with threshold),
* ``page-hinkley`` — cumulative downward-deviation test,
* ``cusum``        — two-sided standardized CUSUM.

Expected: all three fire after the true shift; the paper's rule also
yields a magnitude (K) that the alternatives lack.
"""

import pytest

from repro.adaptation import (
    CUSUM,
    AnomalyScoreMonitor,
    MonitorConfig,
    PageHinkley,
)
from repro.data import TrendShiftConfig, TrendShiftStream

from .conftest import emit


@pytest.mark.benchmark(group="ablation-trigger")
def test_ablation_trigger_rules(benchmark, pipeline):
    def run():
        model = pipeline.train("Stealing")
        stream_config = TrendShiftConfig(
            initial_class="Stealing", shifted_class="Robbery",
            steps_before_shift=10, steps_after_shift=10, windows_per_step=24,
            anomaly_fraction=0.3, window=8, seed=11)
        stream = TrendShiftStream(pipeline.generator, stream_config)
        shift_at = stream_config.steps_before_shift

        monitor = AnomalyScoreMonitor(MonitorConfig(window=72, lag=36))
        page_hinkley = PageHinkley(delta=0.005, threshold=0.6, burn_in=72)
        cusum = CUSUM(k=0.5, h=6.0, burn_in=72)
        firings: dict[str, list[int]] = {"paper": [], "page-hinkley": [],
                                         "cusum": []}
        for batch in stream:
            scores = model.anomaly_scores(batch.windows)
            monitor.observe(scores)
            if monitor.warmed_up and monitor.select().triggered:
                firings["paper"].append(batch.step)
            for score in scores:
                if page_hinkley.update(float(score)):
                    firings["page-hinkley"].append(batch.step)
                if cusum.update(float(score)):
                    firings["cusum"].append(batch.step)
        return firings, shift_at

    firings, shift_at = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"true shift at stream step {shift_at}"]
    for name, steps in firings.items():
        false_alarms = [s for s in steps if s < shift_at]
        latency = (min((s for s in steps if s >= shift_at), default=None))
        latency_str = (f"{latency - shift_at} steps" if latency is not None
                       else "never")
        lines.append(f"{name:>13}: first post-shift detection after "
                     f"{latency_str}; pre-shift false alarms: "
                     f"{len(false_alarms)}")
    emit("Ablation — adaptation trigger rule (Stealing -> Robbery)",
         "\n".join(lines))

    # The paper's rule must detect the shift with small latency...
    post = [s for s in firings["paper"] if s >= shift_at]
    assert post and min(post) - shift_at <= 3
    # ...and at least one classical alternative must agree the shift is real.
    others = firings["page-hinkley"] + firings["cusum"]
    assert any(s >= shift_at for s in others)
