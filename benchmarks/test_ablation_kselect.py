"""Ablation — pseudo-label selection rule.

DESIGN.md calls out the paper's K = |delta_m| * N rule as a design choice
worth ablating.  This bench compares, on the weak-shift scenario:

* ``paper``     — K = |delta_m| * N (the proposed rule)
* ``fixed``     — constant K regardless of the mean drop
* ``disabled``  — no adaptation at all (static KG)

Expected: the paper's rule matches or beats fixed-K (it sizes the pseudo-
label set by the evidence of a shift) and clearly beats no adaptation.
"""

import pytest

from repro.adaptation import AdaptationConfig, MonitorConfig
from repro.data import TrendShiftConfig, TrendShiftStream
from repro.eval import roc_auc

from .conftest import emit, with_adaptation

STREAM = TrendShiftConfig(
    initial_class="Stealing", shifted_class="Robbery",
    steps_before_shift=6, steps_after_shift=20, windows_per_step=24,
    anomaly_fraction=0.3, window=8, seed=11)


MONITORS = {
    "paper": MonitorConfig(window=72, lag=36),
    # Constant-size selection: trigger threshold off, fixed K via min_k
    # with the adaptive term neutralized by max_k_fraction.
    "fixed": MonitorConfig(window=72, lag=36, min_k=8, trigger_threshold=0.0,
                           max_k_fraction=8 / 72),
}


def run_variant(pipeline, variant: str) -> float:
    adaptive = variant != "disabled"
    if adaptive:
        pipeline = with_adaptation(
            pipeline, AdaptationConfig(monitor=MONITORS[variant]))
    deployment = pipeline.deploy(STREAM.initial_class, adaptive=adaptive)
    for batch in TrendShiftStream(pipeline.generator, STREAM):
        deployment.ingest(batch.windows)
    eval_w, eval_l = pipeline.eval_windows(STREAM.shifted_class)
    return roc_auc(deployment.scores(eval_w), eval_l)


@pytest.mark.benchmark(group="ablation-kselect")
def test_ablation_k_selection_rule(benchmark, pipeline):
    def run_all():
        return {v: run_variant(pipeline, v)
                for v in ("paper", "fixed", "disabled")}

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    body = "\n".join(f"{name:>10}: final AUC on shifted class = {auc:.3f}"
                     for name, auc in results.items())
    emit("Ablation — pseudo-label selection rule (Stealing -> Robbery)", body)
    assert results["paper"] >= results["disabled"] - 0.02
