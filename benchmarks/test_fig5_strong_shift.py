"""Fig. 5(B) — strong anomaly shift: Stealing -> Explosion.

Expected shape (paper): a larger AUC drop than the weak shift and a
*slower* improvement after the shift, "reflecting the greater challenge in
adapting to more significant shifts in anomaly type".
"""

import pytest

from repro.data import TrendShiftConfig
from repro.eval import TrendShiftExperiment, format_trend_shift

from .conftest import emit


@pytest.mark.benchmark(group="fig5-strong")
def test_fig5b_stealing_to_explosion(benchmark, pipeline):
    experiment = TrendShiftExperiment(pipeline, TrendShiftConfig(
        initial_class="Stealing", shifted_class="Explosion",
        steps_before_shift=6, steps_after_shift=20, windows_per_step=24,
        anomaly_fraction=0.3, window=8, seed=11))
    result = benchmark.pedantic(experiment.run, rounds=1, iterations=1)
    emit("Fig. 5(B) — Stealing -> Explosion (strong shift)",
         format_trend_shift(result))
    assert result.shift_strength == "strong"
    means = result.category_means()
    # Adaptation must end above the static baseline...
    assert means["adaptive"][-1] >= means["static"][-1]
    # ...but the strong-shift baseline sits lower than the weak-shift one:
    # transfer across clusters is much worse (paper: bigger drop).
    pre = [a for s, a in zip(result.steps, result.auc_static)
           if s < result.shift_step]
    assert means["static"][-1] < sum(pre) / len(pre) - 0.15


@pytest.mark.benchmark(group="fig5-strong")
def test_fig5_weak_recovers_higher_than_strong(benchmark, pipeline):
    """Cross-panel property: weak-shift adaptation converges to a higher
    AUC than strong-shift adaptation (paper's central Fig. 5 contrast)."""
    def run_both():
        weak = TrendShiftExperiment(pipeline, TrendShiftConfig(
            initial_class="Stealing", shifted_class="Robbery",
            steps_before_shift=6, steps_after_shift=20, windows_per_step=24,
            anomaly_fraction=0.3, window=8, seed=11)).run()
        strong = TrendShiftExperiment(pipeline, TrendShiftConfig(
            initial_class="Stealing", shifted_class="Explosion",
            steps_before_shift=6, steps_after_shift=20, windows_per_step=24,
            anomaly_fraction=0.3, window=8, seed=11)).run()
        return weak, strong

    weak, strong = benchmark.pedantic(run_both, rounds=1, iterations=1)
    weak_final = weak.category_means()["adaptive"][-1]
    strong_final = strong.category_means()["adaptive"][-1]
    emit("Fig. 5 cross-panel contrast",
         f"weak-shift final adaptive AUC:   {weak_final:.3f}\n"
         f"strong-shift final adaptive AUC: {strong_final:.3f}")
    assert weak_final > strong_final
