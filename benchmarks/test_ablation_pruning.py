"""Ablation — structural adaptation (node pruning + creation).

The paper's Fig. 4 pipeline prunes diverging nodes and creates random
replacements.  This bench runs the strong-shift scenario (where divergence
pressure is highest) with structural adaptation enabled vs disabled and
reports final AUC and structural churn.

Expected: enabling pruning never *hurts* materially, and the mechanism's
churn stays bounded (the rate limiter works).
"""

import pytest

from repro.adaptation import AdaptationConfig, ConvergenceConfig, MonitorConfig
from repro.data import TrendShiftConfig, TrendShiftStream
from repro.eval import roc_auc

from .conftest import emit, with_adaptation

STREAM = TrendShiftConfig(
    initial_class="Stealing", shifted_class="Explosion",
    steps_before_shift=6, steps_after_shift=20, windows_per_step=24,
    anomaly_fraction=0.3, window=8, seed=11)


def run_variant(pipeline, structural: bool, eager: bool = False):
    convergence = (ConvergenceConfig(patience=2, min_updates=3, min_distance=0.01)
                   if eager else ConvergenceConfig())
    pipe = with_adaptation(pipeline, AdaptationConfig(
        monitor=MonitorConfig(window=72, lag=36), convergence=convergence,
        structural_adaptation=structural))
    deployment = pipe.deploy(STREAM.initial_class)
    for batch in TrendShiftStream(pipe.generator, STREAM):
        deployment.ingest(batch.windows)
    eval_w, eval_l = pipe.eval_windows(STREAM.shifted_class)
    auc = roc_auc(deployment.scores(eval_w), eval_l)
    return auc, deployment.total_pruned, deployment.update_count


@pytest.mark.benchmark(group="ablation-pruning")
def test_ablation_structural_adaptation(benchmark, pipeline):
    def run_all():
        return {
            "tokens only": run_variant(pipeline, structural=False),
            "tokens + prune/create": run_variant(pipeline, structural=True),
            "eager pruning": run_variant(pipeline, structural=True, eager=True),
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    body = "\n".join(
        f"{name:>22}: AUC={auc:.3f}  pruned={pruned}  updates={updates}"
        for name, (auc, pruned, updates) in results.items())
    emit("Ablation — structural adaptation (Stealing -> Explosion)", body)
    base_auc = results["tokens only"][0]
    full_auc = results["tokens + prune/create"][0]
    assert full_auc >= base_auc - 0.1  # pruning must not wreck adaptation
    assert results["eager pruning"][1] >= results["tokens + prune/create"][1]
