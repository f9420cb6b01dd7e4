"""Multi-mission deployment (beyond the paper's single-mission evaluation).

Exercises the model's multi-KG path at benchmark scale: one deployment
detecting three anomaly types (one per semantic cluster) with per-type
posteriors.  The paper describes this capability (Section III-C: the
reasoning embedding concatenates r_T over n KGs; Eq. 5 gives p_{i|A}) but
evaluates single missions only.
"""

import pytest

from repro.eval.multimission import MultiMissionExperiment

from .conftest import emit

MISSIONS = ["Stealing", "Explosion", "Arrest"]


@pytest.mark.benchmark(group="multimission")
def test_three_mission_deployment(benchmark, pipeline):
    experiment = MultiMissionExperiment(pipeline, MISSIONS)
    result = benchmark.pedantic(experiment.run, rounds=1, iterations=1)
    emit("Multi-mission deployment — 3 anomaly types, one model",
         result.summary())
    # Every mission must be detected well above chance...
    for mission, auc in result.auc_per_class.items():
        assert auc > 0.65, f"{mission}: {auc:.3f}"
    # ...and the per-type posterior must separate the three types
    # (chance = 1/3).
    assert result.type_accuracy > 0.5
