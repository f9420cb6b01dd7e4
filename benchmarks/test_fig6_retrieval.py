"""Fig. 6 — qualitative evaluation of knowledge updates via interpretable
KG retrieval.

Tracks a Stealing-KG node (the paper's example: "sneaky") through a
Stealing -> Robbery adaptation run and reports its token-space position
between the initial concept and the new anomaly's concept ("firearm"),
plus the decoded nearest words at snapshots.

Expected shape (paper): the node's embedding gradually moves away from the
initial concept words toward concept words of the new anomaly.
"""

import pytest

from repro.data import TrendShiftConfig
from repro.eval import FIG6_ADAPTATION, RetrievalDriftExperiment, format_retrieval_drift

from .conftest import emit, with_adaptation


@pytest.mark.benchmark(group="fig6")
def test_fig6_sneaky_drifts_toward_firearm(benchmark, pipeline):
    experiment = RetrievalDriftExperiment(
        with_adaptation(pipeline, FIG6_ADAPTATION),
        initial_class="Stealing", shifted_class="Robbery",
        tracked_word="sneaky", target_word="firearm",
        stream_config=TrendShiftConfig(
            initial_class="Stealing", shifted_class="Robbery",
            steps_before_shift=6, steps_after_shift=30, windows_per_step=24,
            anomaly_fraction=0.3, window=8, seed=11))
    result = benchmark.pedantic(experiment.run, rounds=1, iterations=1)
    emit("Fig. 6 — interpretable KG retrieval drift", format_retrieval_drift(result))
    positions = result.trajectory.relative_position()
    # The node must move toward the new anomaly's concept...
    assert result.net_drift > 0.02
    # ...and the movement must be broadly monotone (drift, not noise):
    # the final position exceeds the trajectory's first-quarter mean.
    quarter = max(len(positions) // 4, 1)
    assert positions[-1] > positions[:quarter].mean()


@pytest.mark.benchmark(group="fig6")
def test_fig6_retrieval_metric_choice(benchmark, pipeline):
    """The paper tested dot/cosine/Euclidean for retrieval and chose
    Euclidean.  Verify all three produce valid retrievals on the adapted KG
    and report what each returns for the tracked node."""
    from repro.adaptation import InterpretableKGRetrieval

    def run():
        model = pipeline.train("Stealing")
        table = pipeline.embedding_model.token_table
        kg = model.kgs[0]
        node = kg.concept_nodes()[0]
        return {
            metric: InterpretableKGRetrieval(table, metric=metric)
            .retrieve_node(kg, node.node_id).top_words()
            for metric in ("euclidean", "cosine", "dot")
        }, node.text

    words_by_metric, node_text = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"node: {node_text!r}"]
    for metric, words in words_by_metric.items():
        lines.append(f"{metric:>10}: {', '.join(words[:6])}")
    emit("Fig. 6 metric comparison (fresh KG)", "\n".join(lines))
    for words in words_by_metric.values():
        assert words
