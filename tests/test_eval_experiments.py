"""Tests for the experiment harnesses (pipeline caching, determinism,
shapes, and parity with a hand-wired adaptation loop).

The heavy full-scale runs live in benchmarks/; here we verify the harness
machinery itself with the shared small trained pipeline.
"""

import copy
import dataclasses

import numpy as np
import pytest

from repro.adaptation import (
    ContinuousAdaptationController,
    DriftTrajectory,
    InterpretableKGRetrieval,
)
from repro.api import Pipeline
from repro.data import TrendShiftConfig, TrendShiftStream
from repro.eval import (
    FIG6_ADAPTATION,
    EfficiencyExperiment,
    EfficiencyResult,
    RetrievalDriftExperiment,
    RetrievalDriftResult,
    TrendShiftExperiment,
    TrendShiftResult,
    ascii_series,
    format_retrieval_drift,
    format_trend_shift,
    roc_auc,
)


@pytest.fixture(scope="module")
def fig6_pipeline(trained_pipeline):
    """Fig. 6's adaptation config over the shared pipeline's trained models."""
    return Pipeline(dataclasses.replace(trained_pipeline.config,
                                        adaptation=FIG6_ADAPTATION),
                    registry=trained_pipeline.registry)


class TestPipelineStack:
    def test_kg_cache_returns_fresh_copies(self, trained_pipeline):
        a = trained_pipeline.generate_kg("Stealing")
        b = trained_pipeline.generate_kg("Stealing")
        assert a is not b
        node = a.concept_nodes()[0]
        node.token_embeddings += 1.0
        other = b.node(node.node_id)
        assert not np.allclose(node.token_embeddings, other.token_embeddings)

    def test_trained_model_reload_is_deterministic(self, trained_pipeline):
        windows, _ = trained_pipeline.eval_windows("Stealing")
        a = trained_pipeline.train("Stealing")
        b = trained_pipeline.train("Stealing")
        assert a is not b
        np.testing.assert_allclose(a.anomaly_scores(windows[:5]),
                                   b.anomaly_scores(windows[:5]))

    def test_trained_model_separates_mission_class(self, trained_pipeline):
        model = trained_pipeline.train("Stealing")
        windows, labels = trained_pipeline.eval_windows("Stealing")
        assert roc_auc(model.anomaly_scores(windows), labels) > 0.75

    def test_eval_windows_deterministic(self, trained_pipeline):
        a, la = trained_pipeline.eval_windows("Robbery")
        b, lb = trained_pipeline.eval_windows("Robbery")
        np.testing.assert_allclose(a, b)
        np.testing.assert_array_equal(la, lb)

    def test_eval_windows_balanced(self, trained_pipeline):
        cfg = trained_pipeline.config.experiment
        windows, labels = trained_pipeline.eval_windows("Arson")
        assert (labels == 0).sum() == cfg.eval_normal_windows
        assert (labels == 1).sum() == cfg.eval_anomaly_windows

    def test_normal_anchors_are_normal(self, trained_pipeline):
        anchors = trained_pipeline.normal_anchors("Stealing", count=10)
        assert anchors.ndim == 3
        assert anchors.shape[0] <= 10


class TestTrendShiftHarness:
    @pytest.fixture(scope="class")
    def result(self, trained_pipeline):
        experiment = TrendShiftExperiment(trained_pipeline, TrendShiftConfig(
            initial_class="Stealing", shifted_class="Robbery",
            steps_before_shift=2, steps_after_shift=4, windows_per_step=12,
            window=trained_pipeline.config.experiment.window, seed=11))
        return experiment.run()

    def test_result_shape(self, result):
        assert len(result.steps) == 6
        assert len(result.auc_adaptive) == 6
        assert len(result.auc_static) == 6
        assert result.shift_step == 2
        assert result.shift_strength == "weak"

    def test_static_pre_shift_auc_reasonable(self, result):
        pre = [a for s, a in zip(result.steps, result.auc_static) if s < 2]
        assert min(pre) > 0.6

    def test_category_means_bucketing(self, result):
        means = result.category_means(categories=2)
        assert len(means["adaptive"]) == 2
        assert len(means["static"]) == 2

    def test_static_trace_constant(self, result):
        """Without adaptation the model never changes, so its AUC on a fixed
        eval set is constant within each phase."""
        post = [a for s, a in zip(result.steps, result.auc_static) if s >= 2]
        assert max(post) - min(post) < 1e-9

    def test_formatting(self, result):
        text = format_trend_shift(result, categories=2)
        assert "Stealing -> Robbery" in text
        assert "weak" in text


class TestRetrievalDriftHarness:
    def test_drift_runs_and_records(self, fig6_pipeline):
        experiment = RetrievalDriftExperiment(
            fig6_pipeline,
            stream_config=TrendShiftConfig(
                initial_class="Stealing", shifted_class="Robbery",
                steps_before_shift=2, steps_after_shift=3, windows_per_step=12,
                window=fig6_pipeline.config.experiment.window, seed=11))
        result = experiment.run()
        assert result.tracked_node_text
        assert len(result.trajectory.iterations) >= 2
        assert 0 in result.retrieved_words
        text = format_retrieval_drift(result)
        assert result.tracked_node_text in text


class TestEfficiencyHarness:
    def test_measures_both_strategies(self, trained_pipeline):
        experiment = EfficiencyExperiment(
            trained_pipeline, class_a="Stealing", class_b="Stealing",
            alternations=2, steps_per_phase=2)
        result = experiment.run()
        assert 0.0 <= result.auc_baseline <= 1.0
        assert 0.0 <= result.auc_proposed <= 1.0
        assert len(result.phase_aucs_baseline) == 2
        assert len(result.phase_aucs_proposed) == 2
        assert result.kg_regenerations_baseline == 2


# ----------------------------------------------------------------------
# Parity: each harness equals a hand-wired controller loop bit for bit
# ----------------------------------------------------------------------
FIG5_STREAM = TrendShiftConfig(
    initial_class="Stealing", shifted_class="Explosion",
    steps_before_shift=6, steps_after_shift=14, windows_per_step=24,
    anomaly_fraction=0.3, window=8, seed=11)
FIG6_STREAM = TrendShiftConfig(
    initial_class="Stealing", shifted_class="Robbery",
    steps_before_shift=4, steps_after_shift=10, windows_per_step=24,
    anomaly_fraction=0.3, window=8, seed=11)


def controller_for(pipe, mission):
    """The reference loop's adaptive model: a fresh registry copy under a
    controller on the pipeline's adaptation config."""
    model = pipe.train(mission)
    return model, ContinuousAdaptationController(
        model, copy.deepcopy(pipe.config.adaptation),
        normal_anchor_windows=pipe.normal_anchors(mission))


def reference_fig5(pipe, scfg):
    result = TrendShiftResult(
        initial_class=scfg.initial_class, shifted_class=scfg.shifted_class,
        shift_strength=scfg.shift_strength, shift_step=scfg.steps_before_shift)
    eval_sets = {cls: pipe.eval_windows(cls)
                 for cls in (scfg.initial_class, scfg.shifted_class)}
    adaptive, controller = controller_for(pipe, scfg.initial_class)
    static = pipe.train(scfg.initial_class)
    for batch in TrendShiftStream(pipe.generator, scfg):
        controller.process_batch(batch.windows)
        windows, labels = eval_sets[batch.active_class]
        result.steps.append(batch.step)
        result.auc_adaptive.append(roc_auc(adaptive.anomaly_scores(windows), labels))
        result.auc_static.append(roc_auc(static.anomaly_scores(windows), labels))
    result.pruned_nodes = controller.total_pruned
    result.token_updates = controller.update_count
    return result


def reference_table1(pipe, alternations, steps_per_phase):
    exp = pipe.config.experiment
    phases = ["Stealing" if i % 2 == 0 else "Robbery"
              for i in range(alternations)]
    eval_sets = {cls: pipe.eval_windows(cls) for cls in set(phases)}
    proposed, controller = controller_for(pipe, phases[0])
    proposed_aucs = []
    for index, phase_class in enumerate(phases):
        for batch in TrendShiftStream(pipe.generator, TrendShiftConfig(
                initial_class=phase_class, shifted_class=phase_class,
                steps_before_shift=steps_per_phase, steps_after_shift=0,
                window=exp.window, seed=exp.seed + index * steps_per_phase)):
            controller.process_batch(batch.windows)
        windows, labels = eval_sets[phase_class]
        proposed_aucs.append(roc_auc(proposed.anomaly_scores(windows), labels))
    baseline_aucs = [
        roc_auc(pipe.train(cls).anomaly_scores(eval_sets[cls][0]), eval_sets[cls][1])
        for cls in phases]
    return EfficiencyResult(
        auc_baseline=float(np.mean(baseline_aucs)),
        auc_proposed=float(np.mean(proposed_aucs)),
        phase_aucs_baseline=baseline_aucs, phase_aucs_proposed=proposed_aucs,
        kg_regenerations_baseline=len(phases),
        edge_updates_proposed=controller.update_count)


def reference_fig6(pipe, scfg):
    model, controller = controller_for(pipe, scfg.initial_class)
    kg = model.kgs[0]
    tracked = next(n for n in kg.concept_nodes() if n.text == "sneaky")
    table = pipe.embedding_model.token_table
    initial_vec, target_vec = table.embed_text("sneaky"), table.embed_text("firearm")
    result = RetrievalDriftResult(
        tracked_node_text="sneaky",
        trajectory=DriftTrajectory(initial_word="sneaky", target_word="firearm"))
    retrieval = InterpretableKGRetrieval(table, metric="euclidean")

    def snapshot(iteration):
        if tracked.node_id not in [n.node_id for n in kg.concept_nodes()]:
            return
        node = kg.node(tracked.node_id)
        result.trajectory.record(iteration, node.token_embeddings.mean(axis=0),
                                 initial_vec, target_vec)
        result.retrieved_words[iteration] = retrieval.retrieve_node(
            kg, tracked.node_id).top_words(per_token=1)

    snapshot(0)
    for batch in TrendShiftStream(pipe.generator, scfg):
        controller.process_batch(batch.windows)
        snapshot(controller.update_count)
    return result, controller.update_count


class TestHarnessParity:
    """Each harness serves through ``Pipeline.deploy(...).ingest``; its
    results must equal the reference controller loop's exactly."""

    @pytest.mark.parametrize("figure", ["fig5", "table1", "fig6"])
    def test_harness_equals_reference_loop(self, figure, trained_pipeline,
                                           fig6_pipeline):
        if figure == "fig5":
            ours = TrendShiftExperiment(trained_pipeline, FIG5_STREAM).run()
            theirs = reference_fig5(trained_pipeline, FIG5_STREAM)
            assert theirs.token_updates > 0
            assert ours == theirs
        elif figure == "table1":
            ours = EfficiencyExperiment(trained_pipeline, alternations=4,
                                        steps_per_phase=6).run()
            theirs = reference_table1(trained_pipeline, 4, 6)
            assert theirs.edge_updates_proposed > 0
            assert ours == theirs
        else:
            ours = RetrievalDriftExperiment(
                fig6_pipeline, stream_config=FIG6_STREAM).run()
            theirs, updates = reference_fig6(fig6_pipeline, FIG6_STREAM)
            assert updates > 0
            assert ours.tracked_node_text == theirs.tracked_node_text
            assert ours.trajectory == theirs.trajectory
            assert (ours.trajectory.relative_position().tolist()
                    == theirs.trajectory.relative_position().tolist())
            assert ours.retrieved_words == theirs.retrieved_words


class TestReportingHelpers:
    def test_ascii_series(self):
        lines = ascii_series([0.0, 0.5, 1.0], width=10)
        assert lines[0].startswith("." * 10)
        assert lines[2].startswith("#" * 10)
