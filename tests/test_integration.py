"""End-to-end integration tests over the full pipeline.

These exercise the complete paper workflow at small scale:
KG generation -> training -> deployment -> continuous adaptation ->
interpretable retrieval -> serialization round trip.
"""

import numpy as np
import pytest

from repro.adaptation import (
    AdaptationConfig,
    ContinuousAdaptationController,
    InterpretableKGRetrieval,
    MonitorConfig,
)
from repro.data import TrendShiftConfig, TrendShiftStream
from repro.eval import roc_auc
from repro.kg import kg_from_dict, kg_to_dict


@pytest.mark.slow
class TestFullPipeline:
    def test_train_deploy_adapt_cycle(self, trained_pipeline):
        pipe = trained_pipeline
        model = pipe.train("Stealing")

        # 1. Deployment-quality detection on the mission class.
        windows, labels = pipe.eval_windows("Stealing")
        assert roc_auc(model.anomaly_scores(windows), labels) > 0.75

        # 2. Continuous adaptation through a trend shift.
        controller = ContinuousAdaptationController(
            model,
            AdaptationConfig(monitor=MonitorConfig(window=36, lag=18)),
            normal_anchor_windows=pipe.normal_anchors("Stealing"))
        stream = TrendShiftStream(pipe.generator, TrendShiftConfig(
            initial_class="Stealing", shifted_class="Robbery",
            steps_before_shift=3, steps_after_shift=8, windows_per_step=12,
            window=pipe.config.experiment.window, seed=11))
        for batch in stream:
            controller.process_batch(batch.windows)
        assert controller.update_count > 0

        # 3. The adapted model still produces calibrated scores.
        scores = model.anomaly_scores(windows)
        assert np.all((scores >= 0) & (scores <= 1))

        # 4. Interpretable retrieval on the adapted KG works for all nodes.
        retrieval = InterpretableKGRetrieval(pipe.embedding_model.token_table)
        results = retrieval.retrieve_kg(model.kgs[0])
        assert all(r.top_words() for r in results)

        # 5. The adapted KG serializes and reloads with invariants intact.
        restored = kg_from_dict(kg_to_dict(model.kgs[0]))
        restored.validate()
        node = model.kgs[0].concept_nodes()[0]
        np.testing.assert_allclose(
            restored.node(node.node_id).token_embeddings,
            node.token_embeddings)

    def test_adaptation_beats_static_on_shift(self, trained_pipeline):
        """The paper's headline claim at miniature scale: after a weak trend
        shift, the adaptive model's AUC on the new anomaly meets or beats the
        static model's."""
        pipe = trained_pipeline
        adaptive = pipe.train("Stealing")
        static = pipe.train("Stealing")
        eval_w, eval_l = pipe.eval_windows("Robbery")

        controller = ContinuousAdaptationController(
            adaptive,
            AdaptationConfig(monitor=MonitorConfig(window=36, lag=18)),
            normal_anchor_windows=pipe.normal_anchors("Stealing"))
        stream = TrendShiftStream(pipe.generator, TrendShiftConfig(
            initial_class="Stealing", shifted_class="Robbery",
            steps_before_shift=3, steps_after_shift=10, windows_per_step=12,
            window=pipe.config.experiment.window, seed=11))
        for batch in stream:
            controller.process_batch(batch.windows)

        auc_adaptive = roc_auc(adaptive.anomaly_scores(eval_w), eval_l)
        auc_static = roc_auc(static.anomaly_scores(eval_w), eval_l)
        # Allow a small tolerance: at this scale a tie is acceptable, a
        # regression is not.
        assert auc_adaptive >= auc_static - 0.05

    def test_deployment_artifact_roundtrip(self, trained_pipeline, tmp_path):
        """Ship the KG to 'the edge' via a file and keep detecting."""
        from repro.gnn import MissionGNNModel
        from repro.kg import load_kg, save_kg

        pipe = trained_pipeline
        model = pipe.train("Stealing")
        path = tmp_path / "deployed_kg.json"
        save_kg(model.kgs[0], path)
        kg = load_kg(path)
        edge_model = MissionGNNModel([kg], pipe.embedding_model,
                                     pipe.model_config())
        edge_model.load_state_dict(model.state_dict())
        # A real deployment ships normalization statistics with the weights.
        for src, dst in zip(model.reasoners[0].gnn.layers,
                            edge_model.reasoners[0].gnn.layers):
            dst.norm.running_mean = src.norm.running_mean.copy()
            dst.norm.running_var = src.norm.running_var.copy()
        edge_model.eval()
        windows, labels = pipe.eval_windows("Stealing")
        np.testing.assert_allclose(edge_model.anomaly_scores(windows),
                                   model.anomaly_scores(windows), atol=1e-9)
