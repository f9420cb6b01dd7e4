"""Tests for the edge/cloud cost models (Table I substrate)."""

import numpy as np
import pytest

from repro.edge import (
    GPT4_KG_GENERATION_FLOPS,
    CloudBaseline,
    EdgeDeviceModel,
    EfficiencyComparison,
    count_adaptation_step,
    count_gnn_forward,
    count_model_forward,
    count_temporal_forward,
    count_token_side,
)
from repro.gnn import MissionGNNConfig, MissionGNNModel
from repro.nn import Tensor


class TestFlopCounting:
    def test_all_components_positive(self, fresh_model):
        counts = count_model_forward(fresh_model(window=4))
        assert counts.image_encoder > 0
        assert counts.gnn > 0
        assert counts.temporal > 0
        assert counts.decision > 0
        assert counts.total == pytest.approx(
            counts.image_encoder + counts.gnn + counts.temporal + counts.decision)

    def test_gnn_flops_scale_with_nodes(self, fresh_model, rng):
        model = fresh_model()
        base = count_gnn_forward(model)
        kg = model.kgs[0]
        kg.create_node(level=2, token_dim=model.embedding_model.token_dim,
                       n_tokens=2, rng=rng)
        model.reasoners[0].refresh_structure()
        assert count_gnn_forward(model) > base

    def test_gnn_flops_count_the_frame_side_rows(self, fresh_model):
        """Per frame the forward touches each node once (its own level's
        layer), not every node at every layer."""
        model = fresh_model()
        spec = model.reasoners[0].spec
        hidden = model.config.gnn_hidden_dim
        all_nodes_norm_elu = 8.0 * spec.num_levels * spec.num_nodes * hidden
        assert count_gnn_forward(model) < all_nodes_norm_elu

    def test_token_side_is_charged_per_gradient_step_not_per_window(
            self, fresh_model):
        model = fresh_model(window=4)
        forward = count_model_forward(model).total
        token_side = count_token_side(model)
        assert token_side > 0
        for batch in (1, 10):
            assert count_adaptation_step(model, batch, 2, 3) == pytest.approx(
                3 * (1 + 3 * 2) * (batch * forward + token_side))

    def test_temporal_flops_scale_with_window(self, fresh_model):
        small = count_temporal_forward(fresh_model(window=4))
        large = count_temporal_forward(fresh_model(window=8))
        assert large > small

    @pytest.mark.parametrize("batch, layers", [(1, 1), (5, 1), (5, 2)])
    def test_temporal_flops_are_what_a_forward_executes(
            self, fresh_kg, embedding_model, monkeypatch, batch, layers):
        """The accounting against an op-level tally of one real
        ``anomaly_scores`` call: every product the temporal model runs,
        ``2 * rows * in * out`` each, padding rows not billed.  One block
        is the served model; with two, the first runs on all positions."""
        model = MissionGNNModel(
            [fresh_kg()], embedding_model,
            MissionGNNConfig(temporal_window=8, temporal_layers=layers))
        model.freeze_for_deployment()
        executed = []
        affine, attention = Tensor.affine, Tensor.last_query_attention
        matmul = Tensor.__matmul__

        def counted_affine(x, weight, bias=None):
            executed.append(2.0 * (x.size // x.shape[-1]) * weight.size)
            return affine(x, weight, bias)

        def counted_matmul(a, b):
            executed.append(2.0 * a.size * b.shape[-1])
            return matmul(a, b)

        def counted_attention(x, w_q, b_q, w_k, w_v, b_v, num_heads):
            windows, length, dim = x.shape
            executed.append(windows * (
                3 * 2.0 * dim * dim                     # q, key fold, values
                + 2 * 2.0 * num_heads * length * dim))  # scores, mix
            return attention(x, w_q, b_q, w_k, w_v, b_v, num_heads)

        temporal = model.temporal.forward

        def counted_temporal(sequences):
            with monkeypatch.context() as patch:
                patch.setattr(Tensor, "affine", counted_affine)
                patch.setattr(Tensor, "__matmul__", counted_matmul)
                patch.setattr(Tensor, "last_query_attention", counted_attention)
                return temporal(sequences)

        monkeypatch.setattr(model.temporal, "forward", counted_temporal)
        model.anomaly_scores(np.random.default_rng(0).normal(
            size=(batch, 8, embedding_model.frame_dim)))
        # in, out, and per block: attention, o, ff1, ff2 (all-queries
        # blocks: q, k, v, scores, context in place of the kernel).
        assert len(executed) == 2 + 4 + 8 * (layers - 1)
        assert sum(executed) == batch * count_temporal_forward(model)
        if layers == 1:
            assert count_temporal_forward(model) == 444_416

    def test_adaptation_step_scaling(self, fresh_model):
        model = fresh_model(window=4)
        one = count_adaptation_step(model, batch_windows=10, inner_steps=1, rounds=1)
        more_rounds = count_adaptation_step(model, 10, 1, 4)
        more_inner = count_adaptation_step(model, 10, 4, 1)
        assert more_rounds == pytest.approx(4 * one)
        assert more_inner > one

    def test_edge_adaptation_in_paper_regime(self, fresh_model):
        """The paper reports ~1e9 FLOPs/day for edge adaptation; our counted
        cost must land within a couple of orders of magnitude."""
        model = fresh_model(window=8)
        flops = count_adaptation_step(model, batch_windows=30,
                                      inner_steps=3, rounds=6)
        assert 1e7 < flops < 1e11


class TestDeviceModel:
    def test_storage_includes_model_and_kg(self, fresh_model):
        device = EdgeDeviceModel()
        model = fresh_model()
        assert device.model_bytes(model) == model.num_parameters() * 8
        assert device.kg_bytes(model.kgs[0]) > 0
        assert device.storage_gb(model) > 0

    def test_energy_linear_in_flops(self):
        device = EdgeDeviceModel(joules_per_flop=1e-10)
        assert device.adaptation_energy_joules(1e10) == pytest.approx(1.0)

    def test_latency(self):
        device = EdgeDeviceModel()
        assert device.inference_latency_seconds(1e10, 1e10) == pytest.approx(1.0)


class TestCloudBaseline:
    def test_paper_constants(self):
        cloud = CloudBaseline()
        assert cloud.updates_per_month == 4
        assert cloud.gpt4_flops_per_update == GPT4_KG_GENERATION_FLOPS
        assert cloud.monthly_flops == pytest.approx(4e15)
        assert cloud.monthly_update_minutes == pytest.approx(4.0)
        assert cloud.monthly_bandwidth_gb == pytest.approx(2.0)

    def test_scalability_string(self):
        assert "Cloud" in CloudBaseline().scalability()


class TestEfficiencyComparison:
    @pytest.fixture()
    def comparison(self, fresh_model):
        return EfficiencyComparison(model=fresh_model(window=8),
                                    auc_baseline=0.93, auc_proposed=0.91)

    def test_row_count_matches_paper_table(self, comparison):
        rows = comparison.rows()
        # Paper Table I: 6 initial setup + 11 monthly + 3 operational.
        assert len(rows) == 20

    def test_proposed_has_zero_cloud_costs(self, comparison):
        rows = {r.metric: r for r in comparison.rows()}
        assert rows["KG Update Frequency (per month)"].proposed == "0"
        assert rows["Total GPT-4 Computational Cost (FLOPs/month)"].proposed == "0"
        assert rows["Memory Usage for GPT-4 during Updates (GB)"].proposed == "0"
        assert rows["Network Bandwidth Usage for KG Updates (GB/month)"].proposed == "Zero"

    def test_baseline_has_no_edge_costs(self, comparison):
        rows = {r.metric: r for r in comparison.rows()}
        assert rows["Edge Device Computational Cost per Adaptation (FLOPs/day)"].baseline == "N/A"

    def test_human_intervention_asymmetry(self, comparison):
        monthly = [r for r in comparison.rows()
                   if r.section == "Monthly Updates" and r.metric == "Human Intervention"]
        assert monthly[0].baseline == "Yes"
        assert monthly[0].proposed == "No"

    def test_auc_rows_use_measured_values(self, comparison):
        rows = {r.metric: r for r in comparison.rows()}
        assert rows["Average AUC score"].baseline == "0.93"
        assert rows["Average AUC score"].proposed == "0.91"

    def test_monthly_flops_consistency(self, comparison):
        assert comparison.edge_flops_per_month == pytest.approx(
            30 * comparison.edge_flops_per_day)

    def test_format_table_renders(self, comparison):
        text = comparison.format_table()
        assert "Initial Setup" in text
        assert "Average AUC score" in text
        assert "Proposed (Edge)" in text
