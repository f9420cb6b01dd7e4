"""Tests for the metered edge deployment simulator."""

import pytest

from repro.adaptation import AdaptationConfig, MonitorConfig, TokenUpdateConfig
from repro.adaptation import structure as structure_module
from repro.api import Deployment
from repro.edge import DeploymentReport, EdgeDeploymentSimulator, EdgeDeviceModel
from repro.edge.flops import count_model_forward, count_token_side


def make_simulator(fresh_model, embedding_model, rng, **kwargs):
    anchors = rng.normal(size=(8, 4, embedding_model.frame_dim))
    deployment = Deployment(
        fresh_model(window=4),
        adaptation_config=AdaptationConfig(monitor=MonitorConfig(window=12, lag=6)),
        normal_anchor_windows=anchors)
    return EdgeDeploymentSimulator(deployment, **kwargs)


class TestMetering:
    def test_every_batch_metered(self, fresh_model, embedding_model, rng):
        sim = make_simulator(fresh_model, embedding_model, rng)
        for _ in range(3):
            windows = rng.normal(size=(5, 4, embedding_model.frame_dim))
            log, meter = sim.process_batch(windows)
            assert meter.windows == 5
            assert meter.inference_flops > 0
            assert meter.energy_joules > 0
            assert meter.latency_seconds > 0
        assert len(sim.report.steps) == 3

    def test_inference_flops_scale_with_batch(self, fresh_model,
                                              embedding_model, rng):
        sim = make_simulator(fresh_model, embedding_model, rng)
        _, small = sim.process_batch(rng.normal(size=(2, 4, embedding_model.frame_dim)))
        _, large = sim.process_batch(rng.normal(size=(8, 4, embedding_model.frame_dim)))
        assert large.inference_flops == pytest.approx(4 * small.inference_flops)

    def test_no_adaptation_means_zero_adaptation_flops(self, fresh_model,
                                                       embedding_model, rng):
        sim = make_simulator(fresh_model, embedding_model, rng)
        _, meter = sim.process_batch(
            rng.normal(size=(4, 4, embedding_model.frame_dim)))
        assert not meter.adapted
        assert meter.adaptation_flops == 0.0

    def test_run_over_stream(self, fresh_model, embedding_model, rng):
        sim = make_simulator(fresh_model, embedding_model, rng)
        stream = [rng.normal(size=(4, 4, embedding_model.frame_dim))
                  for _ in range(4)]
        report = sim.run(stream)
        assert isinstance(report, DeploymentReport)
        assert report.total_windows == 16
        assert report.total_flops > 0

    def test_energy_follows_device_model(self, fresh_model, embedding_model, rng):
        device = EdgeDeviceModel(joules_per_flop=1e-9)
        sim = make_simulator(fresh_model, embedding_model, rng, device=device)
        _, meter = sim.process_batch(
            rng.normal(size=(4, 4, embedding_model.frame_dim)))
        assert meter.energy_joules == pytest.approx(meter.total_flops * 1e-9)


class TestAdaptationBilling:
    """Each update call is billed for the batch the controller built for
    the step's K: the top-K plus min(16, 4K) normals, not a fixed 32."""

    @pytest.mark.parametrize("k", [2, 16])
    def test_billed_flops_match_the_batches_the_updater_received(
            self, k, fresh_model, embedding_model, rng, monkeypatch):
        frame_dim = embedding_model.frame_dim
        config = AdaptationConfig(
            monitor=MonitorConfig(window=32, lag=16, min_k=k,
                                  trigger_threshold=1e9),  # K = min_k
            update=TokenUpdateConfig(inner_steps=2), adaptation_rounds=2,
            min_trigger_k=1, min_confidence=0.0, structural_adaptation=False)
        deployment = Deployment(
            fresh_model(window=4), adaptation_config=config,
            normal_anchor_windows=rng.normal(size=(20, 4, frame_dim)))
        sim = EdgeDeploymentSimulator(deployment)
        updater, batches = deployment.controller.updater, []
        update = updater.update

        def tally(windows, labels, **kwargs):
            batches.append(windows.shape[0])
            return update(windows, labels, **kwargs)

        monkeypatch.setattr(updater, "update", tally)
        for _ in range(6):
            sim.process_batch(rng.normal(size=(8, 4, frame_dim)))
        assert batches and set(batches) == {k + min(16, 4 * k)}
        forward = count_model_forward(sim.model).total
        token_side = count_token_side(sim.model)
        assert sim.report.adaptation_flops == pytest.approx(
            sum((size * forward + token_side) * 3.0 * 2 for size in batches))


class TestStructuralMeteringRefresh:
    """Regression: the per-forward FLOPs cache from ``__init__`` must be
    recomputed once structural adaptation changes the KG — pruning a
    high-fan node changes the true per-forward cost, and a stale cache
    would mis-bill every subsequent window."""

    @staticmethod
    def _prune_busiest_node(sim, monkeypatch) -> None:
        """Force one structural event that strictly drops the edge count:
        prune the concept node with the most edges, replace it with a
        minimally-connected one (edge_probability=0 keeps one edge per
        side)."""
        kg = sim.model.reasoners[0].kg
        candidates = [node for node in kg._nodes.values() if node.is_concept
                      and len(kg.nodes_at_level(node.level)) > 1]

        def edge_count(node):
            return sum(1 for (src, dst) in kg._edges
                       if src == node.node_id or dst == node.node_id)

        busiest = max(candidates, key=edge_count)
        assert edge_count(busiest) > 2  # replacement gets exactly 2 edges
        monkeypatch.setattr(structure_module, "EDGE_PROBABILITY", 0.0)
        event = sim.deployment.controller.structural.replace_node(
            0, busiest.node_id, step=0)
        assert event is not None

    def test_flops_per_window_drop_after_pruning(self, fresh_model,
                                                 embedding_model, rng,
                                                 monkeypatch):
        sim = make_simulator(fresh_model, embedding_model, rng)
        _, before_meter = sim.process_batch(
            rng.normal(size=(5, 4, embedding_model.frame_dim)))
        stale = sim._forward_flops
        self._prune_busiest_node(sim, monkeypatch)
        _, after_meter = sim.process_batch(
            rng.normal(size=(5, 4, embedding_model.frame_dim)))
        assert sim._forward_flops == count_model_forward(sim.model).total
        assert sim._forward_flops < stale
        # Subsequent windows are billed at the refreshed per-forward cost.
        _, next_meter = sim.process_batch(
            rng.normal(size=(5, 4, embedding_model.frame_dim)))
        assert next_meter.inference_flops == 5 * sim._forward_flops
        assert next_meter.inference_flops < before_meter.inference_flops

    def test_no_structural_change_keeps_cache(self, fresh_model,
                                              embedding_model, rng):
        sim = make_simulator(fresh_model, embedding_model, rng)
        cached = sim._forward_flops
        sim.process_batch(rng.normal(size=(4, 4, embedding_model.frame_dim)))
        assert sim._forward_flops == cached


class TestReport:
    def test_aggregates(self, fresh_model, embedding_model, rng):
        sim = make_simulator(fresh_model, embedding_model, rng)
        for _ in range(4):
            sim.process_batch(rng.normal(size=(3, 4, embedding_model.frame_dim)))
        report = sim.report
        assert report.total_flops == pytest.approx(
            report.inference_flops + report.adaptation_flops)
        assert report.total_energy_joules == pytest.approx(
            sum(m.energy_joules for m in report.steps))

    def test_flops_per_day_extrapolation(self, fresh_model, embedding_model, rng):
        sim = make_simulator(fresh_model, embedding_model, rng)
        sim.process_batch(rng.normal(size=(4, 4, embedding_model.frame_dim)))
        per_step = sim.report.total_flops
        assert sim.report.flops_per_day(steps_per_day=100) == pytest.approx(
            100 * per_step)

    def test_empty_report(self):
        report = DeploymentReport()
        assert report.total_flops == 0.0
        assert report.flops_per_day(10) == 0.0

    def test_summary_renders(self, fresh_model, embedding_model, rng):
        sim = make_simulator(fresh_model, embedding_model, rng)
        sim.process_batch(rng.normal(size=(2, 4, embedding_model.frame_dim)))
        text = sim.report.summary()
        assert "windows scored" in text
        assert "total energy" in text
