"""Integration-lite tests for the continuous adaptation controller."""

import numpy as np
import pytest

from repro.adaptation import (
    AdaptationConfig,
    ContinuousAdaptationController,
    MonitorConfig,
    TokenUpdateConfig,
)


def small_config(**overrides):
    base = dict(
        monitor=MonitorConfig(window=12, lag=6, trigger_threshold=0.02),
        update=TokenUpdateConfig(learning_rate=0.02, inner_steps=1),
        adaptation_rounds=2,
        min_trigger_k=2,
    )
    base.update(overrides)
    return AdaptationConfig(**base)


def deployed_controller(fresh_model, embedding_model, rng, **overrides):
    model = fresh_model(window=4)
    anchors = rng.normal(size=(10, 4, embedding_model.frame_dim))
    controller = ContinuousAdaptationController(
        model, small_config(**overrides), normal_anchor_windows=anchors)
    return model, controller


class TestControllerLifecycle:
    def test_freezes_model_on_construction(self, fresh_model, embedding_model, rng):
        model, controller = deployed_controller(fresh_model, embedding_model, rng)
        assert all(not p.requires_grad for p in model.parameters())
        assert all(t.requires_grad for t in model.token_parameters())

    def test_process_batch_returns_log(self, fresh_model, embedding_model, rng):
        model, controller = deployed_controller(fresh_model, embedding_model, rng)
        windows = rng.normal(size=(6, 4, embedding_model.frame_dim))
        log = controller.process_batch(windows)
        assert log.step == 0
        assert log.scores.shape == (6,)
        assert not log.updated  # not warmed up yet

    def test_no_adaptation_before_warmup(self, fresh_model, embedding_model, rng):
        model, controller = deployed_controller(fresh_model, embedding_model, rng)
        tokens_before = [t.data.copy() for t in model.token_parameters()]
        controller.process_batch(rng.normal(size=(4, 4, embedding_model.frame_dim)))
        for t, before in zip(model.token_parameters(), tokens_before):
            np.testing.assert_allclose(t.data, before)

    def test_rejects_2d_windows(self, fresh_model, embedding_model, rng):
        _, controller = deployed_controller(fresh_model, embedding_model, rng)
        with pytest.raises(ValueError):
            controller.process_batch(rng.normal(size=(4, embedding_model.frame_dim)))

    def test_anchor_shape_validation(self, fresh_model, embedding_model, rng):
        model = fresh_model(window=4)
        with pytest.raises(ValueError):
            ContinuousAdaptationController(
                model, small_config(),
                normal_anchor_windows=rng.normal(size=(4, embedding_model.frame_dim)))

    def test_logs_accumulate(self, fresh_model, embedding_model, rng):
        _, controller = deployed_controller(fresh_model, embedding_model, rng)
        logs = [controller.process_batch(
            rng.normal(size=(4, 4, embedding_model.frame_dim)))
            for _ in range(3)]
        assert [log.step for log in logs] == [0, 1, 2]

    def test_steps_count_and_survive_a_restore(
            self, fresh_model, embedding_model, rng):
        """Each step's log is the return value; the step count keeps
        counting across a checkpoint round trip."""
        model, controller = deployed_controller(fresh_model, embedding_model, rng)
        windows = rng.normal(size=(1, 4, embedding_model.frame_dim))
        scores = model.anomaly_scores(windows)
        steps = [controller.process_batch(windows, scores=scores).step
                 for _ in range(7)]
        assert steps == list(range(7))
        assert controller.step_count == 7
        state = controller.export_state()
        assert state["step_count"] == 7
        controller.restore_state(state)
        assert controller.step_count == 7
        assert controller.process_batch(windows, scores=scores).step == 7

    def test_checkpoint_size_does_not_grow_with_age(
            self, fresh_model, embedding_model, rng):
        """Nothing the checkpoint serialises grows with the step count:
        once the monitor's scores and the code buffer are full, a snapshot
        taken after 3 x (window + lag) steps is exactly as large as one
        taken after 2 x (and larger than one taken while they fill)."""
        from repro.utils.binframe import encode_payload
        model, ctl = deployed_controller(fresh_model, embedding_model, rng)
        windows = rng.normal(size=(1, 4, embedding_model.frame_dim))
        scores = model.anomaly_scores(windows)  # constant: never triggers
        span = ctl.config.monitor.window + ctl.config.monitor.lag
        sizes = []
        for step in range(3 * span):
            ctl.process_batch(windows, scores=scores)
            ctl.tracker.observe({(0, 1): 0.25, (0, 2): 0.5})
            if step + 1 in (span // 2, 2 * span, 3 * span):
                sizes.append(len(encode_payload(ctl.export_state())))
        assert sizes[0] < sizes[1] == sizes[2]


class TestAdaptationTriggering:
    def _drive_with_trickle(self, fresh_model, embedding_model,
                            frame_generator, rng):
        """Warm up past the monitor window with the maintenance trickle on,
        which guarantees adaptation steps regardless of the (untrained)
        model's score geometry.  The K = |delta_m| * N rule itself is unit-
        tested in test_adaptation_monitor."""
        model, controller = deployed_controller(
            fresh_model, embedding_model, rng,
            monitor=MonitorConfig(window=12, lag=6, min_k=2,
                                  trigger_threshold=0.02),
            min_trigger_k=1)

        def class_windows(cls, n):
            return np.stack([
                np.stack([frame_generator.anomaly_frame(cls, rng) for _ in range(4)])
                for _ in range(n)])

        logs = []
        for _ in range(5):
            logs.append(controller.process_batch(class_windows("Stealing", 8)))
        return model, controller, logs

    def test_trickle_triggers_update_after_warmup(self, fresh_model,
                                                  embedding_model,
                                                  frame_generator, rng):
        model, controller, logs = self._drive_with_trickle(
            fresh_model, embedding_model, frame_generator, rng)
        assert any(log.updated for log in logs)
        assert controller.update_count > 0

    def test_k_rule_logged(self, fresh_model, embedding_model,
                           frame_generator, rng):
        _, controller, logs = self._drive_with_trickle(
            fresh_model, embedding_model, frame_generator, rng)
        triggered = [log for log in logs if log.updated]
        assert triggered
        assert all(log.k >= 1 for log in triggered)

    def test_tokens_move_on_trigger(self, fresh_model, embedding_model,
                                    frame_generator, rng):
        model, controller, logs = self._drive_with_trickle(
            fresh_model, embedding_model, frame_generator, rng)
        kg = model.kgs[0]
        # At least one node's embeddings differ from their vocab initialization.
        moved = False
        for node in kg.concept_nodes():
            if node.token_ids:
                init = embedding_model.token_table.lookup(node.token_ids)
                if init.shape == node.token_embeddings.shape and \
                        not np.allclose(init, node.token_embeddings):
                    moved = True
        assert moved

    def test_structural_adaptation_can_be_disabled(self, fresh_model,
                                                   embedding_model, rng):
        model = fresh_model(window=4)
        controller = ContinuousAdaptationController(
            model, small_config(structural_adaptation=False))
        assert controller.config.structural_adaptation is False
