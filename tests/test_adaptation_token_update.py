"""Tests for token-embedding-only updates (paper Fig. 2C / Fig. 4A)."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.adaptation import TokenEmbeddingUpdater, TokenUpdateConfig
from repro.adaptation import token_update as token_update_module
from repro.nn.losses import vad_loss


def deployed(fresh_model):
    model = fresh_model(window=4)
    model.freeze_for_deployment()
    return model


def small_batch(embedding_model, rng, n=6, window=4):
    windows = rng.normal(size=(n, window, embedding_model.frame_dim))
    labels = (np.arange(n) % 2).astype(np.int64)
    return windows, labels


class TestUpdaterGuards:
    def test_requires_deployment_freeze(self, fresh_model):
        model = fresh_model()
        with pytest.raises(ValueError):
            TokenEmbeddingUpdater(model)

    def test_rejects_trainable_weights(self, fresh_model):
        model = fresh_model()
        model.freeze_for_deployment()
        model.unfreeze()  # simulate a mistake
        with pytest.raises(ValueError):
            TokenEmbeddingUpdater(model)

    def test_batch_shape_validation(self, fresh_model, embedding_model, rng):
        model = deployed(fresh_model)
        updater = TokenEmbeddingUpdater(model)
        with pytest.raises(ValueError):
            updater.update(rng.normal(size=(3, 4, embedding_model.frame_dim)),
                           np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError):
            updater.update(np.zeros((0, 4, embedding_model.frame_dim)),
                           np.zeros(0, dtype=np.int64))


class TestUpdateSemantics:
    def test_only_tokens_change(self, fresh_model, embedding_model, rng):
        """The paper's core constraint: model weights stay frozen, only the
        KG token embeddings move."""
        model = deployed(fresh_model)
        updater = TokenEmbeddingUpdater(model, TokenUpdateConfig(
            learning_rate=0.1, inner_steps=2))
        weights_before = {k: v.copy() for k, v in model.state_dict().items()}
        tokens_before = [t.data.copy() for t in model.token_parameters()]

        windows, labels = small_batch(embedding_model, rng)
        updater.update(windows, labels)

        for key, value in model.state_dict().items():
            np.testing.assert_allclose(value, weights_before[key],
                                       err_msg=f"weight {key} changed")
        moved = [not np.allclose(t.data, before)
                 for t, before in zip(model.token_parameters(), tokens_before)]
        assert any(moved)

    def test_distances_reported_for_every_node(self, fresh_model,
                                               embedding_model, rng):
        model = deployed(fresh_model)
        updater = TokenEmbeddingUpdater(model)
        windows, labels = small_batch(embedding_model, rng)
        result = updater.update(windows, labels)
        concept_ids = {(0, n.node_id) for n in model.kgs[0].concept_nodes()}
        assert set(result.node_distances) == concept_ids
        assert all(d >= 0 for d in result.node_distances.values())

    def test_kg_nodes_updated_in_place(self, fresh_model, embedding_model, rng):
        model = deployed(fresh_model)
        updater = TokenEmbeddingUpdater(model, TokenUpdateConfig(learning_rate=0.2))
        kg = model.kgs[0]
        before = {n.node_id: n.token_embeddings.copy() for n in kg.concept_nodes()}
        windows, labels = small_batch(embedding_model, rng)
        updater.update(windows, labels)
        changed = [not np.allclose(kg.node(nid).token_embeddings, b)
                   for nid, b in before.items()]
        assert any(changed)

    def test_lr_scale_zero_freezes(self, fresh_model, embedding_model, rng):
        model = deployed(fresh_model)
        updater = TokenEmbeddingUpdater(model)
        tokens_before = [t.data.copy() for t in model.token_parameters()]
        windows, labels = small_batch(embedding_model, rng)
        updater.update(windows, labels, lr_scale=0.0)
        for t, before in zip(model.token_parameters(), tokens_before):
            np.testing.assert_allclose(t.data, before)

    def test_lr_scale_restores_base_lr(self, fresh_model, embedding_model, rng):
        model = deployed(fresh_model)
        updater = TokenEmbeddingUpdater(model, TokenUpdateConfig(learning_rate=0.1))
        windows, labels = small_batch(embedding_model, rng)
        updater.update(windows, labels, lr_scale=0.5)
        assert updater._optimizer.lr == pytest.approx(0.1)

    def test_max_token_norm_enforced(self, fresh_model, embedding_model, rng,
                                     monkeypatch):
        monkeypatch.setattr(token_update_module, "MAX_TOKEN_NORM", 1.5)
        monkeypatch.setattr(token_update_module, "GRAD_CLIP", 100.0)
        model = deployed(fresh_model)
        cfg = TokenUpdateConfig(learning_rate=5.0, inner_steps=5)
        updater = TokenEmbeddingUpdater(model, cfg)
        windows, labels = small_batch(embedding_model, rng)
        updater.update(windows, labels)
        for t in model.token_parameters():
            norms = np.linalg.norm(t.data, axis=-1)
            assert np.all(norms <= 1.5 + 1e-9)

    def test_inner_steps_move_further(self, fresh_model, embedding_model, rng):
        def total_movement(inner_steps):
            model = deployed(fresh_model)
            updater = TokenEmbeddingUpdater(model, TokenUpdateConfig(
                learning_rate=0.05, inner_steps=inner_steps))
            before = [t.data.copy() for t in model.token_parameters()]
            windows, labels = small_batch(embedding_model, rng)
            result = updater.update(windows, labels)
            return sum(result.node_distances.values())

        assert total_movement(4) > total_movement(1)

    def test_rebuild_optimizer_after_structure_change(self, fresh_model,
                                                      embedding_model, rng):
        model = deployed(fresh_model)
        updater = TokenEmbeddingUpdater(model)
        kg = model.kgs[0]
        reasoner = model.reasoners[0]
        victim = kg.nodes_at_level(2)[0]
        kg.prune_node(victim.node_id)
        kg.create_node(level=2, token_dim=embedding_model.token_dim,
                       n_tokens=2, rng=rng,
                       token_bank=embedding_model.token_table.vectors)
        reasoner.refresh_structure()
        updater.rebuild_optimizer()
        windows, labels = small_batch(embedding_model, rng)
        result = updater.update(windows, labels)  # must not crash
        assert np.isfinite(result.loss)


class TestUpdateMemory:
    def test_updates_leave_no_tape_behind(self, fresh_model, embedding_model,
                                          rng):
        """Each update's tape is released when the update returns, not
        whenever the cyclic collector next runs its oldest generation."""
        model = deployed(fresh_model)
        updater = TokenEmbeddingUpdater(model)
        windows, labels = small_batch(embedding_model, rng, n=16)
        updater.update(windows, labels)  # lazy one-off allocations
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            for _ in range(3):
                updater.update(windows, labels)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert peak - baseline > 1 << 20  # the tape itself is not small
        assert current - baseline < 1 << 20

    def test_update_holds_one_tape_at_a_time(self, fresh_model,
                                             embedding_model, rng):
        """Inner step i's tape is freed before step i+1 builds its own, so
        a whole update peaks near one forward+backward, not two."""
        model = deployed(fresh_model)
        updater = TokenEmbeddingUpdater(model)
        windows, labels = small_batch(embedding_model, rng, n=22)
        codes = model.frame_codes(windows)
        updater.update(codes, labels)  # lazy one-off allocations

        def peak_of(run) -> int:
            gc.collect()
            tracemalloc.start()
            try:
                baseline, _ = tracemalloc.get_traced_memory()
                run()
                return tracemalloc.get_traced_memory()[1] - baseline
            finally:
                tracemalloc.stop()

        def forward_backward():
            loss = vad_loss(model.code_logits(codes), labels,
                            lambda_spa=token_update_module.LAMBDA_SPA,
                            lambda_smt=token_update_module.LAMBDA_SMT)
            loss.backward()

        single = peak_of(forward_backward)
        whole = peak_of(lambda: updater.update(codes, labels))
        assert whole <= 1.3 * single, (whole, single)

    def test_a_served_size_update_peaks_within_its_bound(
            self, fresh_model, embedding_model, rng):
        """``backward`` frees each interior node's gradient and closure as
        soon as its own backward has run, so one update at the served
        window (8 frames) and a 32-window batch peaks at <= 5.5 MB (6.9 MB
        while the tape lived until ``backward`` returned)."""
        model = fresh_model(window=8)
        model.freeze_for_deployment()
        updater = TokenEmbeddingUpdater(model)
        windows, labels = small_batch(embedding_model, rng, n=32, window=8)
        codes = model.frame_codes(windows)
        updater.update(codes, labels)  # lazy one-off allocations
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            updater.update(codes, labels)
            peak = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()
            gc.enable()
        assert peak <= 5.5e6, peak
