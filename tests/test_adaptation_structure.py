"""Tests for structural KG adaptation (node pruning + creation)."""

import numpy as np

from repro.adaptation import StructuralAdapter
from repro.utils import derive_rng


def make_adapter(model, **kwargs):
    return StructuralAdapter(
        model.reasoners, token_dim=model.embedding_model.token_dim,
        rng=derive_rng(0, "structural-test"),
        token_bank=model.embedding_model.token_table.vectors, **kwargs)


class TestReplaceNode:
    def test_prune_and_create_same_level(self, fresh_model):
        model = fresh_model()
        model.freeze_for_deployment()
        adapter = make_adapter(model)
        kg = model.kgs[0]
        victim = kg.nodes_at_level(2)[0]
        n_nodes = kg.num_nodes
        event = adapter.replace_node(0, victim.node_id, step=3)
        assert event is not None
        assert event.level == 2
        assert event.pruned_text == victim.text
        assert event.step == 3
        assert kg.num_nodes == n_nodes  # one out, one in
        kg.validate()

    def test_new_node_participates_in_reasoning(self, fresh_model):
        model = fresh_model()
        model.freeze_for_deployment()
        adapter = make_adapter(model)
        kg = model.kgs[0]
        victim = kg.nodes_at_level(2)[0]
        event = adapter.replace_node(0, victim.node_id)
        assert kg.in_degree(event.created_node_id) >= 1

    def test_reasoner_spec_refreshed(self, fresh_model, embedding_model, rng):
        model = fresh_model()
        model.freeze_for_deployment()
        adapter = make_adapter(model)
        kg = model.kgs[0]
        victim = kg.nodes_at_level(1)[-1]
        adapter.replace_node(0, victim.node_id)
        # Forward pass must work against the new structure.
        out = model.reasoners[0](rng.normal(size=(2, embedding_model.frame_dim)))
        assert out.shape == (2, 8)

    def test_min_population_guard(self, fresh_model):
        """Pruning must never empty a level: reasoning needs a path."""
        model = fresh_model()
        model.freeze_for_deployment()
        adapter = make_adapter(model, min_nodes_per_level=100)
        kg = model.kgs[0]
        victim = kg.nodes_at_level(1)[0]
        assert adapter.replace_node(0, victim.node_id) is None
        assert kg.has_concept(victim.text)

    def test_events_accumulate(self, fresh_model):
        model = fresh_model()
        model.freeze_for_deployment()
        adapter = make_adapter(model)
        kg = model.kgs[0]
        for level in (1, 2):
            victim = kg.nodes_at_level(level)[0]
            adapter.replace_node(0, victim.node_id)
        assert adapter.pruned_count == 2

    def test_new_tokens_from_bank_distribution(self, fresh_model):
        """Replacement embeddings come from the vocabulary manifold."""
        model = fresh_model()
        model.freeze_for_deployment()
        adapter = make_adapter(model)
        kg = model.kgs[0]
        victim = kg.nodes_at_level(2)[0]
        event = adapter.replace_node(0, victim.node_id)
        new_node = kg.node(event.created_node_id)
        norms = np.linalg.norm(new_node.token_embeddings, axis=1)
        # Bank rows are unit norm; noise 0.1 keeps norms near 1.
        assert np.all((norms > 0.5) & (norms < 2.0))
