"""Structural KG adaptation: node pruning and creation (paper Fig. 4 B/C).

When the convergence tracker flags a node as diverging, "the node and its
connected edges are removed from the KG.  Subsequently, we perform a node
creation procedure where a new node with a random token embedding is
created at the same level as the pruned node, along with random edge
connections."

``StructuralAdapter`` applies that prune-then-create sequence to a live
:class:`~repro.gnn.model.KGReasoner`, recompiles the graph spec, returns
each event to its caller and counts them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gnn.model import KGReasoner

__all__ = ["StructuralEvent", "StructuralAdapter"]

#: Random tokens a created node gets (drawn near the vocabulary bank).
TOKENS_PER_NEW_NODE = 2
#: Chance that a created node is wired to each node of the levels beside its
#: own (at least one edge per side either way).
EDGE_PROBABILITY = 0.5


@dataclass(frozen=True)
class StructuralEvent:
    """One prune+create cycle."""

    kg_index: int
    pruned_node_id: int
    pruned_text: str
    created_node_id: int
    level: int
    step: int


class StructuralAdapter:
    """Prunes diverging nodes and creates random replacements."""

    def __init__(self, reasoners: list[KGReasoner], token_dim: int,
                 rng: np.random.Generator,
                 min_nodes_per_level: int = 1,
                 token_bank: np.ndarray | None = None):
        self.reasoners = reasoners
        self.token_dim = token_dim
        self.rng = rng
        self.min_nodes_per_level = min_nodes_per_level
        self.token_bank = token_bank
        self.pruned_count = 0  # prune+create cycles applied

    def replace_node(self, kg_index: int, node_id: int,
                     step: int = -1) -> StructuralEvent | None:
        """Prune ``node_id`` and create a random node at the same level.

        Returns None (no-op) when pruning would leave the level below the
        configured minimum population — the KG must keep a reasoning path.
        """
        reasoner = self.reasoners[kg_index]
        kg = reasoner.kg
        node = kg.node(node_id)
        level = node.level
        if len(kg.nodes_at_level(level)) <= self.min_nodes_per_level:
            return None
        pruned = kg.prune_node(node_id)
        created_id = kg.create_node(
            level=level, token_dim=self.token_dim,
            n_tokens=TOKENS_PER_NEW_NODE, rng=self.rng,
            edge_probability=EDGE_PROBABILITY,
            token_bank=self.token_bank)
        kg.validate()
        reasoner.refresh_structure()
        event = StructuralEvent(kg_index=kg_index, pruned_node_id=node_id,
                                pruned_text=pruned.text,
                                created_node_id=created_id, level=level,
                                step=step)
        self.pruned_count += 1
        return event
