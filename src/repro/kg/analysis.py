"""Knowledge-graph analysis: statistics and adaptation diffing.

Operational tooling around the reasoning KG:

* :func:`kg_statistics` — structural metrics (level widths, density,
  reachability) used to sanity-check generated KGs and to monitor
  structural drift during deployment;
* :class:`KGDiff` — compares two snapshots of a KG (e.g. at deployment
  time vs after a month of adaptation): which nodes were pruned/created
  and how far each surviving node's token embeddings moved.  This is the
  quantitative companion of the paper's qualitative Fig. 6.

networkx (the ``analysis`` extra) is used for the graph-theoretic measures
and imported only inside :func:`to_networkx` and :func:`kg_statistics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..errors import MissingExtraError
from .graph import ReasoningKG

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["kg_statistics", "KGDiff", "diff_kgs", "to_networkx"]


def to_networkx(kg: ReasoningKG) -> nx.DiGraph:
    """Convert a reasoning KG to a networkx DiGraph (node attrs: text, level)."""
    try:
        import networkx as nx
    except ImportError as exc:
        raise MissingExtraError(
            "KG graph analysis (to_networkx, kg_statistics) needs networkx: "
            "pip install 'repro[analysis]'") from exc
    graph = nx.DiGraph()
    for node in kg.nodes():
        graph.add_node(node.node_id, text=node.text, level=node.level)
    graph.add_edges_from(kg.edges())
    return graph


def kg_statistics(kg: ReasoningKG) -> dict:
    """Structural metrics of a reasoning KG.

    Returns level widths, edge density per level transition, the fraction
    of concept nodes on a sensor->embedding path, and the mean fan-in.
    """
    graph = to_networkx(kg)  # raises MissingExtraError without the extra
    import networkx as nx
    stats: dict = {
        "num_nodes": kg.num_nodes,
        "num_edges": kg.num_edges,
        "depth": kg.depth,
        "level_widths": {level: len(kg.nodes_at_level(level))
                         for level in range(kg.depth + 2)},
    }
    if kg.sensor_id is not None and kg.embedding_id is not None:
        reachable_from_sensor = nx.descendants(graph, kg.sensor_id)
        reaching_embedding = nx.ancestors(graph, kg.embedding_id)
        on_path = reachable_from_sensor & reaching_embedding
        concepts = [n.node_id for n in kg.concept_nodes()]
        stats["on_path_fraction"] = (
            len(on_path & set(concepts)) / len(concepts) if concepts else 0.0)
        stats["is_dag"] = nx.is_directed_acyclic_graph(graph)
        stats["num_reasoning_paths"] = sum(1 for _ in nx.all_simple_paths(
            graph, kg.sensor_id, kg.embedding_id))
    in_degrees = [kg.in_degree(n.node_id) for n in kg.concept_nodes()]
    stats["mean_fan_in"] = float(np.mean(in_degrees)) if in_degrees else 0.0
    return stats


@dataclass
class NodeDrift:
    """Token-embedding movement of one surviving node between snapshots."""

    node_id: int
    text: str
    level: int
    l2_distance: float
    cosine_to_original: float


@dataclass
class KGDiff:
    """Structural + embedding changes between two KG snapshots."""

    pruned: list[str] = field(default_factory=list)
    created: list[str] = field(default_factory=list)
    drifts: list[NodeDrift] = field(default_factory=list)
    edges_removed: int = 0
    edges_added: int = 0

    @property
    def max_drift(self) -> NodeDrift | None:
        return max(self.drifts, key=lambda d: d.l2_distance, default=None)

    @property
    def mean_drift(self) -> float:
        return float(np.mean([d.l2_distance for d in self.drifts])) \
            if self.drifts else 0.0

    def summary(self) -> str:
        lines = [
            f"pruned nodes:   {len(self.pruned)} {self.pruned}",
            f"created nodes:  {len(self.created)} {self.created}",
            f"edges removed/added: {self.edges_removed}/{self.edges_added}",
            f"mean token drift (L2): {self.mean_drift:.4f}",
        ]
        top = self.max_drift
        if top is not None:
            lines.append(f"most-drifted node: {top.text!r} "
                         f"(L{top.level}, L2={top.l2_distance:.4f}, "
                         f"cos-to-original={top.cosine_to_original:.3f})")
        return "\n".join(lines)


def diff_kgs(before: ReasoningKG, after: ReasoningKG) -> KGDiff:
    """Diff two snapshots of the *same* deployment's KG."""
    before_ids = {n.node_id: n for n in before.concept_nodes()}
    after_ids = {n.node_id: n for n in after.concept_nodes()}
    diff = KGDiff(
        pruned=[before_ids[i].text for i in sorted(set(before_ids) - set(after_ids))],
        created=[after_ids[i].text for i in sorted(set(after_ids) - set(before_ids))],
    )
    before_edges = set(before.edges())
    after_edges = set(after.edges())
    diff.edges_removed = len(before_edges - after_edges)
    diff.edges_added = len(after_edges - before_edges)

    for node_id in sorted(set(before_ids) & set(after_ids)):
        old = before_ids[node_id].token_embeddings
        new = after_ids[node_id].token_embeddings
        if old is None or new is None or old.shape != new.shape:
            continue
        l2 = float(np.linalg.norm(new - old))
        denom = max(np.linalg.norm(old.mean(axis=0))
                    * np.linalg.norm(new.mean(axis=0)), 1e-12)
        cosine = float(old.mean(axis=0) @ new.mean(axis=0) / denom)
        diff.drifts.append(NodeDrift(
            node_id=node_id, text=before_ids[node_id].text,
            level=before_ids[node_id].level,
            l2_distance=l2, cosine_to_original=cosine))
    return diff
