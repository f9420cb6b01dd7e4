"""Reasoning-KG persistence.

Deployment (paper Fig. 2C) ships the cloud-generated KG — structure plus
token embeddings — to the edge device.  A KG file is one binary body
(:mod:`repro.utils.binframe`): the structure as JSON meta, the token
embeddings as raw float64 buffers, so a deployment is one artifact.
The dict form holds the node arrays themselves; a rebuilt KG adopts
them (token embeddings are only ever rebound, never written in place).
"""

from __future__ import annotations

from pathlib import Path

from ..utils import binframe
from .graph import EMBEDDING_TEXT, SENSOR_TEXT, KGNode, ReasoningKG

__all__ = ["save_kg", "load_kg", "kg_to_dict", "kg_from_dict"]


def kg_to_dict(kg: ReasoningKG) -> dict:
    """Convert a KG (including its token-embedding arrays) to a dict."""
    nodes = []
    for node in kg.nodes():
        entry: dict = {"id": node.node_id, "text": node.text, "level": node.level}
        if node.token_ids is not None:
            entry["token_ids"] = list(node.token_ids)
        if node.token_embeddings is not None:
            entry["token_embeddings"] = node.token_embeddings
        nodes.append(entry)
    return {
        "mission": kg.mission,
        "depth": kg.depth,
        "sensor_id": kg.sensor_id,
        "embedding_id": kg.embedding_id,
        "nodes": nodes,
        "edges": [list(e) for e in kg.edges()],
    }


def kg_from_dict(payload: dict) -> ReasoningKG:
    """Rebuild a KG from :func:`kg_to_dict` output; validates invariants."""
    kg = ReasoningKG(mission=payload["mission"], depth=int(payload["depth"]))
    max_id = -1
    for entry in payload["nodes"]:
        node = KGNode(node_id=int(entry["id"]), text=entry["text"],
                      level=int(entry["level"]))
        if "token_ids" in entry:
            node.token_ids = [int(i) for i in entry["token_ids"]]
        if "token_embeddings" in entry:
            node.token_embeddings = entry["token_embeddings"]
        kg._nodes[node.node_id] = node
        max_id = max(max_id, node.node_id)
        if node.text == SENSOR_TEXT:
            kg.sensor_id = node.node_id
        elif node.text == EMBEDDING_TEXT:
            kg.embedding_id = node.node_id
    kg._next_id = max_id + 1
    for source, target in payload["edges"]:
        kg._edges.add((int(source), int(target)))
    kg.validate()
    return kg


def save_kg(kg: ReasoningKG, path: str | Path) -> None:
    binframe.write_file(path, kg_to_dict(kg))


def load_kg(path: str | Path) -> ReasoningKG:
    return kg_from_dict(binframe.read_file(path))
