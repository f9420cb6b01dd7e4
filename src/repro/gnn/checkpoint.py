"""Deployment checkpoints: one artifact for the whole edge deployment.

``state_dict`` covers trainable parameters only; a real deployment must
also ship batch-normalization running statistics and the mission KGs
(structure + token embeddings).  This module bundles everything the edge
device needs into a single JSON file, so "deploy" is one save on the cloud
side and one load on the edge side — and, symmetrically, an adapted edge
deployment can be checkpointed and inspected offline.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from ..embedding.joint_space import JointEmbeddingModel
from ..kg.serialization import kg_from_dict, kg_to_dict
from ..utils.serialization import atomic_write_json
from ..utils.serialization import decode_array as _decode
from ..utils.serialization import encode_array as _encode
from .pipeline import MissionGNNConfig, MissionGNNModel

__all__ = ["save_deployment", "load_deployment", "deployment_to_dict",
           "deployment_from_dict"]

_FORMAT_VERSION = 1


def deployment_to_dict(model: MissionGNNModel, weights: bool = True) -> dict:
    """Serialize a trained model + its KGs to a JSON-safe dict.

    ``state_dict`` carries the batch-norm running statistics natively (they
    are registered buffers), so ``weights`` is the complete model state
    (``weights=False``: left to a caller that stores shared weights once).
    """
    payload = {"format_version": _FORMAT_VERSION, "config": asdict(model.config)}
    if weights:
        payload["weights"] = {name: _encode(value)
                              for name, value in model.state_dict().items()}
    payload["kgs"] = [kg_to_dict(kg) for kg in model.kgs]
    return payload


def deployment_from_dict(payload: dict, embedding_model: JointEmbeddingModel,
                         base: MissionGNNModel | None = None) -> MissionGNNModel:
    """Rebuild a deployable model from :func:`deployment_to_dict` output.

    The joint embedding model is frozen and shared infrastructure (the
    paper ships it once, not per deployment), so it is passed in rather
    than serialized.  With ``base`` the payload's KGs come back as a
    :meth:`~MissionGNNModel.sharer` of that model; no weights are read.
    """
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported deployment format version: {version}")
    if base is not None:
        return base.sharer([kg_from_dict(entry) for entry in payload["kgs"]])
    config = MissionGNNConfig(**payload["config"])
    kgs = [kg_from_dict(entry) for entry in payload["kgs"]]
    model = MissionGNNModel(kgs, embedding_model, config)
    model.load_state_dict({name: _decode(value)
                           for name, value in payload["weights"].items()})
    # Older artifacts shipped BN statistics in a side section instead of the
    # state dict; apply it when present so they stay loadable.
    for kg_index, reasoner in enumerate(model.reasoners):
        for layer_index, layer in enumerate(reasoner.gnn.layers):
            stats = payload.get("norm_stats", {}).get(
                f"kg{kg_index}.layer{layer_index}")
            if stats is not None:
                layer.norm.running_mean = _decode(stats["running_mean"])
                layer.norm.running_var = _decode(stats["running_var"])
    model.eval()
    return model


def save_deployment(model: MissionGNNModel, path: str | Path) -> None:
    """Write the full deployment artifact to ``path``."""
    atomic_write_json(path, deployment_to_dict(model))


def load_deployment(path: str | Path,
                    embedding_model: JointEmbeddingModel) -> MissionGNNModel:
    """Load a deployment artifact written by :func:`save_deployment`."""
    return deployment_from_dict(json.loads(Path(path).read_text()),
                                embedding_model)
