"""Deployment checkpoints: one artifact for the whole edge deployment.

``state_dict`` covers trainable parameters only; a real deployment must
also ship batch-normalization running statistics and the mission KGs
(structure + token embeddings).  This module bundles everything the edge
device needs into a single file — one binary body whose arrays are raw
float64 (:mod:`repro.utils.binframe`) — so "deploy" is one save on the
cloud side and one load on the edge side, and, symmetrically, an adapted
edge deployment can be checkpointed and inspected offline.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

from ..embedding.joint_space import JointEmbeddingModel
from ..kg.serialization import kg_from_dict, kg_to_dict
from ..utils import binframe
from .pipeline import MissionGNNConfig, MissionGNNModel

__all__ = ["save_deployment", "load_deployment", "deployment_to_dict",
           "deployment_from_dict"]

_FORMAT_VERSION = 2  # arrays are raw float64 buffers, not base64 text


def deployment_to_dict(model: MissionGNNModel, weights: bool = True) -> dict:
    """Serialize a trained model + its KGs to a dict of arrays and JSON.

    ``state_dict`` carries the batch-norm running statistics natively (they
    are registered buffers), so ``weights`` is the complete model state
    (``weights=False``: left to a caller that stores shared weights once).
    """
    payload = {"format_version": _FORMAT_VERSION, "config": asdict(model.config)}
    if weights:
        payload["weights"] = model.state_dict()
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
    model.load_state_dict(payload["weights"])  # adopts the arrays
    model.eval()
    return model


def save_deployment(model: MissionGNNModel, path: str | Path) -> None:
    """Write the full deployment artifact to ``path``."""
    binframe.write_file(path, deployment_to_dict(model))


def load_deployment(path: str | Path,
                    embedding_model: JointEmbeddingModel) -> MissionGNNModel:
    """Load a deployment artifact written by :func:`save_deployment`."""
    return deployment_from_dict(binframe.read_file(path), embedding_model)
