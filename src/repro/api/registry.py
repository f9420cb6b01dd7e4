"""Persistent registry of trained deployment models.

The cloud side of the paper trains one decision model per mission; the
registry is where those artifacts live.  It replaces the old
``ExperimentContext._model_cache`` side dict with a first-class object:

* keyed by mission + a fingerprint of every config knob that affects
  training, so changing the config never serves a stale model;
* in-memory by default, with optional on-disk persistence (``root=...``)
  so a restarted process — or a separate serving process — reuses the
  cloud training instead of repeating it;
* artifacts are the standard deployment checkpoint format
  (:func:`repro.gnn.deployment_to_dict`), so every entry is also a valid
  edge deployment file.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from ..embedding.joint_space import JointEmbeddingModel
from ..gnn.checkpoint import deployment_from_dict, deployment_to_dict
from ..gnn.pipeline import MissionGNNModel
from ..utils.serialization import atomic_write_json

__all__ = ["ModelRegistry"]


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_-]+", "_", text) or "model"


# Registry artifacts are ``<mission slug>-<16 hex digits>.json``; file
# operations match only this shape so a registry pointed at a shared
# directory never counts — or deletes — unrelated JSON files.
_KEY_RE = re.compile(r".+-[0-9a-f]{16}\Z")


class ModelRegistry:
    """Stores trained models by ``(mission, config fingerprint)``.

    Loads always rebuild a *fresh* model instance from the stored
    artifact, so callers can freeze/adapt their copy without corrupting
    the registry.
    """

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self._entries: dict[str, dict] = {}
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    @staticmethod
    def fingerprint(config_dict: dict) -> str:
        """Deterministic digest of a (nested) config dict."""
        canonical = json.dumps(config_dict, sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def key(self, mission: str, fingerprint: str) -> str:
        return f"{_slug(mission)}-{fingerprint}"

    def _path(self, key: str) -> Path:
        assert self.root is not None
        return self.root / f"{key}.json"

    # ------------------------------------------------------------------
    def contains(self, mission: str, fingerprint: str) -> bool:
        key = self.key(mission, fingerprint)
        if key in self._entries:
            return True
        return self.root is not None and self._path(key).exists()

    def load(self, mission: str, fingerprint: str,
             embedding_model: JointEmbeddingModel) -> MissionGNNModel | None:
        """Rebuild the stored model, or ``None`` on a registry miss."""
        key = self.key(mission, fingerprint)
        payload = self._entries.get(key)
        if payload is None and self.root is not None and self._path(key).exists():
            payload = json.loads(self._path(key).read_text())
            self._entries[key] = payload
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return deployment_from_dict(payload, embedding_model)  # only reads it

    def store(self, mission: str, fingerprint: str,
              model: MissionGNNModel) -> str:
        """Checkpoint ``model`` under the mission/config key; returns the key."""
        key = self.key(mission, fingerprint)
        payload = deployment_to_dict(model)
        self._entries[key] = payload
        if self.root is not None:
            atomic_write_json(self._path(key), payload)
        return key

    # ------------------------------------------------------------------
    def keys(self) -> list[str]:
        known = set(self._entries)
        if self.root is not None:
            known.update(p.stem for p in self.root.glob("*.json")
                         if _KEY_RE.match(p.stem))
        return sorted(known)

    def clear(self) -> None:
        self._entries.clear()
        if self.root is not None:
            for path in self.root.glob("*.json"):
                if _KEY_RE.match(path.stem):
                    path.unlink()

    def __len__(self) -> int:
        return len(self.keys())
