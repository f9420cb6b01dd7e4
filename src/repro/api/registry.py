"""Persistent registry of trained deployment models.

The cloud side of the paper trains one decision model per mission; the
registry is where those artifacts live:

* keyed by mission + a fingerprint of every config knob that affects
  training, so changing the config never serves a stale model;
* in-memory by default, with optional on-disk persistence (``root=...``)
  so a restarted process — or a separate serving process — reuses the
  cloud training instead of repeating it;
* artifacts are the standard deployment checkpoint format
  (:func:`repro.gnn.save_deployment`), so every entry is also a valid
  edge deployment file; its ``.bin`` suffix lets a directory shared with
  builds that wrote base64 ``.json`` artifacts hold both;
* on disk, ``<key>.config.json`` beside each artifact is the config its
  fingerprint hashes, so a directory says what each model was trained
  under;
* on disk it also keeps the fitted joint embedding model,
  ``embedding-<fingerprint>.emb``, which later processes load instead of
  fitting it under their own BLAS threads.  It is no model: ``keys()``
  and ``len()`` leave it out; ``clear()`` deletes it too.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Callable

from ..embedding.joint_space import JointEmbeddingModel
from ..gnn.checkpoint import deployment_from_dict, deployment_to_dict
from ..gnn.pipeline import MissionGNNModel
from ..utils import binframe
from ..utils.serialization import atomic_write_text

__all__ = ["ModelRegistry"]


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_-]+", "_", text) or "model"


# Registry artifacts are ``<mission slug>-<16 hex digits>.bin`` (and
# ``.emb``); file operations match only this shape so a registry pointed
# at a shared directory never counts — or deletes — unrelated files.
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
        self._entries: dict[str, bytes] = {}  # in-memory bodies (root=None)
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
        return self.root / f"{key}.bin"

    # ------------------------------------------------------------------
    def contains(self, mission: str, fingerprint: str) -> bool:
        key = self.key(mission, fingerprint)
        if key in self._entries:
            return True
        return self.root is not None and self._path(key).exists()

    def load(self, mission: str, fingerprint: str,
             embedding_model: JointEmbeddingModel) -> MissionGNNModel | None:
        """Rebuild the stored model, or ``None`` on a registry miss.  A
        disk registry reads the file each time and keeps nothing of it."""
        key = self.key(mission, fingerprint)
        body = self._entries.get(key)
        if body is not None:
            payload = binframe.decode_payload(body)[0]  # fresh copies
        elif self.root is not None and self._path(key).exists():
            payload = binframe.read_file(self._path(key))
        else:
            self.misses += 1
            return None
        self.hits += 1
        return deployment_from_dict(payload, embedding_model)

    def store(self, mission: str, fingerprint: str, model: MissionGNNModel,
              config: dict) -> str:
        """Checkpoint ``model`` under the mission/config key (``config``:
        what ``fingerprint`` hashes); returns the key."""
        key = self.key(mission, fingerprint)
        payload = deployment_to_dict(model)
        if self.root is None:
            self._entries[key] = binframe.encode_payload(payload)
        else:
            binframe.write_file(self._path(key), payload)
            atomic_write_text(self.root / f"{key}.config.json", json.dumps(
                config, indent=1, sort_keys=True, default=str))
        return key

    def embedding(self, fingerprint: str,
                  build: Callable[[], JointEmbeddingModel]) -> JointEmbeddingModel:
        """The model stored under ``fingerprint``, or ``build()``'s, stored
        (in memory: built each call, the caller keeps it)."""
        if self.root is None:
            return build()
        path = self.root / f"embedding-{fingerprint}.emb"
        if path.exists():
            return JointEmbeddingModel.from_dict(binframe.read_file(path))
        model = build()
        binframe.write_file(path, model.to_dict())
        return model

    # ------------------------------------------------------------------
    def keys(self) -> list[str]:
        known = set(self._entries)
        if self.root is not None:
            known.update(p.stem for p in self.root.glob("*.bin")
                         if _KEY_RE.match(p.stem))
        return sorted(known)

    def clear(self) -> None:
        self._entries.clear()
        if self.root is not None:
            for path in self.root.glob("*.bin"):
                if _KEY_RE.match(path.stem):
                    path.unlink()
                    (self.root / f"{path.stem}.config.json").unlink(
                        missing_ok=True)
            for path in self.root.glob("embedding-*.emb"):
                if _KEY_RE.match(path.stem):
                    path.unlink()

    def __len__(self) -> int:
        return len(self.keys())
