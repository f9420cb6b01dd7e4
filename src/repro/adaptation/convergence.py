"""Per-node convergence tracking (paper Fig. 4: "Distance is Converging?").

After each token update the framework "computes the distance between the
old and updated token embeddings of a node using the L2 distance metric.
If the distance does not increase, we consider the node to be converging
towards a certain concept, and no action is taken.  However, if the
distance increases, indicating divergence, we initiate a node pruning
process."

The tracker compares each node's current update distance with its previous
one.  To avoid pruning on single noisy steps, divergence must persist for
``patience`` consecutive increases (with a relative ``tolerance``) before a
node is flagged — both knobs default to mild smoothing and are ablatable.
At most :data:`MAX_FLAGS_PER_STEP` nodes are flagged per update.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ConvergenceConfig", "NodeConvergenceTracker"]

NodeKey = tuple[int, int]  # (kg index, node id)

#: Nodes pruned at most per update: structural churn is rate-limited so
#: one bad step cannot gut the KG.
MAX_FLAGS_PER_STEP = 1


@dataclass
class ConvergenceConfig:
    """Divergence-detection knobs.

    ``patience=1`` with ``tolerance=0`` is the paper's literal rule (prune
    on any distance increase); the defaults require a small sustained
    increase, which keeps pruning meaningful under SGD noise.
    """

    patience: int = 4
    tolerance: float = 0.05
    min_updates: int = 6  # grace period before a node can be flagged
    min_distance: float = 0.02  # increases below this are numerical noise


class NodeConvergenceTracker:
    """Tracks per-node L2 update distances and flags diverging nodes."""

    def __init__(self, config: ConvergenceConfig | None = None):
        self.config = config or ConvergenceConfig()
        self._last_distance: dict[NodeKey, float] = {}
        self._increase_streak: dict[NodeKey, int] = {}
        self._updates_seen: dict[NodeKey, int] = {}

    def observe(self, node_distances: dict[NodeKey, float]) -> list[NodeKey]:
        """Record one step's distances; return the nodes flagged as diverging."""
        cfg = self.config
        flagged: list[NodeKey] = []
        for key, distance in node_distances.items():
            seen = self._updates_seen.get(key, 0) + 1
            self._updates_seen[key] = seen
            previous = self._last_distance.get(key)
            if (previous is not None
                    and distance > cfg.min_distance
                    and distance > previous * (1.0 + cfg.tolerance)):
                streak = self._increase_streak.get(key, 0) + 1
            else:
                streak = 0
            self._increase_streak[key] = streak
            self._last_distance[key] = distance
            if seen >= cfg.min_updates and streak >= cfg.patience:
                flagged.append(key)
        if len(flagged) > MAX_FLAGS_PER_STEP:
            # Prune only the most-diverging nodes this step.
            flagged.sort(key=lambda k: self._increase_streak.get(k, 0),
                         reverse=True)
            flagged = flagged[:MAX_FLAGS_PER_STEP]
        # Drop state for nodes that disappeared (pruned between steps).
        current = set(node_distances)
        for store in (self._last_distance, self._increase_streak,
                      self._updates_seen):
            for key in list(store):
                if key not in current:
                    del store[key]
        return flagged

    def forget(self, key: NodeKey) -> None:
        """Reset state for a pruned/replaced node."""
        self._last_distance.pop(key, None)
        self._increase_streak.pop(key, None)
        self._updates_seen.pop(key, None)
