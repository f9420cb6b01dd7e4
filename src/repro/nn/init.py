"""Parameter initializers.

All initializers take an explicit ``numpy.random.Generator`` so that every
model in the reproduction is fully deterministic given a seed — a requirement
for the paper's edge-deployment story, where the cloud-trained model and the
edge copy must be bit-identical at deployment time.
"""

from __future__ import annotations

import numpy as np

__all__ = ["xavier_uniform", "normal", "zeros", "ones"]


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: tuple[int, ...] | None = None) -> np.ndarray:
    """Glorot/Xavier uniform initialization."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    shape = shape or (fan_in, fan_out)
    return rng.uniform(-limit, limit, size=shape)


def normal(rng: np.random.Generator, shape: tuple[int, ...], std: float = 0.02) -> np.ndarray:
    """Plain normal initialization (transformer convention, std=0.02)."""
    return rng.normal(0.0, std, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape)


def ones(shape: tuple[int, ...]) -> np.ndarray:
    return np.ones(shape)
