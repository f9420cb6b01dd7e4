"""Shared utilities: deterministic RNG management, durable serialization."""

from .rng import derive_rng, seed_everything, stable_hash

__all__ = ["derive_rng", "seed_everything", "stable_hash"]
