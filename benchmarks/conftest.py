"""Shared benchmark fixtures.

One figure-quality pipeline is built per session; all paper-artifact
benches (Fig. 5, Fig. 6, Table I) and ablations reuse its model registry,
so the expensive cloud-side training happens once per mission class.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import Pipeline, ReproConfig


@pytest.fixture(scope="session")
def pipeline():
    return Pipeline.from_config(ReproConfig())


def with_adaptation(pipeline, adaptation) -> Pipeline:
    """A pipeline serving with ``adaptation`` over ``pipeline``'s trained models."""
    return Pipeline(dataclasses.replace(pipeline.config, adaptation=adaptation),
                    registry=pipeline.registry)


def emit(title: str, body: str) -> None:
    """Print a paper-artifact reproduction block to the bench output."""
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")
