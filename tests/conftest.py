"""Shared fixtures.

Heavy objects (BPE training, ridge fit, model training) are session-scoped;
tests must treat them as read-only.  Tests that mutate models build their
own instances from the cheap factories below.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Pipeline, ReproConfig
from repro.concepts import build_default_ontology
from repro.data import FrameGenerator
from repro.embedding import build_default_embedding_model
from repro.eval import ExperimentConfig
from repro.gnn import MissionGNNConfig, MissionGNNModel
from repro.kg import KGGenerationConfig, KGGenerator
from repro.llm import SyntheticLLM


@pytest.fixture(scope="session")
def ontology():
    return build_default_ontology()


@pytest.fixture(scope="session")
def embedding_model():
    return build_default_embedding_model(seed=7)


@pytest.fixture(scope="session")
def frame_generator(embedding_model):
    return FrameGenerator(embedding_model, seed=5)


@pytest.fixture(scope="session")
def stealing_kg_template(ontology, embedding_model):
    """A generated Stealing KG with tokens; treat as read-only."""
    oracle = SyntheticLLM(ontology, seed=3)
    kg, report = KGGenerator(oracle, KGGenerationConfig(depth=3)).generate("Stealing")
    kg.initialize_tokens(embedding_model)
    return kg


@pytest.fixture()
def fresh_kg(ontology, embedding_model):
    """Factory for a mutable mission KG."""
    def make(mission: str = "Stealing", depth: int = 3, seed: int = 3):
        oracle = SyntheticLLM(ontology, seed=seed)
        kg, _ = KGGenerator(oracle, KGGenerationConfig(depth=depth)).generate(mission)
        kg.initialize_tokens(embedding_model)
        return kg
    return make


@pytest.fixture()
def fresh_model(fresh_kg, embedding_model):
    """Factory for an untrained MissionGNN model over a fresh KG."""
    def make(mission: str = "Stealing", window: int = 4, seed: int = 7):
        kg = fresh_kg(mission)
        return MissionGNNModel([kg], embedding_model,
                               MissionGNNConfig(temporal_window=window, seed=seed))
    return make


@pytest.fixture(scope="session")
def trained_pipeline():
    """A small but genuinely trained pipeline (shared, read-only)."""
    pipeline = Pipeline(ReproConfig(experiment=ExperimentConfig(
        train_steps=300, train_batch=32, dataset_scale=0.15,
        frames_per_video=40, eval_normal_windows=24, eval_anomaly_windows=12)))
    pipeline.train("Stealing")  # warm the registry
    return pipeline


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
