"""Micro-benchmarks of the reproduction's own substrate.

These time the hot paths a deployment would care about: per-window
inference, one adaptation phase, KG generation, tokenizer throughput, and
interpretable retrieval.  pytest-benchmark reports the timings; the asserts
only sanity-check outputs so a regression in correctness fails loudly.
"""

import numpy as np
import pytest

from repro.adaptation import InterpretableKGRetrieval, TokenEmbeddingUpdater
from repro.concepts import build_default_ontology
from repro.eval import roc_auc
from repro.kg import KGGenerationConfig, KGGenerator
from repro.llm import SyntheticLLM


@pytest.mark.benchmark(group="micro")
def test_bench_inference_per_batch(benchmark, pipeline):
    model = pipeline.train("Stealing")
    windows, _ = pipeline.eval_windows("Stealing")
    batch = windows[:16]
    scores = benchmark(model.anomaly_scores, batch)
    assert scores.shape == (16,)


@pytest.mark.benchmark(group="micro")
def test_bench_adaptation_step(benchmark, pipeline):
    model = pipeline.train("Stealing")
    model.freeze_for_deployment()
    updater = TokenEmbeddingUpdater(model)
    windows, labels = pipeline.eval_windows("Stealing")
    batch, pseudo = windows[:20], labels[:20]

    result = benchmark(updater.update, batch, pseudo)
    assert np.isfinite(result.loss)


@pytest.mark.benchmark(group="micro")
def test_bench_kg_generation(benchmark):
    ontology = build_default_ontology()

    def generate():
        oracle = SyntheticLLM(ontology, seed=3)
        kg, _ = KGGenerator(oracle, KGGenerationConfig(depth=3)).generate("Stealing")
        return kg

    kg = benchmark(generate)
    assert kg.num_nodes > 5


@pytest.mark.benchmark(group="micro")
def test_bench_tokenizer_encode(benchmark, pipeline):
    tokenizer = pipeline.embedding_model.tokenizer
    text = ("surveillance captured a masked person pointing weapon at the "
            "register while a crowd of shoppers fled the scene") * 4
    ids = benchmark(tokenizer.encode, text)
    assert len(ids) > 20


@pytest.mark.benchmark(group="micro")
def test_bench_interpretable_retrieval(benchmark, pipeline):
    model = pipeline.train("Stealing")
    retrieval = InterpretableKGRetrieval(pipeline.embedding_model.token_table)
    results = benchmark(retrieval.retrieve_kg, model.kgs[0])
    assert results


@pytest.mark.benchmark(group="micro")
def test_bench_roc_auc(benchmark):
    rng = np.random.default_rng(0)
    scores = rng.random(5000)
    labels = rng.integers(0, 2, 5000)
    value = benchmark(roc_auc, scores, labels)
    assert 0.4 < value < 0.6
