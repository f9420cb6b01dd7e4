"""Ablation — interpretable-retrieval similarity metric.

The paper tried dot product, cosine and Euclidean similarity for decoding
learned token embeddings back to words, and chose Euclidean.  We quantify
retrieval robustness per metric: perturb known token embeddings with
increasing noise and measure how often each metric still recovers the true
token (top-1 accuracy).

Expected: Euclidean at least matches cosine/dot (consistent with the
paper's choice); all metrics degrade as noise grows.
"""

import pytest

from repro.utils import derive_rng

from .conftest import emit

NOISE_LEVELS = (0.1, 0.3, 0.5, 0.8)
TRIALS = 300


def top1_accuracy(table, metric: str, noise: float, rng) -> float:
    hits = 0
    ids = rng.integers(2, table.vocab_size, size=TRIALS)  # skip specials
    for token_id in ids:
        query = table.vectors[token_id] + noise * rng.normal(size=table.dim)
        best = table.nearest_tokens(query, k=1, metric=metric,
                                    skip_special=True)[0][0]
        hits += int(best == token_id)
    return hits / TRIALS


@pytest.mark.benchmark(group="ablation-retrieval")
def test_ablation_retrieval_metrics(benchmark, pipeline):
    table = pipeline.embedding_model.token_table

    def run_all():
        rng = derive_rng(0, "retrieval-ablation")
        return {
            metric: [top1_accuracy(table, metric, noise, rng)
                     for noise in NOISE_LEVELS]
            for metric in ("euclidean", "cosine", "dot")
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    header = "noise:      " + "  ".join(f"{n:>5.1f}" for n in NOISE_LEVELS)
    lines = [header]
    for metric, accs in results.items():
        lines.append(f"{metric:>10}: " + "  ".join(f"{a:>5.2f}" for a in accs))
    emit("Ablation — retrieval similarity metric (top-1 token recovery)",
         "\n".join(lines))

    # Euclidean is at least competitive at every noise level (paper's pick).
    for i in range(len(NOISE_LEVELS)):
        assert results["euclidean"][i] >= results["dot"][i] - 0.05
    # All metrics degrade with noise.
    for accs in results.values():
        assert accs[0] >= accs[-1]
