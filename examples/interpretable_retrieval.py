"""Interpretable KG retrieval demo (the paper's Fig. 6 scenario).

Adapts a Stealing-mission KG through a shift to Robbery, then decodes the
learned token embeddings back to human-readable words.  Tracks the paper's
example node ("sneaky") and reports its movement toward the new anomaly's
concepts ("firearm"), plus the full retrieved KG.

Run:  python examples/interpretable_retrieval.py
"""

from repro.adaptation import InterpretableKGRetrieval
from repro.api import Pipeline, ReproConfig
from repro.data import TrendShiftConfig
from repro.eval import FIG6_ADAPTATION, RetrievalDriftExperiment, format_retrieval_drift


def main() -> None:
    print("[1/3] Training the Stealing-mission model ...")
    # Fig. 6 serves with its paper-tuned, more aggressive adaptation.
    pipeline = Pipeline.from_config(ReproConfig(adaptation=FIG6_ADAPTATION))

    print("[2/3] Running Stealing -> Robbery adaptation with drift tracking ...")
    experiment = RetrievalDriftExperiment(
        pipeline, initial_class="Stealing", shifted_class="Robbery",
        tracked_word="sneaky", target_word="firearm",
        stream_config=TrendShiftConfig(
            initial_class="Stealing", shifted_class="Robbery",
            steps_before_shift=6, steps_after_shift=24, windows_per_step=24,
            anomaly_fraction=0.3, window=8, seed=11))
    result = experiment.run()
    print()
    print(format_retrieval_drift(result))

    print("\n[3/3] For comparison, full interpretable retrieval of the "
          "cloud-trained KG before adaptation (Euclidean metric, the paper's choice):")
    model = pipeline.train("Stealing")  # a fresh registry copy
    retrieval = InterpretableKGRetrieval(pipeline.embedding_model.token_table,
                                         metric="euclidean", top_k=2)
    for node_result in retrieval.retrieve_kg(model.kgs[0]):
        words = ", ".join(node_result.top_words(per_token=1))
        print(f"  L{node_result.level} {node_result.original_text!r:28s} -> {words}")


if __name__ == "__main__":
    main()
