"""Edge-vs-cloud maintenance comparison (the paper's Table I scenario).

Simulates one month in which the anomaly trend alternates between Stealing
and Robbery four times.  The baseline regenerates its KG in the cloud at
every change; the proposed method adapts on the edge.  Prints the full
Table I with measured AUC rows and FLOPs counted from the actual model.

Run:  python examples/edge_vs_cloud.py
"""

from repro.api import Pipeline, ReproConfig
from repro.edge import EfficiencyComparison
from repro.eval import EfficiencyExperiment


def main() -> None:
    print("[1/2] Simulating one month of alternating anomaly trends ...")
    pipeline = Pipeline.from_config(ReproConfig())
    experiment = EfficiencyExperiment(
        pipeline, class_a="Stealing", class_b="Robbery",
        alternations=4, steps_per_phase=10)
    measured = experiment.run()
    print(f"      baseline per-phase AUC: "
          f"{[round(a, 3) for a in measured.phase_aucs_baseline]}")
    print(f"      proposed per-phase AUC: "
          f"{[round(a, 3) for a in measured.phase_aucs_proposed]}")

    print("[2/2] Building Table I ...\n")
    comparison = EfficiencyComparison(
        model=pipeline.train("Stealing"),
        auc_baseline=measured.auc_baseline,
        auc_proposed=measured.auc_proposed)
    print(comparison.format_table())
    print(f"\nKG memory footprint (measured): {comparison.kg_memory_gb():.6f} GB")
    print(f"Edge adaptation energy (measured): "
          f"{comparison.edge_energy_per_update_joules:.2f} J/update")


if __name__ == "__main__":
    main()
