"""Table I — detailed computational and performance comparison between the
cloud-based-KG-updates baseline and the proposed edge-based KG adaptation.

Measurement scenario (paper Section IV-D): the anomaly trend alternates
between Stealing and Robbery four times per month.  The baseline generates
a new KG (GPT-4, cloud) at every change; the proposed method adapts its KG
token embeddings on the edge device.

Cloud-side constants follow the paper (1e15 FLOPs and 200 GB per GPT-4 KG
generation); edge-side FLOPs/energy are *counted from our actual model
shapes*; the AUC rows are measured from the simulation.

Expected shape (paper): zero monthly cloud cost for the proposed method,
~1e9-FLOPs-scale daily edge cost, and a proposed-method AUC within a few
points of the baseline (paper: 0.91 vs 0.93).
"""

import pytest

from repro.edge import EfficiencyComparison
from repro.eval import EfficiencyExperiment

from .conftest import emit


@pytest.mark.benchmark(group="table1")
def test_table1_cloud_vs_edge(benchmark, pipeline):
    def run():
        experiment = EfficiencyExperiment(
            pipeline, class_a="Stealing", class_b="Robbery",
            alternations=4, steps_per_phase=10)
        measured = experiment.run()
        comparison = EfficiencyComparison(
            model=pipeline.train("Stealing"),
            auc_baseline=measured.auc_baseline,
            auc_proposed=measured.auc_proposed)
        return measured, comparison

    measured, comparison = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("Table I — baseline (cloud KG updates) vs proposed (edge adaptation)",
         comparison.format_table()
         + f"\n\nper-phase AUC baseline: "
           f"{[round(a, 3) for a in measured.phase_aucs_baseline]}"
         + f"\nper-phase AUC proposed: "
           f"{[round(a, 3) for a in measured.phase_aucs_proposed]}"
         + f"\nedge token updates over the month: {measured.edge_updates_proposed}")

    # Shape assertions against the paper's table:
    rows = {r.metric: r for r in comparison.rows()}
    # 1. The proposed method has zero recurring cloud costs.
    assert rows["Total GPT-4 Computational Cost (FLOPs/month)"].proposed == "0"
    assert rows["Network Bandwidth Usage for KG Updates (GB/month)"].proposed == "Zero"
    # 2. Edge adaptation cost is orders of magnitude below one KG generation.
    assert comparison.edge_flops_per_month < 1e12 < 4e15
    # 3. Detection quality: proposed lands within 0.15 AUC of the baseline
    #    (paper: 0.91 vs 0.93 — a small gap, not a collapse).
    assert measured.auc_proposed > measured.auc_baseline - 0.15
    assert measured.auc_baseline > 0.75
