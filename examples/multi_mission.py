"""Multi-mission deployment demo: several anomaly types, one edge device.

The paper's decision model supports n anomaly types — one reasoning KG per
type, concatenated reasoning embeddings, an (n+1)-way decision head with
per-type posteriors p_{i|A}.  This example trains a three-mission model
(Stealing, Explosion, Arrest — one per semantic cluster), evaluates
detection per class and type classification among anomalies, then
checkpoints the whole runtime through :class:`repro.api.Deployment` and
reloads it.

Run:  python examples/multi_mission.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.api import Deployment, Pipeline, ReproConfig
from repro.eval.multimission import MultiMissionExperiment


def main() -> None:
    missions = ["Stealing", "Explosion", "Arrest"]
    print(f"[1/3] Training one model over {len(missions)} mission KGs ...")
    pipeline = Pipeline.from_config(ReproConfig())
    experiment = MultiMissionExperiment(pipeline, missions)
    result = experiment.run()
    print()
    print(result.summary())
    print("\nconfusion matrix (rows = true type, cols = predicted):")
    header = "        " + "  ".join(f"{m[:8]:>8}" for m in missions)
    print(header)
    for mission, row in zip(missions, result.type_confusion):
        print(f"{mission[:8]:>8}" + "  ".join(f"{v:>8d}" for v in row))

    print("\n[2/3] Checkpointing the deployment to one artifact ...")
    model = experiment.build_model()  # rebuild; run() trains its own copy
    deployment = Deployment(model, mission="+".join(missions), adaptive=False)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "multi_mission_deployment.bin"
        deployment.save(path)
        size_kb = path.stat().st_size / 1024
        print(f"      wrote {path.name} ({size_kb:.0f} KiB: weights, "
              f"norm stats, {len(missions)} KGs)")

        print("[3/3] Reloading on the 'edge' and verifying bit-identical scores ...")
        loaded = Deployment.load(path, pipeline.embedding_model)
        windows, _ = pipeline.eval_windows("Stealing")
        original = deployment.scores(windows[:8])
        restored = loaded.scores(windows[:8])
        assert np.allclose(original, restored, atol=1e-12)
        print("      scores match exactly.")


if __name__ == "__main__":
    main()
