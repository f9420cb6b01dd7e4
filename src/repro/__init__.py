"""repro: Continuous GNN-based anomaly detection on edge via adaptive KG learning.

A from-scratch Python reproduction of the DATE 2025 paper (Yun et al.,
arXiv:2411.09072): MissionGNN-style hierarchical GNN reasoning over
LLM-generated mission-specific knowledge graphs, plus the paper's core
contribution — continuous knowledge-graph adaptive learning on edge devices
(score monitoring, token-embedding-only updates, node pruning/creation, and
interpretable KG retrieval).

Quickstart
----------
>>> from repro.api import Pipeline, ReproConfig
>>> cfg = ReproConfig().override("experiment.train_steps", 50)
>>> pipe = Pipeline.from_config(cfg)
>>> model = pipe.train("Stealing")                # cloud-side, registry-cached
>>> windows, labels = pipe.eval_windows("Stealing")
>>> scores = model.anomaly_scores(windows)        # deployed inference
>>> deployment = pipe.deploy("Stealing")          # edge runtime (adaptive)
>>> log = deployment.ingest(windows)              # may trigger KG adaptation

``repro.api`` is the stable public surface; ``Deployment.save``/``load``
checkpoint the full edge runtime (weights, BN statistics, KGs, monitor
state) to a single JSON artifact.  The CLI mirrors it:
``python -m repro.cli serve --mission Stealing --set adaptation.monitor.window=72``.

Subpackages
-----------
``repro.api``         public deployment facade (Pipeline/Deployment/ReproConfig)
``repro.runtime``     unified serving core (ServingEngine over a fleet)
``repro.metrics``     serving metrics primitives (counters/gauges/histograms)
``repro.obs``         end-to-end request tracing (TraceRecorder/spans/exports)
``repro.serving``     multi-stream fleet serving (DeploymentFleet/MicroBatcher)
``repro.gateway``     async TCP serving gateway (GatewayServer/GatewayClient)
``repro.wal``         durability (write-ahead log/snapshots/crash recovery)
``repro.errors``      typed exception hierarchy shared across the stack
``repro.nn``          numpy autodiff + layers (PyTorch substitute)
``repro.concepts``    surveillance concept ontology (ConceptNet-lite)
``repro.embedding``   BPE tokenizer + joint text/image space (ImageBind sub)
``repro.llm``         SyntheticLLM oracle (GPT-4 substitute)
``repro.kg``          hierarchical reasoning KGs + generation framework
``repro.gnn``         hierarchical GNN decision model (MissionGNN)
``repro.adaptation``  continuous KG adaptive learning (the contribution)
``repro.data``        synthetic UCF-Crime + trend-shift streams
``repro.edge``        edge/cloud cost models (Table I)
``repro.eval``        metrics + experiment harnesses (Fig. 5/6, Table I)
"""

__version__ = "1.25.0"

__all__ = [
    "api", "runtime", "metrics", "obs", "serving", "gateway", "wal",
    "errors", "nn", "concepts", "embedding", "llm", "kg", "gnn",
    "adaptation", "data", "edge", "eval", "utils",
]
