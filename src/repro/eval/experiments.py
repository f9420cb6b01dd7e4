"""Experiment harnesses for every table and figure in the paper's evaluation.

* :class:`TrendShiftExperiment`  -> Fig. 5 (A: weak shift, B: strong shift)
* :class:`RetrievalDriftExperiment` -> Fig. 6 (interpretable drift)
* :class:`EfficiencyExperiment` -> Table I (cloud baseline vs edge adaptation)

Every harness takes a :class:`repro.api.Pipeline` and measures the served
path: its models are ``pipeline.deploy(mission)`` (adaptive) and
``pipeline.deploy(mission, adaptive=False)`` (static) deployments, driven
through ``Deployment.ingest`` and scored with ``Deployment.scores``.  A
harness's adaptation config is therefore its pipeline's
``config.adaptation``; a variant runs on its own pipeline that shares the
trained models, ``Pipeline(dataclasses.replace(config, adaptation=...),
registry=pipeline.registry)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..adaptation.controller import AdaptationConfig
from ..adaptation.monitor import MonitorConfig
from ..adaptation.retrieval import DriftTrajectory, InterpretableKGRetrieval
from ..adaptation.token_update import TokenUpdateConfig
from ..data.streams import TrendShiftConfig, TrendShiftStream
from .metrics import roc_auc

__all__ = [
    "ExperimentConfig",
    "FIG6_ADAPTATION",
    "TrendShiftExperiment",
    "TrendShiftResult",
    "RetrievalDriftExperiment",
    "RetrievalDriftResult",
    "EfficiencyExperiment",
    "EfficiencyResult",
]

#: Fig. 6's adaptation config.  The paper runs ~900 token-update
#: iterations for Fig. 6, so this qualitative experiment adapts more
#: aggressively and continuously (maintenance trickle on) than the Fig. 5
#: runs; ``repro fig6`` serves with it unless an ``adaptation.*`` override
#: is given.
FIG6_ADAPTATION = AdaptationConfig(
    monitor=MonitorConfig(window=72, lag=36, min_k=6, trigger_threshold=0.02),
    update=TokenUpdateConfig(learning_rate=0.08, inner_steps=4),
    adaptation_rounds=8)


@dataclass
class ExperimentConfig:
    """Data shaping; the seed, window and training budget's one owner."""

    seed: int = 7
    kg_depth: int = 3
    window: int = 8
    frames_per_video: int = 40
    dataset_scale: float = 0.15
    train_steps: int = 400
    train_batch: int = 32
    train_lr: float = 1e-3
    train_normal_videos: int = 20
    train_anomaly_videos: int = 8
    eval_normal_windows: int = 40
    eval_anomaly_windows: int = 20


# ----------------------------------------------------------------------
# Fig. 5: adaptation to anomaly trend shifts
# ----------------------------------------------------------------------
@dataclass
class TrendShiftResult:
    """Per-step AUC traces for one scenario."""

    initial_class: str
    shifted_class: str
    shift_strength: str
    shift_step: int
    steps: list[int] = field(default_factory=list)
    auc_adaptive: list[float] = field(default_factory=list)
    auc_static: list[float] = field(default_factory=list)
    pruned_nodes: int = 0
    token_updates: int = 0

    def category_means(self, categories: int = 4) -> dict[str, list[float]]:
        """Bucket post-shift steps into the paper's plot categories."""
        post = [i for i, s in enumerate(self.steps) if s >= self.shift_step]
        buckets = np.array_split(np.asarray(post), categories)
        return {
            "adaptive": [float(np.mean([self.auc_adaptive[i] for i in b]))
                         for b in buckets if len(b)],
            "static": [float(np.mean([self.auc_static[i] for i in b]))
                       for b in buckets if len(b)],
        }

    @property
    def final_gap(self) -> float:
        """Adaptive minus static AUC, averaged over the last quarter."""
        quarter = max(len(self.steps) // 4, 1)
        return (float(np.mean(self.auc_adaptive[-quarter:]))
                - float(np.mean(self.auc_static[-quarter:])))


class TrendShiftExperiment:
    """Reproduces one panel of Fig. 5.

    Feeds a trend-shift stream to an adaptive deployment of the initial
    class and, after every step, records the test AUC of it and of a
    static deployment against the currently-active anomaly class.
    """

    def __init__(self, pipeline, stream_config: TrendShiftConfig | None = None):
        self.pipeline = pipeline
        self.stream_config = stream_config or pipeline.stream().config

    def run(self) -> TrendShiftResult:
        pipe = self.pipeline
        scfg = self.stream_config
        result = TrendShiftResult(
            initial_class=scfg.initial_class,
            shifted_class=scfg.shifted_class,
            shift_strength=scfg.shift_strength,
            shift_step=scfg.steps_before_shift)

        eval_sets = {
            cls: pipe.eval_windows(cls)
            for cls in (scfg.initial_class, scfg.shifted_class)
        }

        adaptive = pipe.deploy(scfg.initial_class)
        static = pipe.deploy(scfg.initial_class, adaptive=False)
        for batch in TrendShiftStream(pipe.generator, scfg):
            adaptive.ingest(batch.windows)
            windows, labels = eval_sets[batch.active_class]
            result.steps.append(batch.step)
            result.auc_adaptive.append(
                roc_auc(adaptive.scores(windows), labels))
            result.auc_static.append(roc_auc(static.scores(windows), labels))
        result.pruned_nodes = adaptive.total_pruned
        result.token_updates = adaptive.update_count
        return result


# ----------------------------------------------------------------------
# Fig. 6: interpretable retrieval drift
# ----------------------------------------------------------------------
@dataclass
class RetrievalDriftResult:
    """Tracked-node drift between the initial and target concept words."""

    tracked_node_text: str
    trajectory: DriftTrajectory | None = None
    retrieved_words: dict[int, list[str]] = field(default_factory=dict)

    @property
    def net_drift(self) -> float:
        """Change in relative position (positive = moved toward the target)."""
        positions = self.trajectory.relative_position()
        return float(positions[-1] - positions[0]) if len(positions) >= 2 else 0.0


class RetrievalDriftExperiment:
    """Reproduces Fig. 6: a Stealing-KG node drifting toward Robbery concepts.

    Tracks the node whose initial text is ``tracked_word`` (default
    "sneaky", the example in the paper) through a Stealing -> Robbery
    adaptation run, recording token-space distances to the initial word and
    the target word ("firearm") plus the retrieved nearest words.
    """

    def __init__(self, pipeline,
                 initial_class: str = "Stealing", shifted_class: str = "Robbery",
                 tracked_word: str = "sneaky", target_word: str = "firearm",
                 stream_config: TrendShiftConfig | None = None,
                 metric: str = "euclidean"):
        self.pipeline = pipeline
        self.initial_class = initial_class
        self.shifted_class = shifted_class
        self.tracked_word = tracked_word
        self.target_word = target_word
        self.stream_config = stream_config or pipeline.stream(
            initial_class, shifted_class).config
        self.metric = metric

    def run(self) -> RetrievalDriftResult:
        pipe = self.pipeline
        deployment = pipe.deploy(self.initial_class)
        kg = deployment.model.kgs[0]
        tracked = next((n for n in kg.concept_nodes()
                        if n.text == self.tracked_word), None)
        if tracked is None:  # fall back to any level-1 node
            tracked = kg.nodes_at_level(1)[0]
        tracked_id = tracked.node_id

        table = pipe.embedding_model.token_table
        initial_vec = table.embed_text(tracked.text)
        target_vec = table.embed_text(self.target_word)

        result = RetrievalDriftResult(tracked_node_text=tracked.text)
        result.trajectory = DriftTrajectory(initial_word=tracked.text,
                                            target_word=self.target_word)
        retrieval = InterpretableKGRetrieval(table, metric=self.metric)

        def snapshot(iteration: int) -> None:
            node = kg.node(tracked_id) if tracked_id in [
                n.node_id for n in kg.concept_nodes()] else None
            if node is None or node.token_embeddings is None:
                return
            pooled = node.token_embeddings.mean(axis=0)
            result.trajectory.record(iteration, pooled, initial_vec, target_vec)
            hits = retrieval.retrieve_node(kg, tracked_id)
            result.retrieved_words[iteration] = hits.top_words(per_token=1)

        snapshot(0)
        for batch in TrendShiftStream(pipe.generator, self.stream_config):
            deployment.ingest(batch.windows)
            snapshot(deployment.update_count)
        return result


# ----------------------------------------------------------------------
# Table I: computational efficiency (AUC part; costs live in repro.edge)
# ----------------------------------------------------------------------
@dataclass
class EfficiencyResult:
    """Measured mean AUC for the two maintenance strategies."""

    auc_baseline: float
    auc_proposed: float
    phase_aucs_baseline: list[float] = field(default_factory=list)
    phase_aucs_proposed: list[float] = field(default_factory=list)
    kg_regenerations_baseline: int = 0
    edge_updates_proposed: int = 0


class EfficiencyExperiment:
    """Reproduces Table I's operational-performance rows.

    Scenario (paper Section IV-D): the anomaly trend alternates between two
    classes several times a month.  The *baseline* regenerates the mission
    KG in the cloud (and retrains the decision model) at every change; the
    *proposed* method keeps the original deployment and adapts its KG token
    embeddings on the edge.  We measure the mean test AUC over all phases
    for both strategies.
    """

    def __init__(self, pipeline,
                 class_a: str = "Stealing", class_b: str = "Robbery",
                 alternations: int = 4, steps_per_phase: int = 10):
        self.pipeline = pipeline
        self.class_a = class_a
        self.class_b = class_b
        self.alternations = alternations
        self.steps_per_phase = steps_per_phase

    def run(self) -> EfficiencyResult:
        pipe = self.pipeline
        exp = pipe.config.experiment
        phases = [self.class_a if i % 2 == 0 else self.class_b
                  for i in range(self.alternations)]
        eval_sets = {cls: pipe.eval_windows(cls) for cls in set(phases)}

        # Proposed: one deployment, continuous edge adaptation across phases.
        proposed = pipe.deploy(phases[0])
        proposed_aucs: list[float] = []
        step_counter = 0
        for phase_class in phases:
            stream = pipe.stream(
                phase_class, phase_class, steps_before_shift=self.steps_per_phase,
                steps_after_shift=0, seed=exp.seed + step_counter)
            for batch in stream:
                proposed.ingest(batch.windows)
            windows, labels = eval_sets[phase_class]
            proposed_aucs.append(roc_auc(proposed.scores(windows), labels))
            step_counter += self.steps_per_phase

        # Baseline: fresh cloud KG + retrained model per phase.
        baseline_aucs: list[float] = []
        for phase_class in phases:
            baseline = pipe.deploy(phase_class, adaptive=False)
            windows, labels = eval_sets[phase_class]
            baseline_aucs.append(roc_auc(baseline.scores(windows), labels))

        return EfficiencyResult(
            auc_baseline=float(np.mean(baseline_aucs)),
            auc_proposed=float(np.mean(proposed_aucs)),
            phase_aucs_baseline=baseline_aucs,
            phase_aucs_proposed=proposed_aucs,
            kg_regenerations_baseline=len(phases),
            edge_updates_proposed=proposed.update_count)
