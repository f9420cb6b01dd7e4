"""The ``Pipeline`` facade: one object that owns the whole stack.

``Pipeline`` lazily assembles ontology -> joint embedding model -> LLM
oracle -> mission KG -> trained GNN decision model from a single
:class:`ReproConfig`, keeps trained models in a :class:`ModelRegistry`
(optionally persisted on disk), and hands out :class:`Deployment` runtime
objects for the edge side::

    from repro.api import Pipeline, ReproConfig

    pipe = Pipeline.from_config(ReproConfig())
    model = pipe.train("Stealing")                 # cloud-side, cached
    deployment = pipe.deploy("Stealing")           # edge-side runtime
    for event in deployment.serve(pipe.stream("Stealing", "Robbery")):
        print(event.step, event.scores.mean())
"""

from __future__ import annotations

import copy
from pathlib import Path

import numpy as np

from ..concepts.ontology import ConceptOntology, build_default_ontology
from ..data.streams import TrendShiftConfig, TrendShiftStream
from ..data.synthetic import FrameGenerator, make_windows
from ..data.ucf_crime import SyntheticUCFCrime
from ..embedding.joint_space import (EMBEDDING_FORMAT, JointEmbeddingModel,
                                     build_default_embedding_model)
from ..gnn.pipeline import MissionGNNConfig, MissionGNNModel
from ..gnn.training import DecisionModelTrainer, TrainingConfig
from ..kg.generation import KGGenerationConfig, KGGenerator
from ..kg.graph import ReasoningKG
from ..kg.serialization import kg_from_dict, kg_to_dict
from ..llm.oracle import SyntheticLLM
from ..utils.rng import derive_rng
from .config import ReproConfig, config_to_dict
from .deployment import Deployment
from .registry import ModelRegistry

__all__ = ["Pipeline"]


class Pipeline:
    """Builds, trains, caches and deploys the full paper stack."""

    def __init__(self, config: ReproConfig | None = None,
                 registry: ModelRegistry | None = None):
        self.config = config or ReproConfig()
        if registry is None:
            registry = ModelRegistry(self.config.registry_dir)
        self.registry = registry
        self._ontology: ConceptOntology | None = None
        self._embedding_model: JointEmbeddingModel | None = None
        self._generator: FrameGenerator | None = None
        self._dataset: SyntheticUCFCrime | None = None
        self._kg_cache: dict[str, dict] = {}
        self._anchors: dict[tuple[str, int], np.ndarray] = {}
        self._bases: dict[tuple[str, str], MissionGNNModel] = {}
        self.trained_count = 0  # registry misses that led to actual training

    @classmethod
    def from_config(cls, source: ReproConfig | dict | str | Path | None = None,
                    overrides: list[str] | None = None,
                    registry: ModelRegistry | None = None) -> "Pipeline":
        """Build a pipeline from a config object, dict, or JSON file path.

        ``overrides`` are ``key=value`` dotted-path assignments applied on
        top (the CLI's ``--set`` flags go through here).
        """
        if source is None:
            config = ReproConfig()
        elif isinstance(source, ReproConfig):
            config = source.copy()
        elif isinstance(source, dict):
            config = ReproConfig.from_dict(source)
        else:
            config = ReproConfig.load(source)
        config.apply_overrides(overrides)
        return cls(config, registry=registry)

    # ------------------------------------------------------------------
    # Lazily-built shared infrastructure
    # ------------------------------------------------------------------
    @property
    def ontology(self) -> ConceptOntology:
        if self._ontology is None:
            self._ontology = build_default_ontology()
        return self._ontology

    @property
    def embedding_model(self) -> JointEmbeddingModel:
        """The frozen joint embedding model, loaded from a disk registry
        (keyed by its seed and ``EMBEDDING_FORMAT``) or built and stored
        there: its bits follow the process that fitted it."""
        if self._embedding_model is None:
            seed = self.config.experiment.seed
            self._embedding_model = self.registry.embedding(
                ModelRegistry.fingerprint({"seed": seed,
                                           "format": EMBEDDING_FORMAT}),
                lambda: build_default_embedding_model(seed=seed))
        return self._embedding_model

    @property
    def generator(self) -> FrameGenerator:
        if self._generator is None:
            self._generator = FrameGenerator(self.embedding_model,
                                             seed=self.config.experiment.seed)
        return self._generator

    @property
    def dataset(self) -> SyntheticUCFCrime:
        if self._dataset is None:
            exp = self.config.experiment
            self._dataset = SyntheticUCFCrime(
                self.generator, scale=exp.dataset_scale,
                frames_per_video=exp.frames_per_video, seed=exp.seed)
        return self._dataset

    # -- the subsystem configs: a section plus what experiment owns -----
    def model_config(self) -> MissionGNNConfig:
        exp = self.config.experiment
        return MissionGNNConfig(**config_to_dict(self.config.model),
                                temporal_window=exp.window, seed=exp.seed)

    def training_config(self) -> TrainingConfig:
        exp = self.config.experiment
        return TrainingConfig(**config_to_dict(self.config.training),
                              steps=exp.train_steps, batch_size=exp.train_batch,
                              learning_rate=exp.train_lr, seed=exp.seed)

    def _trained_config(self) -> dict:
        """Everything that shapes a trained model: its training data
        (videos, KG, embedding), its model and its trainer."""
        data = ("seed", "kg_depth", "frames_per_video", "dataset_scale",
                "train_normal_videos", "train_anomaly_videos")
        return {"data": {name: getattr(self.config.experiment, name)
                         for name in data},
                "model": config_to_dict(self.model_config()),
                "training": config_to_dict(self.training_config())}

    def _fingerprint(self) -> str:
        return ModelRegistry.fingerprint(self._trained_config())

    # ------------------------------------------------------------------
    # Cloud side: KG generation and decision-model training
    # ------------------------------------------------------------------
    def generate_kg(self, mission: str) -> ReasoningKG:
        """Mission KG via the LLM oracle (cached structurally, fresh tokens)."""
        if mission not in self._kg_cache:
            exp = self.config.experiment
            oracle = SyntheticLLM(self.ontology, seed=exp.seed)
            generator = KGGenerator(oracle, KGGenerationConfig(depth=exp.kg_depth))
            kg, _ = generator.generate(mission)
            kg.initialize_tokens(self.embedding_model)
            self._kg_cache[mission] = kg_to_dict(kg)
        return kg_from_dict(copy.deepcopy(self._kg_cache[mission]))

    def train(self, mission: str) -> MissionGNNModel:
        """Cloud-side training for a mission, served from the registry.

        Every call returns a fresh model instance rebuilt from the stored
        deployment artifact, so callers may freeze or adapt their copy
        freely.
        """
        fingerprint = self._fingerprint()
        cached = self.registry.load(mission, fingerprint, self.embedding_model)
        if cached is not None:
            return cached
        kg = self.generate_kg(mission)
        model = MissionGNNModel([kg], self.embedding_model, self.model_config())
        windows, labels = self.train_windows(mission)
        DecisionModelTrainer(model, self.training_config()).train(windows, labels)
        model.eval()
        self.trained_count += 1
        self.registry.store(mission, fingerprint, model, self._trained_config())
        # Serve from the registry even on the first call: the artifact
        # round-trip is what guarantees reload determinism.
        return self.registry.load(mission, fingerprint, self.embedding_model)

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------
    def train_windows(self, mission: str) -> tuple[np.ndarray, np.ndarray]:
        exp = self.config.experiment
        return self.dataset.mission_windows(
            "train", mission, window=exp.window, stride=4,
            normal_videos=exp.train_normal_videos,
            anomaly_videos=exp.train_anomaly_videos)

    def normal_anchors(self, mission: str, count: int = 60) -> np.ndarray:
        """First ``count`` label-0 rows of :meth:`train_windows`, synthesising
        videos only until found: one shared read-only array."""
        key = (mission, count)
        if key not in self._anchors:
            exp, found = self.config.experiment, []
            for video in self.dataset.mission_videos(
                    "train", mission, exp.train_normal_videos,
                    exp.train_anomaly_videos):
                windows, labels = make_windows(video, exp.window, stride=4)
                found += list(windows[labels == 0][:count - len(found)])
                if len(found) == count:
                    break
            self._anchors[key] = np.array(found)
            self._anchors[key].flags.writeable = False
        return self._anchors[key]

    def eval_windows(self, anomaly_class: str,
                     seed_tag: str = "eval") -> tuple[np.ndarray, np.ndarray]:
        """Balanced held-out windows of one anomaly class vs normal."""
        exp = self.config.experiment
        rng = derive_rng(exp.seed, seed_tag, anomaly_class)
        windows, labels = [], []
        for _ in range(exp.eval_normal_windows):
            windows.append(np.stack([self.generator.normal_frame(rng)
                                     for _ in range(exp.window)]))
            labels.append(0)
        for _ in range(exp.eval_anomaly_windows):
            windows.append(np.stack([self.generator.anomaly_frame(anomaly_class, rng)
                                     for _ in range(exp.window)]))
            labels.append(1)
        return np.stack(windows), np.asarray(labels, dtype=np.int64)

    def stream(self, initial_class: str | None = None,
               shifted_class: str | None = None, **kwargs) -> TrendShiftStream:
        """A deployment stream shaped by the config's ``stream`` section,
        ``experiment.window`` frames per window.

        Arguments with value ``None`` are ignored, so callers can pass
        optional CLI flags straight through.
        """
        kwargs.update(initial_class=initial_class, shifted_class=shifted_class)
        shape = {**config_to_dict(self.config.stream),
                 **{k: v for k, v in kwargs.items() if v is not None}}
        return TrendShiftStream(self.generator, TrendShiftConfig(
            window=self.config.experiment.window, **shape))

    # ------------------------------------------------------------------
    # Edge side
    # ------------------------------------------------------------------
    def deploy(self, mission: str, adaptive: bool = True) -> Deployment:
        """Train (or fetch) the mission model and wrap it as a deployment:
        a :meth:`~MissionGNNModel.sharer` of the mission's one set of
        frozen weights (its own KG state, nothing else) plus, if adaptive,
        the mission's one anchor array (a static one never reads anchors)."""
        key = (mission, self._fingerprint())
        if key not in self._bases:
            self._bases[key] = self.train(mission)
        model = self._bases[key].sharer()
        anchors = self.normal_anchors(mission) if adaptive else None
        return Deployment(model, mission=mission,
                          adaptation_config=copy.deepcopy(self.config.adaptation),
                          adaptive=adaptive, normal_anchor_windows=anchors)
