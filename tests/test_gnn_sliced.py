"""The eval-mode forward split into token side and frame side.

(a) Parity: on generated hierarchical KGs the level-sliced forward gives
the same logits as the all-nodes reference and the same token gradients.
(b) Invalidation: after every way the tokens (or the structure, or a
weight) can change, the next ``anomaly_scores`` equals a freshly built
model's — a stale token side is never served.
(c) Mixing: sharers of one weight set with different tokens, and for some
different structures, score in one forward exactly as each does alone.
(d) Frame codes: scoring and token gradients from a window's codes equal
those from its frames, bit for bit, and a round hands each sharer its own.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.adaptation import (
    AdaptationConfig,
    ContinuousAdaptationController,
    TokenEmbeddingUpdater,
)
from repro.adaptation.structure import StructuralAdapter
from repro.api import Deployment
from repro.gnn import DecisionModel, MissionGNNConfig, MissionGNNModel
from repro.gnn.checkpoint import deployment_from_dict, deployment_to_dict
from repro.kg import ReasoningKG
from repro.gnn.pipeline import score_parts
from repro.nn import Tensor, no_grad, vad_loss
from repro.serving import MicroBatcher
from repro.serving.batcher import ScoreRequest
from repro.utils import derive_rng

WINDOW = 4


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def random_kg(rng: np.random.Generator, depth: int, widths: list[int],
              token_dim: int) -> ReasoningKG:
    """A hierarchical KG with random level widths and random i -> i+1
    edges; nodes above level 1 may end up with no predecessor at all."""
    kg = ReasoningKG(mission="generated", depth=depth)
    levels = [[kg.add_node(f"c{level}-{i}", level) for i in range(width)]
              for level, width in zip(range(1, depth + 1), widths)]
    for below, above in zip(levels, levels[1:]):
        for target in above:
            for source in below:
                if rng.random() < 0.5:
                    kg.add_edge(source, target)
    kg.attach_terminals()
    for node in kg.concept_nodes():
        node.token_ids = []
        node.token_embeddings = rng.normal(
            size=(int(rng.integers(1, 4)), token_dim))
    return kg


def eval_model(kg: ReasoningKG, embedding_model,
               rng: np.random.Generator) -> MissionGNNModel:
    """An eval-mode model whose norm statistics and affine parameters are
    not the identity they start as."""
    model = MissionGNNModel([kg], embedding_model,
                            MissionGNNConfig(temporal_window=WINDOW))
    for layer in model.reasoners[0].gnn.layers:
        width = layer.norm.num_features
        layer.norm.running_mean = rng.normal(scale=0.2, size=width)
        layer.norm.running_var = rng.uniform(0.5, 1.5, size=width)
        layer.norm.gamma.data = rng.uniform(0.5, 1.5, size=width)
        layer.norm.beta.data = rng.normal(scale=0.2, size=width)
    model.freeze_for_deployment()
    return model


def dense_logits(model: MissionGNNModel, windows: np.ndarray) -> Tensor:
    """Eval-mode logits with every KG reasoned through the all-nodes path
    (``forward_embedded``), the reference the sliced path must match."""
    batch, length, frame_dim = windows.shape
    flat = windows.reshape(batch * length, frame_dim)
    outputs = [
        reasoner.gnn.forward_embedded(
            reasoner.node_embedding_matrix(),
            Tensor(reasoner.embedding_model.encode_image(flat)),
            reasoner.spec)
        for reasoner in model.reasoners]
    reasoning = outputs[0] if len(outputs) == 1 else Tensor.concat(outputs, 1)
    return model.decision(model.temporal(
        reasoning.reshape(batch, length, model.reasoning_dim)))


def token_gradients(model: MissionGNNModel, logits: Tensor) -> list[np.ndarray]:
    for tensor in model.token_parameters():
        tensor.zero_grad()
    (logits * logits).sum().backward()
    return [tensor.grad.copy() for tensor in model.token_parameters()]


def assert_sliced_matches_dense(model: MissionGNNModel, windows: np.ndarray):
    # Bit-for-bit: per row the sliced path runs the same operations in the
    # same order as the all-nodes path, and the GEMMs are row-stable.
    sliced = model(windows)
    dense = dense_logits(model, windows)
    assert np.array_equal(sliced.numpy(), dense.numpy())
    # The backward passes sum the batch in a different order (the sliced
    # path reduces where it broadcasts), so gradients agree to rounding.
    for got, want in zip(token_gradients(model, sliced),
                         token_gradients(model, dense)):
        scale = max(float(np.abs(want).max()), 1e-300)
        assert float(np.abs(got - want).max()) <= 1e-10 * scale
    # Off the tape, and solo vs coalesced.
    scores = model.anomaly_scores(windows)
    solo = np.concatenate([model.anomaly_scores(windows[i:i + 1])
                           for i in range(windows.shape[0])])
    assert np.array_equal(scores, solo)


def fresh_scores(model: MissionGNNModel, windows: np.ndarray) -> np.ndarray:
    """Scores of a model rebuilt from ``model``'s checkpoint: same weights,
    KGs and committed tokens, no history."""
    rebuilt = deployment_from_dict(deployment_to_dict(model),
                                   model.embedding_model)
    return rebuilt.anomaly_scores(windows)


# ----------------------------------------------------------------------
# (a) sliced vs dense parity
# ----------------------------------------------------------------------
class TestSlicedMatchesDense:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), depth=st.integers(1, 4),
           batch=st.integers(1, 5), data=st.data())
    def test_generated_kgs(self, embedding_model, seed, depth, batch, data):
        widths = data.draw(st.lists(st.integers(1, 4), min_size=depth,
                                    max_size=depth))
        rng = np.random.default_rng(seed)
        kg = random_kg(rng, depth, widths, embedding_model.token_dim)
        model = eval_model(kg, embedding_model, rng)
        windows = rng.normal(size=(batch, WINDOW, embedding_model.frame_dim))
        assert_sliced_matches_dense(model, windows)

    def test_node_left_without_predecessor_and_created_node(
            self, embedding_model, rng):
        kg = ReasoningKG(mission="m", depth=2)
        a = kg.add_node("a", level=1)
        b = kg.add_node("b", level=1)
        c = kg.add_node("c", level=2)
        d = kg.add_node("d", level=2)
        kg.add_edge(a, c)
        kg.add_edge(a, d)
        kg.add_edge(b, d)
        kg.attach_terminals()
        kg.initialize_tokens(embedding_model)
        model = eval_model(kg, embedding_model, rng)
        reasoner = model.reasoners[0]
        windows = rng.normal(size=(3, WINDOW, embedding_model.frame_dim))
        assert_sliced_matches_dense(model, windows)

        kg.prune_node(a)  # c keeps its place at level 2 with in-degree 0
        reasoner.refresh_structure()
        assert kg.in_degree(c) == 0
        level2 = reasoner.spec.level_slices[2]
        assert level2.keep_mask[:, 0].tolist() == [1.0, 0.0]
        assert_sliced_matches_dense(model, windows)

        kg.create_node(level=1, token_dim=embedding_model.token_dim,
                       n_tokens=2, rng=rng)
        reasoner.refresh_structure()
        assert_sliced_matches_dense(model, windows)

    def test_level_slices_are_the_spec_in_local_coordinates(
            self, stealing_kg_template):
        from repro.gnn import GraphSpec
        spec = GraphSpec(stealing_kg_template)
        assert sum(s.rows.size for s in spec.level_slices) == spec.num_nodes
        for level, (below, here) in enumerate(
                zip(spec.level_slices, spec.level_slices[1:]), start=1):
            assert np.array_equal(below.rows[here.sources],
                                  spec.edge_sources[level])
            assert np.array_equal(here.rows[here.targets],
                                  spec.edge_targets[level])
            assert np.array_equal(here.mean_scale,
                                  spec.mean_scale[level][here.rows])
        assert spec.level_slices[0].rows.tolist() == [spec.sensor_row]
        assert spec.level_slices[-1].rows.tolist() == [spec.embedding_row]

    def test_training_mode_takes_the_all_nodes_path(
            self, fresh_model, embedding_model, rng):
        """Batch statistics are taken over all nodes, so in training mode
        the reasoner must (and does) run ``forward_embedded``."""
        model = fresh_model()
        model.train()
        reasoner = model.reasoners[0]
        frames = rng.normal(size=(6, embedding_model.frame_dim))
        before = [layer.norm.running_mean.copy()
                  for layer in reasoner.gnn.layers]
        out = reasoner(frames).numpy()
        for layer, mean in zip(reasoner.gnn.layers, before):
            layer.norm.running_mean = mean  # undo the momentum update
        want = reasoner.gnn.forward_embedded(
            reasoner.node_embedding_matrix(),
            Tensor(embedding_model.encode_image(frames)), reasoner.spec)
        assert np.array_equal(out, want.numpy())


# ----------------------------------------------------------------------
# (b) a stale token side is never served
# ----------------------------------------------------------------------
@pytest.fixture()
def served(fresh_model, embedding_model, rng):
    """A deployed model that has already scored (token side in place)."""
    model = fresh_model(window=WINDOW)
    model.freeze_for_deployment()
    windows = rng.normal(size=(6, WINDOW, embedding_model.frame_dim))
    model.anomaly_scores(windows)
    return model, windows


def assert_serves_current_tokens(model, windows, before):
    scores = model.anomaly_scores(windows)
    assert np.array_equal(scores, fresh_scores(model, windows))
    assert not np.array_equal(scores, before)  # the change was visible


class TestTokenSideInvalidation:
    def test_untouched_model_reuses_the_token_side(self, served):
        model, windows = served
        reasoner = model.reasoners[0]
        kept = reasoner._token_side
        assert kept is not None
        model.anomaly_scores(windows)
        assert reasoner._token_side is kept

    def test_token_update(self, served):
        model, windows = served
        before = model.anomaly_scores(windows)
        labels = (np.arange(windows.shape[0]) % 2).astype(np.int64)
        TokenEmbeddingUpdater(model).update(windows, labels)
        assert_serves_current_tokens(model, windows, before)

    def test_restore_tokens_rollback(self, served):
        model, windows = served
        controller = ContinuousAdaptationController(model, AdaptationConfig())
        before = model.anomaly_scores(windows)
        snapshot = controller._snapshot_tokens()
        labels = (np.arange(windows.shape[0]) % 2).astype(np.int64)
        controller.updater.update(windows, labels)
        moved = model.anomaly_scores(windows)
        assert not np.array_equal(moved, before)
        controller._restore_tokens(snapshot)
        rolled_back = model.anomaly_scores(windows)
        assert np.array_equal(rolled_back, before)
        assert np.array_equal(rolled_back, fresh_scores(model, windows))

    def test_replace_node_and_refresh_structure(self, served):
        model, windows = served
        before = model.anomaly_scores(windows)
        adapter = StructuralAdapter(
            model.reasoners, token_dim=model.embedding_model.token_dim,
            rng=derive_rng(3, "structural"))
        victim = model.kgs[0].nodes_at_level(2)[0].node_id
        assert adapter.replace_node(0, victim) is not None
        assert_serves_current_tokens(model, windows, before)

    def test_set_tokens_trainable(self, served):
        model, windows = served
        before = model.anomaly_scores(windows)
        node = model.kgs[0].concept_nodes()[0]
        node.token_embeddings = node.token_embeddings + 0.5
        model.reasoners[0].set_tokens_trainable(True)
        assert_serves_current_tokens(model, windows, before)

    def test_load_state_dict(self, served, fresh_model):
        model, windows = served
        before = model.anomaly_scores(windows)
        other = fresh_model(window=WINDOW, seed=11)
        model.load_state_dict(other.state_dict())
        assert_serves_current_tokens(model, windows, before)

    def test_deployment_from_dict(self, served, embedding_model):
        model, windows = served
        deployment = Deployment(model, mission="Stealing")
        labels = (np.arange(windows.shape[0]) % 2).astype(np.int64)
        deployment.controller.updater.update(windows, labels)
        restored = Deployment.from_dict(deployment.to_dict(), embedding_model)
        assert np.array_equal(restored.scores(windows),
                              deployment.scores(windows))

    @pytest.mark.parametrize("in_place", [False, True])
    def test_data_edit_then_commit(self, served, in_place):
        """Rebinding ``tensor.data`` is what every writer here does; an
        in-place store is not, but ``commit_tokens`` is the documented way
        to publish a token edit, so it drops the token side either way."""
        model, windows = served
        before = model.anomaly_scores(windows)
        tensor = model.token_parameters()[0]
        if in_place:
            tensor.data += 0.5
        else:
            tensor.data = tensor.data + 0.5
        model.commit_tokens()
        assert_serves_current_tokens(model, windows, before)

    def test_training_then_eval(self, served, rng):
        """Weights and norm statistics moved by a training step are part of
        what the token side is computed from."""
        from repro.gnn.training import DecisionModelTrainer, TrainingConfig
        model, windows = served
        before = model.anomaly_scores(windows)
        model.unfreeze()
        labels = (np.arange(windows.shape[0]) % 2).astype(np.int64)
        DecisionModelTrainer(model, TrainingConfig(
            steps=2, batch_size=4, learning_rate=0.05)).train(windows, labels)
        assert_serves_current_tokens(model, windows, before)


# ----------------------------------------------------------------------
# (c) several token states in one forward
# ----------------------------------------------------------------------
class TestMixedMatchesSolo:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), depth=st.integers(1, 4),
           sharers=st.integers(2, 5), data=st.data())
    def test_generated_sharers(self, embedding_model, seed, depth, sharers,
                               data):
        widths = data.draw(st.lists(st.integers(1, 4), min_size=depth,
                                    max_size=depth))
        rng = np.random.default_rng(seed)
        base = eval_model(random_kg(rng, depth, widths,
                                    embedding_model.token_dim),
                          embedding_model, rng)
        models = [base] + [base.sharer() for _ in range(sharers - 1)]
        restructure = data.draw(st.lists(st.booleans(), min_size=sharers,
                                         max_size=sharers))
        for model, prune in zip(models[1:], restructure[1:]):
            model.freeze_for_deployment()
            for tensor in model.token_parameters():
                tensor.data = tensor.data + rng.normal(scale=0.3,
                                                       size=tensor.shape)
            model.commit_tokens()
            if prune:  # a pruned and a re-created node (None: level of one)
                victim = model.kgs[0].concept_nodes()[
                    int(rng.integers(len(model.kgs[0].concept_nodes())))]
                StructuralAdapter(
                    model.reasoners, token_dim=embedding_model.token_dim,
                    rng=rng).replace_node(0, victim.node_id)
        # 1 .. 64 windows over 1 .. 4 requests; a model may send two.
        requests = data.draw(st.lists(
            st.tuples(st.integers(0, sharers - 1), st.integers(1, 16)),
            min_size=1, max_size=4))
        parts = [(models[owner], rng.normal(
                      size=(count, WINDOW, embedding_model.frame_dim)))
                 for owner, count in requests]
        solo = [model.anomaly_scores(windows) for model, windows in parts]
        total = sum(count for _, count in requests)

        assert np.array_equal(score_parts(parts), np.concatenate(solo))
        cap = data.draw(st.integers(1, 20))
        for batcher, forwards in ((MicroBatcher(), 1),
                                  (MicroBatcher(cap), -(-total // cap))):
            scored = batcher.score([ScoreRequest(model, windows)
                                    for model, windows in parts])
            assert batcher.batches_run == forwards
            assert batcher.windows_scored == total
            for got, want in zip(scored, solo):
                assert np.array_equal(got, want)

    def test_diverged_structures_share_a_forward(self, fresh_model,
                                                 embedding_model, rng):
        """Two sharers stack, the third — one node pruned, one created —
        climbs the levels as its own group; one forward either way."""
        base = fresh_model(window=WINDOW)
        base.freeze_for_deployment()
        models = [base.sharer() for _ in range(3)]
        for model in models:
            model.freeze_for_deployment()
        victim = models[2].kgs[0].nodes_at_level(2)[0].node_id
        assert StructuralAdapter(
            models[2].reasoners, token_dim=embedding_model.token_dim,
            rng=derive_rng(3, "structural")).replace_node(0, victim)
        signatures = [model.reasoners[0].spec.signature for model in models]
        assert signatures[0] == signatures[1] != signatures[2]
        parts = [(model, rng.normal(size=(3, WINDOW, embedding_model.frame_dim)))
                 for model in models]
        assert np.array_equal(
            score_parts(parts),
            np.concatenate([m.anomaly_scores(w) for m, w in parts]))


# ----------------------------------------------------------------------
# (d) frame codes: every window-dependent input of the forward, computed once
# ----------------------------------------------------------------------
def windows_logits(model: MissionGNNModel, windows: np.ndarray) -> Tensor:
    """Logits with the frames on the tape: each reasoner encodes them and
    runs layer 0 itself (the path a learning layer 0 still takes)."""
    batch, length, frame_dim = windows.shape
    flat = windows.reshape(batch * length, frame_dim)
    return model._decide([reasoner(flat) for reasoner in model.reasoners],
                         batch, length)


def windows_scores(model: MissionGNNModel, windows: np.ndarray) -> np.ndarray:
    with no_grad():
        probs = windows_logits(model, windows).softmax(axis=-1).numpy()
    return DecisionModel.anomaly_probability(probs)


class TestFrameCodes:
    @pytest.fixture()
    def model(self, fresh_model):
        model = fresh_model(window=8)
        model.freeze_for_deployment()
        return model

    @pytest.mark.parametrize("batch", [1, 8, 96])
    def test_codes_score_as_their_windows(self, model, embedding_model, rng,
                                          batch):
        windows = rng.normal(size=(batch, 8, embedding_model.frame_dim))
        codes = model.frame_codes(windows)
        assert codes.shape == (batch, 1, 8, model.config.gnn_hidden_dim)
        want = windows_scores(model, windows)
        assert np.array_equal(model.anomaly_scores(windows), want)
        assert np.array_equal(model.code_scores(codes), want)
        alone = [model.frame_codes(windows[i:i + 1]) for i in range(batch)]
        assert np.array_equal(np.concatenate(alone), codes)

    def test_mixed_round_hands_each_sharer_its_codes(self, model,
                                                     embedding_model, rng):
        models = [model.sharer() for _ in range(3)]
        for sharer in models:
            sharer.freeze_for_deployment()
        victim = models[2].kgs[0].nodes_at_level(2)[0].node_id
        assert StructuralAdapter(
            models[2].reasoners, token_dim=embedding_model.token_dim,
            rng=derive_rng(3, "structural")).replace_node(0, victim)
        assert len({m.reasoners[0].spec.signature for m in models}) == 2
        parts = [(sharer, rng.normal(size=(count, 8, embedding_model.frame_dim)))
                 for sharer, count in zip(models, (3, 1, 5))]
        scores = np.split(score_parts(parts), [3, 4])
        handed = [sharer.codes_of(windows) for sharer, windows in parts]
        for (sharer, windows), got, codes in zip(parts, scores, handed):
            assert np.array_equal(codes, sharer.frame_codes(windows))
            assert np.array_equal(got, sharer.code_scores(codes))
            assert np.array_equal(got, windows_scores(sharer, windows))
            assert codes.base is handed[0].base  # one computation
            # Handed over once, and only for that very array.
            assert sharer.codes_of(windows).base is not codes.base
        sharer, windows = parts[0]
        score_parts([parts[0]])
        stashed = sharer._scored[1]
        assert sharer.codes_of(windows.copy()).base is not stashed.base

    def test_anchor_codes_once_per_weight_set_and_forgotten_with_them(
            self, model, embedding_model, rng):
        anchors = rng.normal(size=(6, 8, embedding_model.frame_dim))
        controllers = [ContinuousAdaptationController(
            model.sharer(), normal_anchor_windows=anchors) for _ in range(2)]
        assert controllers[0]._anchor_codes is controllers[1]._anchor_codes
        assert np.array_equal(controllers[0]._anchor_codes,
                              model.frame_codes(anchors))
        del controllers, anchors
        gc.collect()
        assert model._shared_codes == {}

    def test_updater_loss_and_gradients_from_codes(self, fresh_model,
                                                   embedding_model, rng):
        twins = [fresh_model(window=8) for _ in range(2)]
        for twin in twins:
            twin.freeze_for_deployment()
        windows = rng.normal(size=(10, 8, embedding_model.frame_dim))
        labels = (np.arange(10) % 2).astype(np.int64)
        losses, grads = [], []
        for twin, logits in ((twins[0], windows_logits(twins[0], windows)),
                             (twins[1], twins[1].code_logits(
                                 twins[1].frame_codes(windows)))):
            loss = vad_loss(logits, labels)
            loss.backward()
            losses.append(loss.item())
            grads.append([t.grad.copy() for t in twin.token_parameters()])
        assert losses[0] == losses[1]
        for a, b in zip(*grads, strict=True):
            assert np.array_equal(a, b)
        results = [TokenEmbeddingUpdater(twins[0]).update(windows, labels),
                   TokenEmbeddingUpdater(twins[1]).update(
                       twins[1].frame_codes(windows), labels)]
        assert results[0].loss == results[1].loss
        for a, b in zip(twins[0].token_parameters(),
                        twins[1].token_parameters(), strict=True):
            assert np.array_equal(a.data, b.data)
