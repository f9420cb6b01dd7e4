"""Property-based tests (hypothesis) on core data structures and invariants."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant, rule,
                                 run_state_machine_as_test)

from repro.adaptation import AnomalyScoreMonitor, MonitorConfig
from repro.embedding import BPETokenizer
from repro.eval import roc_auc
from repro.kg import ReasoningKG
from repro.nn import Tensor
from repro.runtime import (AdmissionError, EngineRequest, FleetEvent,
                           ServingEngine)

# ----------------------------------------------------------------------
# Autodiff engine properties
# ----------------------------------------------------------------------
small_arrays = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1,
    max_size=16)


class TestTensorProperties:
    @given(small_arrays)
    def test_softmax_is_distribution(self, values):
        s = Tensor(np.array(values)).softmax().numpy()
        assert np.all(s >= 0)
        assert s.sum() == pytest.approx(1.0, abs=1e-9)

    @given(small_arrays, small_arrays)
    def test_addition_commutes(self, a, b):
        n = min(len(a), len(b))
        x, y = Tensor(np.array(a[:n])), Tensor(np.array(b[:n]))
        np.testing.assert_allclose((x + y).numpy(), (y + x).numpy())

    @given(small_arrays)
    def test_sum_gradient_is_ones(self, values):
        t = Tensor(np.array(values), requires_grad=True)
        t.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones(len(values)))

    @given(small_arrays)
    def test_mul_gradient_product_rule(self, values):
        t = Tensor(np.array(values), requires_grad=True)
        (t * t).sum().backward()
        np.testing.assert_allclose(t.grad, 2 * np.array(values), atol=1e-9)

    @given(small_arrays)
    def test_elu_continuous_and_bounded_below(self, values):
        out = Tensor(np.array(values)).elu().numpy()
        assert np.all(out > -1.0 - 1e-12)

    @given(small_arrays)
    def test_detach_shares_data(self, values):
        t = Tensor(np.array(values), requires_grad=True)
        d = t.detach()
        np.testing.assert_allclose(d.numpy(), t.numpy())
        assert not d.requires_grad


# ----------------------------------------------------------------------
# BPE round-trip property
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_tokenizer():
    corpus = ["abc abd bcd", "the cat sat on the mat", "anomaly detection",
              "edge device camera", "0 1 2 3 4 5 6 7 8 9",
              "efghijklmnopqrstuvwxyz"] * 3
    return BPETokenizer().train(corpus, num_merges=40)


words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1,
                max_size=12)
phrases = st.lists(words, min_size=1, max_size=5).map(" ".join)


class TestBPEProperties:
    @given(phrases)
    @settings(max_examples=60)
    def test_roundtrip_any_alnum_phrase(self, tiny_tokenizer, text):
        assert tiny_tokenizer.decode(tiny_tokenizer.encode(text)) == text

    @given(phrases)
    @settings(max_examples=30)
    def test_encode_ids_in_vocab(self, tiny_tokenizer, text):
        ids = tiny_tokenizer.encode(text)
        assert all(0 <= i < tiny_tokenizer.vocab_size for i in ids)


# ----------------------------------------------------------------------
# Monitor properties
# ----------------------------------------------------------------------
score_lists = st.lists(st.floats(min_value=0.0, max_value=1.0,
                                 allow_nan=False), min_size=24, max_size=60)


class TestMonitorProperties:
    @given(score_lists)
    @settings(max_examples=50)
    def test_selection_partitions_window(self, scores):
        monitor = AnomalyScoreMonitor(MonitorConfig(window=12, lag=6, min_k=0))
        monitor.observe(np.array(scores))
        selection = monitor.select()
        n = monitor.current_window().size
        combined = sorted(np.concatenate([selection.anomalous_indices,
                                          selection.normal_indices]).tolist())
        assert combined == list(range(n))

    @given(score_lists)
    @settings(max_examples=50)
    def test_k_bounded_by_fraction(self, scores):
        cfg = MonitorConfig(window=12, lag=6, min_k=0, max_k_fraction=0.5)
        monitor = AnomalyScoreMonitor(cfg)
        monitor.observe(np.array(scores))
        selection = monitor.select()
        assert selection.k <= int(monitor.current_window().size * 0.5)

    @given(score_lists)
    @settings(max_examples=50)
    def test_selected_scores_dominate_rest(self, scores):
        monitor = AnomalyScoreMonitor(MonitorConfig(window=12, lag=6, min_k=2))
        monitor.observe(np.array(scores))
        selection = monitor.select()
        if selection.k and selection.normal_indices.size:
            window = monitor.current_window()
            assert window[selection.anomalous_indices].min() >= \
                window[selection.normal_indices].max() - 1e-12


# ----------------------------------------------------------------------
# ROC AUC properties
# ----------------------------------------------------------------------
class TestAucProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False),
                    min_size=4, max_size=40),
           st.data())
    @settings(max_examples=50)
    def test_auc_in_unit_interval(self, scores, data):
        labels = data.draw(st.lists(st.integers(0, 1), min_size=len(scores),
                                    max_size=len(scores)))
        labels = np.array(labels)
        if labels.min() == labels.max():
            return  # needs both classes
        auc = roc_auc(np.array(scores), labels)
        assert 0.0 <= auc <= 1.0

    @given(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False),
                    min_size=4, max_size=40),
           st.data())
    @settings(max_examples=50)
    def test_auc_complement_under_label_flip(self, scores, data):
        labels = data.draw(st.lists(st.integers(0, 1), min_size=len(scores),
                                    max_size=len(scores)))
        labels = np.array(labels)
        if labels.min() == labels.max():
            return
        scores = np.array(scores)
        assert roc_auc(scores, labels) == pytest.approx(
            1.0 - roc_auc(-scores, labels), abs=1e-9)


# ----------------------------------------------------------------------
# KG structural invariants under random operation sequences
# ----------------------------------------------------------------------
class TestKGInvariantProperties:
    @given(st.lists(st.sampled_from(["prune", "create"]), min_size=1,
                    max_size=12),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_op_sequences_preserve_invariants(self, ops, seed):
        rng = np.random.default_rng(seed)
        kg = ReasoningKG(mission="m", depth=2)
        ids = [kg.add_node(f"c{i}-1", level=1) for i in range(3)]
        ids += [kg.add_node(f"c{i}-2", level=2) for i in range(3)]
        for i in range(3):
            kg.add_edge(ids[i], ids[3 + i])
        kg.attach_terminals()

        for op in ops:
            concepts = kg.concept_nodes()
            if op == "prune" and concepts:
                victim = concepts[int(rng.integers(len(concepts)))]
                level_population = len(kg.nodes_at_level(victim.level))
                if level_population > 1:
                    kg.prune_node(victim.node_id)
            elif op == "create":
                level = int(rng.integers(1, 3))
                kg.create_node(level=level, token_dim=4, n_tokens=2, rng=rng)
            kg.validate()  # invariants hold after every operation


# ----------------------------------------------------------------------
# Admission-queue histories: the engine's rounds against a deque model
# ----------------------------------------------------------------------
STREAMS = ("a", "b", "c")


class _RecordingFleet:
    """A duck-typed stub fleet: a request's windows hold its id, its
    "score" is that id, and every ingest is recorded in per-stream
    order."""

    def __init__(self):
        self.ingested: dict[str, list[int]] = {name: [] for name in STREAMS}
        self.waves: list[list[str]] = []

    def serve_round(self, arrivals, ingest_names):
        self.waves.append(list(arrivals))
        scored = self.score(arrivals)
        return scored, self.ingest({name: arrivals[name]
                                    for name in ingest_names}, scored), [], []

    def score(self, arrivals):
        return {name: np.asarray(windows)[:, 0, 0]
                for name, windows in arrivals.items()}

    def ingest(self, arrivals, scores):
        events = {}
        for name in arrivals:
            self.ingested[name].append(int(scores[name][0]))
            events[name] = FleetEvent(stream=name, mission=None,
                                      step=len(self.ingested[name]) - 1,
                                      scores=scores[name])
        return events


class AdmissionQueueMachine(RuleBasedStateMachine):
    """Generated submit / run_round / drop_pending histories checked
    against one deque per stream: each round serves the front of every
    non-empty queue (streams in first-arrival order), every request ends
    exactly once, and the engine's counts equal the model's."""

    def __init__(self, pipeline: bool, max_queue_depth: int):
        super().__init__()
        self.fleet = _RecordingFleet()
        self.delivered = []
        self.max_queue_depth = max_queue_depth
        self.engine = ServingEngine(self.fleet,
                                    max_queue_depth=max_queue_depth,
                                    pipeline=pipeline,
                                    on_commit=self.delivered.extend)
        self.model: dict[str, deque] = {}     # first-arrival order
        self.outcomes: dict[int, str] = {}
        self.ops: dict[int, str] = {}
        self.owners: dict[int, int] = {}
        self.next_id = 0

    def _end(self, request_id: int, outcome: str) -> None:
        assert request_id not in self.outcomes, \
            f"request {request_id} ended twice"
        self.outcomes[request_id] = outcome

    @rule(stream=st.sampled_from(STREAMS),
          op=st.sampled_from(("ingest", "scores")),
          owner=st.integers(0, 2))
    def submit(self, stream, op, owner):
        request_id, self.next_id = self.next_id, self.next_id + 1
        self.ops[request_id], self.owners[request_id] = op, owner
        queue = self.model.setdefault(stream, deque())
        try:
            self.engine.submit(EngineRequest(
                op=op, stream=stream, tag=request_id,
                windows=np.full((1, 1, 1), float(request_id))))
        except AdmissionError as exc:
            assert exc.code == "backpressure"
            assert len(queue) >= self.max_queue_depth
            self._end(request_id, "backpressure")
            return
        assert len(queue) < self.max_queue_depth
        queue.append(request_id)

    @rule()
    def run_round(self):
        expected = {stream: queue.popleft()
                    for stream, queue in self.model.items() if queue}
        waves = len(self.fleet.waves)
        results = self.engine.run_round()
        if self.engine.pipeline:
            assert results == []
            assert self.engine.drain_commits(timeout=10.0)
            results = self.delivered[:]
            self.delivered.clear()
        if not expected:
            assert results == [] and len(self.fleet.waves) == waves
            return
        # One wave per round: the front of every non-empty queue, once.
        assert self.fleet.waves[waves:] == [list(expected)]
        assert {r.request.stream: r.request.tag for r in results} == expected
        assert len(results) == len(expected)
        for result in results:
            request_id = result.request.tag
            kind = "event" if self.ops[request_id] == "ingest" else "scores"
            assert result.kind == kind
            self._end(request_id, kind)

    @rule(owner=st.integers(0, 2))
    def drop_pending(self, owner):
        dropped = self.engine.drop_pending(
            lambda request: self.owners[request.tag] == owner)
        expected = []
        for queue in self.model.values():
            expected += [rid for rid in queue if self.owners[rid] == owner]
            kept = [rid for rid in queue if self.owners[rid] != owner]
            queue.clear()
            queue.extend(kept)
        assert sorted(r.tag for r in dropped) == sorted(expected)
        for request_id in expected:
            self._end(request_id, "dropped")

    @invariant()
    def counts_match_the_model(self):
        pending = sum(len(queue) for queue in self.model.values())
        assert self.engine.pending_count() == pending
        assert self.engine.metrics.gauge("engine.queue_depth").value \
            == pending
        assert self.engine.queued_depths() == {
            stream: len(queue) for stream, queue in self.model.items()
            if queue}

    @invariant()
    def each_stream_ingests_fifo(self):
        for stream, ingested in self.fleet.ingested.items():
            assert ingested == sorted(ingested), stream

    def teardown(self):
        while self.engine.has_pending():
            self.run_round()
        self.engine.stop_committer()
        assert sorted(self.outcomes) == list(range(self.next_id)), \
            "a submitted request never ended"


class TestAdmissionQueueHistories:
    # Depth 1 refuses a stream's second request; depth 3 lets backlogs
    # build up behind the front for drops and rounds to work through.
    @pytest.mark.parametrize("max_queue_depth", [1, 3],
                             ids=["depth1", "depth3"])
    @pytest.mark.parametrize("pipeline", [False, True],
                             ids=["serial", "pipelined"])
    def test_generated_histories(self, pipeline, max_queue_depth):
        run_state_machine_as_test(
            lambda: AdmissionQueueMachine(pipeline, max_queue_depth),
            settings=settings(max_examples=40, stateful_step_count=30,
                              deadline=None))
