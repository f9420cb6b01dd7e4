"""Adaptive streams as sharers of one frozen weight set.

A mission's GNNs, temporal model and decision head exist once; every
deployment of it owns only its KG state.  What must hold: (a) the guards —
a model *object* is still never shared with an adaptive deployment, shared
weights are, and shared modules refuse ``train()`` / ``unfreeze()`` /
``load_state_dict()``; (b) a round over a mission's sharers is one
forward; (c) N sharers follow, bit
for bit, the trajectories of N private models through token updates,
rollbacks and prunes; (d) a checkpoint stores what is shared once and every
restore path — ``DeploymentFleet.from_dict`` (also over a checkpoint
that carries the former sharded fleet's ``"shards"`` / ``"infra"``
keys), ``recover_fleet`` — shares it again and continues identically; (e) the
40-round trajectory's bits match a pinned digest.
"""

import copy
import hashlib

import numpy as np
import pytest

from pinned_blas import pinned_digest
from test_api_deployment import deployment_config

from repro.adaptation import ConvergenceConfig
from repro.api import Deployment, Pipeline, ReproConfig
from repro.errors import CheckpointError, ConfigError, StateError
from repro.runtime import EngineRequest
from repro.serving import (
    DeploymentFleet,
    FleetInfra,
    MicroBatcher,
    ScoreRequest,
    build_fleet,
    build_sharded_fleet,
)
from repro.utils.binframe import decode_payload, encode_payload
from repro.wal import WalDurability, recover_fleet

STREAMS = 3
MISSION = "Stealing"


@pytest.fixture(scope="module")
def pipeline():
    cfg = deployment_config()  # an adaptation loop that triggers
    cfg.adaptation.convergence = ConvergenceConfig(
        patience=1, tolerance=0.0, min_updates=2)  # ... and prunes
    return Pipeline.from_config(cfg)


def make_streams(pipeline, steps=40):
    """One stream per slot, each shifting class at its own step."""
    return [pipeline.stream(MISSION, "Robbery", windows_per_step=6,
                            seed=100 + index,
                            steps_before_shift=6 + 3 * index,
                            steps_after_shift=steps - 6 - 3 * index)
            for index in range(STREAMS)]


def shared_fleet(pipeline, steps=40) -> DeploymentFleet:
    fleet = DeploymentFleet()
    for index, stream in enumerate(make_streams(pipeline, steps)):
        fleet.add(f"cam-{index}", pipeline.deploy(MISSION), stream)
    return fleet


def private_fleet(pipeline, steps=40) -> DeploymentFleet:
    """The same streams over models that share nothing: each a fresh
    rebuild of the registry artifact, as every deployment once was."""
    fleet = DeploymentFleet()
    for index, stream in enumerate(make_streams(pipeline, steps)):
        fleet.add(f"cam-{index}", Deployment(
            pipeline.train(MISSION), mission=MISSION,
            adaptation_config=copy.deepcopy(pipeline.config.adaptation),
            normal_anchor_windows=pipeline.normal_anchors(MISSION)), stream)
    return fleet


def models_of(fleet):
    return [slot.deployment.model for slot in fleet.slots]


def assert_same_events(ours, theirs):
    assert [e.stream for e in ours] == [e.stream for e in theirs]
    for a, b in zip(ours, theirs):
        assert a.step == b.step
        assert np.array_equal(a.scores, b.scores)
        assert a.log.updated == b.log.updated
        assert a.log.pruned == b.log.pruned


def assert_shares_what_a_mission_shares(fleet):
    """One weight set and one anchor array, by identity; token state apart."""
    models = models_of(fleet)
    assert len({id(model) for model in models}) == len(models)
    assert len({id(model.weight_set) for model in models}) == 1
    first = models[0]
    for model in models[1:]:
        assert model.temporal is first.temporal
        assert model.decision is first.decision
        assert model.reasoners[0].gnn is first.reasoners[0].gnn
        assert model.reasoners[0].kg is not first.reasoners[0].kg
    anchors = [slot.deployment.normal_anchor_windows for slot in fleet.slots]
    assert all(array is anchors[0] for array in anchors)
    assert anchors[0] is fleet.slots[0].deployment.controller \
        .normal_anchor_windows


# ----------------------------------------------------------------------
# (a) guards
# ----------------------------------------------------------------------
class TestSharedWeightsGuard:
    def test_sharers_of_one_weight_set_are_accepted(self, fresh_model,
                                                    frame_generator):
        from test_serving_fleet import make_stream
        base = fresh_model(window=4)
        fleet = DeploymentFleet()
        fleet.add("adaptive-0", Deployment(base.sharer(), mission=MISSION),
                  make_stream(frame_generator, seed=1))
        fleet.add("adaptive-1", Deployment(base.sharer(), mission=MISSION),
                  make_stream(frame_generator, seed=2))
        fleet.add("static", Deployment(base.sharer(), mission=MISSION,
                                       adaptive=False),
                  make_stream(frame_generator, seed=3))
        assert len(fleet.step()) == 3
        assert fleet.batcher.batches_run == 1  # one forward for all three
        coalesce = fleet.engine.stats()["coalesce"]
        assert coalesce["weight_sets"] == 1
        assert coalesce["token_states"] == 3

    def test_shared_modules_refuse_training_and_unfreezing(self, fresh_model):
        base = fresh_model(window=4)
        base.train()       # nobody shares it yet
        base.unfreeze()
        sharer = base.sharer()   # freezes what it shares, in eval mode
        for shared in (base.temporal, base.decision, base.reasoners[0].gnn):
            assert shared.frozen
            assert not any(module.training for module in shared.modules())
        for model in (base, sharer):
            for module in (model, model.temporal, model.decision.linear,
                           model.reasoners[0].gnn.layers[0].norm):
                with pytest.raises(StateError, match="share"):
                    module.train()
                with pytest.raises(StateError, match="share"):
                    module.unfreeze()
                with pytest.raises(StateError, match="share"):
                    module.load_state_dict(module.state_dict())
        sharer.eval()      # what a deployment does stays allowed
        sharer.freeze()
        sharer.freeze_for_deployment()


# ----------------------------------------------------------------------
# (b) one forward per weight set
# ----------------------------------------------------------------------
def test_round_of_eight_adaptive_requests_runs_two_forwards(fresh_model, rng):
    """The capacity-phase round of perfbench's ``adaptive_shift``: eight
    streams over two missions, eight windows each."""
    bases = [fresh_model(mission, window=4)
             for mission in ("Stealing", "Robbery")]
    models = [bases[index % 2].sharer() for index in range(8)]
    for model in models:
        model.freeze_for_deployment()
    requests = [ScoreRequest(model, rng.normal(size=(8, 4, 192)))
                for model in models]
    batcher = MicroBatcher()
    scored = batcher.score(requests)
    assert batcher.batches_run == 2
    assert batcher.windows_scored == 64
    for request, scores in zip(requests, scored):
        assert np.array_equal(scores,
                              request.model.anomaly_scores(request.windows))


# ----------------------------------------------------------------------
# (c) sharers == private models, step for step
# ----------------------------------------------------------------------
def test_sharers_follow_private_models_bit_for_bit(pipeline):
    shared, private = shared_fleet(pipeline), private_fleet(pipeline)
    assert_shares_what_a_mission_shares(shared)
    assert len({id(m.weight_set) for m in models_of(private)}) == STREAMS
    rounds = 0
    for ours, theirs in zip(shared.serve(), private.serve(), strict=True):
        assert_same_events(ours, theirs)
        rounds += 1
    assert rounds == 40
    assert shared.batcher.batches_run == rounds             # 1 per round
    assert private.batcher.batches_run == rounds * STREAMS  # vs 1 per stream

    updates = [slot.deployment.update_count for slot in shared.slots]
    pruned = [slot.deployment.total_pruned for slot in shared.slots]
    assert min(updates) >= 2 and sum(pruned) >= 1
    # ... so the sharers' structures diverged and mixed forwards ran them
    # as separate groups.
    assert len({model.reasoners[0].spec.signature
                for model in models_of(shared)}) > 1
    for ours, theirs in zip(shared.slots, private.slots):
        assert ours.deployment.update_count == theirs.deployment.update_count
        for a, b in zip(ours.deployment.model.token_parameters(),
                        theirs.deployment.model.token_parameters(),
                        strict=True):
            assert np.array_equal(a.data, b.data)
        assert (encode_payload(ours.deployment.controller.export_state())
                == encode_payload(theirs.deployment.controller.export_state()))
        # Weights included: the checkpoint cannot tell them apart.
        assert (encode_payload(ours.deployment.to_dict())
                == encode_payload(theirs.deployment.to_dict()))


# ----------------------------------------------------------------------
# (d) checkpoints follow ownership, restores re-share
# ----------------------------------------------------------------------
@pytest.fixture()
def served(pipeline):
    """(fleet, its checkpoint after 8 rounds, the next 3 rounds' events of
    a twin that was never interrupted)."""
    fleet, twin = shared_fleet(pipeline, 12), shared_fleet(pipeline, 12)
    for _ in range(8):
        fleet.step()
        twin.step()
    assert any(slot.deployment.update_count for slot in fleet.slots)
    payload = decode_payload(encode_payload(fleet.to_dict()))[0]
    return fleet, payload, [twin.step() for _ in range(3)]


class TestCheckpointFollowsOwnership:
    def test_payload_stores_shared_things_once(self, served):
        _, payload, _ = served
        assert payload["fleet_format_version"] == 4
        assert len(payload["weights"]) == 1
        assert len(payload["anchors"]) == 1
        assert len(payload["models"]) == STREAMS
        assert [m["weights"] for m in payload["models"]] == [0] * STREAMS
        assert all("kgs" in m for m in payload["models"])
        for index, slot in enumerate(payload["slots"]):
            assert slot["model_index"] == index
            assert slot["anchors_index"] == 0
            assert slot["deployment"]["anchors"] is None
            assert slot["deployment"]["model"] is None

    def test_format_1_is_refused(self, served, pipeline):
        """... and format 2, whose deployments buffered raw windows, and
        format 3, whose arrays were base64 text."""
        _, payload, _ = served
        for version in (1, 2, 3):
            payload["fleet_format_version"] = version
            with pytest.raises(CheckpointError,
                               match="unsupported fleet format"):
                DeploymentFleet.from_dict(payload, pipeline.embedding_model,
                                          pipeline.generator)

    def test_from_dict_shares_again_and_continues(self, served, pipeline):
        _, payload, expected = served
        restored = DeploymentFleet.from_dict(
            payload, pipeline.embedding_model, pipeline.generator)
        assert_shares_what_a_mission_shares(restored)
        assert restored.slots[0].deployment.normal_anchor_windows \
            .flags.writeable is False
        for events in expected:
            assert_same_events(restored.step(), events)
        assert restored.batcher.batches_run == len(expected)

    def test_a_sharded_checkpoint_shares_again_and_continues(
            self, served, pipeline):
        """A checkpoint the former sharded fleet wrote is the plain
        format plus a ``"shards"`` hint and its ``"infra"``; one fleet
        loads it and ignores both."""
        _, payload, expected = served
        infra = FleetInfra.from_generator(pipeline.embedding_model.seed,
                                          pipeline.generator)
        restored = DeploymentFleet.from_dict(
            {**payload, "shards": 2, "infra": infra.to_payload()},
            pipeline.embedding_model, pipeline.generator)
        assert_shares_what_a_mission_shares(restored)
        for events in expected:
            assert_same_events(restored.step(), events)

    def test_recover_fleet_shares_again_and_continues(self, pipeline,
                                                      tmp_path):
        fleet, twin = shared_fleet(pipeline, 12), shared_fleet(pipeline, 12)
        durability = WalDurability(fleet, tmp_path)
        fleet.engine.durability = durability
        for round_index in range(8):
            for slot in fleet.slots:
                fleet.engine.submit(EngineRequest(
                    op="ingest", stream=slot.name,
                    windows=slot.stream.batch(round_index).windows))
            results = fleet.engine.run_round()
            assert_same_events([r.event for r in results], twin.step())
        del durability  # SIGKILL stand-in: no close, no parting snapshot

        recovered, report = recover_fleet(tmp_path)
        assert report.replayed == 8 * STREAMS
        assert_shares_what_a_mission_shares(recovered)
        for slot in recovered.slots:
            slot.cursor = 8  # replay feeds windows, not the slots' streams
        for _ in range(3):
            assert_same_events(recovered.step(), twin.step())


@pytest.mark.parametrize("adaptive", [False, True],
                         ids=["static", "adaptive"])
def test_build_sharded_fleet_builds_build_fleets_fleet(pipeline, adaptive):
    """``build_sharded_fleet`` (perfbench's ``sharded_large`` calls it)
    checks ``shards`` and builds :func:`build_fleet`'s fleet, bit for
    bit."""
    kwargs = dict(adaptive=adaptive, windows_per_step=2)
    ours = build_sharded_fleet(pipeline, [MISSION], STREAMS, shards=2,
                               **kwargs)
    theirs = build_fleet(pipeline, [MISSION], STREAMS, **kwargs)
    assert type(ours) is DeploymentFleet
    assert encode_payload(ours.to_dict()) == encode_payload(theirs.to_dict())
    assert_same_events(ours.step(), theirs.step())
    with pytest.raises(ConfigError, match="at least one shard"):
        build_sharded_fleet(pipeline, [MISSION], STREAMS, shards=0)


def test_adaptive_shift_shaped_checkpoint_holds_codes_and_continues():
    """perfbench's ``adaptive_shift`` fleet (eight streams of eight windows
    over two missions, the default monitor) after 62 steps: each stream
    checkpoints one monitor window of frame codes, and a restore continues
    bit for bit through the phases the Stealing streams then run."""
    cfg = ReproConfig()
    cfg.experiment.train_steps = 150
    cfg.apply_overrides(["adaptation.convergence.patience=1",
                         "adaptation.convergence.tolerance=0"])
    pipeline = Pipeline.from_config(cfg)
    fleet = build_fleet(pipeline, ["Stealing", "Robbery"], 8, adaptive=True,
                        windows_per_step=8, steps_before_shift=56,
                        steps_after_shift=16)
    for _ in range(62):
        fleet.step()
    payload = fleet.to_dict()
    assert len(encode_payload(payload)) <= 9_000_000  # 26.2 MB of raw windows
    for slot in payload["slots"]:
        assert len(slot["deployment"]["runtime"]["buffer"]) \
            == cfg.adaptation.monitor.window
    restored = DeploymentFleet.from_dict(
        decode_payload(encode_payload(payload))[0],
        pipeline.embedding_model, pipeline.generator)
    updates = [slot.deployment.update_count for slot in fleet.slots]
    for _ in range(8):
        assert_same_events(restored.step(), fleet.step())
    assert sum(updates) > 0
    assert sum(slot.deployment.update_count for slot in fleet.slots) \
        > sum(updates)
    for ours, theirs in zip(restored.slots, fleet.slots, strict=True):
        assert (encode_payload(ours.deployment.to_dict())
                == encode_payload(theirs.deployment.to_dict()))


# ----------------------------------------------------------------------
# (e) the trajectory's bits, pinned across refactors of the forward
# ----------------------------------------------------------------------
#: Taken in a child with one BLAS thread and the kernel forced
#: (:mod:`pinned_blas`); another BLAS build skips.
PINNED_DIGEST = \
    "bfe990acbb8075f986a0087d1adb8e32ede98412b6a635f5a39de37d73636875"


def trajectory_digest() -> str:
    """sha256 over every score, ``updated`` and ``len(pruned)`` of the
    40-round :func:`shared_fleet`, then every final token array."""
    cfg = deployment_config()
    cfg.adaptation.convergence = ConvergenceConfig(
        patience=1, tolerance=0.0, min_updates=2)
    fleet = shared_fleet(Pipeline.from_config(cfg))
    digest = hashlib.sha256()
    for events in fleet.serve():
        for event in events:
            digest.update(event.stream.encode())
            digest.update(np.asarray(event.scores, dtype=np.float64).tobytes())
            digest.update(bytes([event.log.updated, len(event.log.pruned)]))
    for model in models_of(fleet):
        for tensor in model.token_parameters():
            digest.update(repr(tensor.shape).encode())
            digest.update(tensor.data.tobytes())
    return digest.hexdigest()


def test_shared_fleet_trajectory_matches_its_pinned_digest():
    assert pinned_digest("test_serving_sharers",
                         "trajectory_digest") == PINNED_DIGEST
