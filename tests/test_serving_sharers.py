"""Adaptive streams as sharers of one frozen weight set.

A mission's GNNs, temporal model and decision head exist once; every
deployment of it owns only its KG state.  What must hold: (a) the guards —
a model *object* is still never shared with an adaptive deployment, shared
weights are, and shared modules refuse ``train()`` / ``unfreeze()``; (b) a
round over a mission's sharers is one forward; (c) N sharers follow, bit
for bit, the trajectories of N private models through token updates,
rollbacks and prunes; (d) a checkpoint stores what is shared once and every
restore path — ``DeploymentFleet.from_dict``, shard workers,
``recover_fleet`` — shares it again and continues identically.
"""

import copy
import json

import numpy as np
import pytest

from test_api_deployment import deployment_config

from repro.adaptation import ConvergenceConfig
from repro.api import Deployment, Pipeline
from repro.errors import StateError
from repro.runtime import EngineRequest
from repro.serving import (
    DeploymentFleet,
    FleetInfra,
    MicroBatcher,
    ScoreRequest,
    ShardedFleet,
)
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
        assert (ours.deployment.controller.export_state()
                == theirs.deployment.controller.export_state())
        # Weights included: the checkpoint cannot tell them apart.
        assert ours.deployment.to_dict() == theirs.deployment.to_dict()


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
    payload = json.loads(json.dumps(fleet.to_dict()))
    return fleet, payload, [twin.step() for _ in range(3)]


class TestCheckpointFollowsOwnership:
    def test_payload_stores_shared_things_once(self, served):
        _, payload, _ = served
        assert payload["fleet_format_version"] == 2
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
        _, payload, _ = served
        payload["fleet_format_version"] = 1
        with pytest.raises(ValueError, match="unsupported fleet format"):
            DeploymentFleet.from_dict(payload, pipeline.embedding_model,
                                      pipeline.generator)
        with pytest.raises(ValueError, match="unsupported fleet format"):
            ShardedFleet.from_dict(payload)

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

    def test_shard_workers_share_again_and_continue(self, served, pipeline):
        _, payload, expected = served
        with ShardedFleet.from_dict(
                payload, shards=2,
                infra=FleetInfra.from_pipeline(pipeline)) as sharded:
            # Identity as each worker sees it: cam-0 and cam-2 live in
            # shard 0 over one weight set, cam-1 alone in shard 1.
            stats = sharded.batcher_stats()
            assert stats["weight_sets"] == 2
            assert stats["token_states"] == STREAMS
            for events in expected:
                assert_same_events(sharded.step(), events)
            assert sharded.batcher_stats()["batches_run"] == 2 * len(expected)
            merged = sharded.to_dict()
        assert len(merged["weights"]) == len(merged["anchors"]) == 2
        assert len(merged["models"]) == STREAMS

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
