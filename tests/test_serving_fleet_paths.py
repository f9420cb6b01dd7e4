"""A restored fleet serves the rest of what ``build_fleet`` serves.

A fleet the engine served for some rounds is restored five ways:
``to_dict``/``from_dict``, ``save``/``load``, and ``recover_fleet`` over
a WAL that holds a parting snapshot, only its genesis snapshot plus every
logged ingest, or a snapshot every two rounds plus the tail behind the
newest.  Whatever the way and whichever round it is restored after, the
fleet must serve ``build_fleet``'s remaining events bit for bit — static
and adaptive, token updates and prunes included — through
``ingest_round`` and through the engine's queued rounds alike.  A fleet
that pulled its own streams (``step()``) and is restored from a
checkpoint or a parting snapshot resumes every stream at its cursor.
"""

import numpy as np
import pytest

from test_api_deployment import deployment_config

from repro.api import Pipeline
from repro.runtime import EngineRequest
from repro.serving import DeploymentFleet, build_fleet
from repro.wal import SnapshotPolicy, WalConfig, WalDurability, recover_fleet

MISSIONS = ["Stealing", "Robbery"]
STREAMS = 2
ROUNDS = 5  # adaptive streams adapt from round 1 and prune by round 4
FLEET = dict(windows_per_step=12, stream_seed=40)
#: The paper-literal pruning rule, so that nodes are pruned within ROUNDS.
PRUNING = ["adaptation.convergence.patience=1",
           "adaptation.convergence.tolerance=0"]
#: Each way of restoring, and the snapshot policy of the WAL its fleet
#: logs its rounds to (None: no WAL before the fleet is restored).
WAYS = {"from_dict": None, "load": None, "wal_parting": None,
        "wal_genesis": SnapshotPolicy(every_rounds=None, max_log_bytes=None),
        "wal_tail": SnapshotPolicy(every_rounds=2, max_log_bytes=None)}
#: The ways that store stream cursors: a WAL's ingest records do not.
CURSOR_WAYS = ["from_dict", "load", "wal_parting"]


@pytest.fixture(scope="module")
def pipeline():
    cfg = deployment_config()
    cfg.apply_overrides(PRUNING)
    pipe = Pipeline.from_config(cfg)
    for mission in MISSIONS:
        pipe.train(mission)
    return pipe


def make(pipeline, adaptive) -> DeploymentFleet:
    return build_fleet(pipeline, MISSIONS, STREAMS, adaptive=adaptive,
                       **FLEET)


@pytest.fixture(scope="module")
def reference(pipeline):
    """Per ``adaptive``: each round's arrivals and ``build_fleet``'s
    events for them, served by ``step()``."""
    runs = {}
    for adaptive in (False, True):
        fleet = make(pipeline, adaptive)
        arrivals = [{slot.name: np.asarray(slot.stream.batch(index).windows,
                                           dtype=np.float64)
                     for slot in fleet.slots} for index in range(ROUNDS)]
        runs[adaptive] = arrivals, [fleet.step() for _ in range(ROUNDS)]
    logs = [event.log for events in runs[True][1] for event in events]
    assert any(log.updated for log in logs)
    assert any(log.pruned for log in logs)
    return runs


def serve(fleet, arrivals, via) -> list:
    """One round over ``arrivals``; events in attach order."""
    if via == "ingest_round":
        events = fleet.ingest_round(arrivals)
    else:
        engine = fleet.engine
        for name, windows in arrivals.items():
            engine.submit(EngineRequest(op="ingest", stream=name,
                                        windows=windows))
        events = {}
        for result in engine.run_round():
            assert result.kind == "event", result.message
            events[result.request.stream] = result.event
    return [events[name] for name in fleet.names]


def assert_same_events(ours, theirs, pulled=False):
    assert [e.stream for e in ours] == [e.stream for e in theirs]
    for a, b in zip(ours, theirs):
        assert a.step == b.step
        assert np.array_equal(a.scores, b.scores)
        assert a.log.updated == b.log.updated
        assert a.log.pruned == b.log.pruned
        if pulled:  # only a batch pulled from a stream knows its class
            assert a.active_class == b.active_class


def restore(fleet, way, wal_dir) -> DeploymentFleet:
    if way in ("from_dict", "load"):
        generator = fleet.slots[0].stream.generator
        if way == "from_dict":
            return DeploymentFleet.from_dict(fleet.to_dict(),
                                             generator.model, generator)
        fleet.save(wal_dir.parent / "fleet.bin")
        return DeploymentFleet.load(wal_dir.parent / "fleet.bin",
                                    generator.model, generator)
    if way == "wal_parting":
        WalDurability(fleet, wal_dir).close(fleet.engine)
    else:
        # A crash: the log was never closed and holds no parting snapshot.
        fleet.engine.durability.wal.flush()
    return recover_fleet(wal_dir)[0]


@pytest.mark.parametrize("via", ["ingest_round", "engine"])
@pytest.mark.parametrize("adaptive", [False, True],
                         ids=["static", "adaptive"])
@pytest.mark.parametrize("after", range(ROUNDS))
@pytest.mark.parametrize("way", list(WAYS))
def test_a_restored_fleet_serves_the_remaining_rounds(
        pipeline, reference, tmp_path, way, after, adaptive, via):
    arrivals, expected = reference[adaptive]
    fleet = make(pipeline, adaptive)
    wal_dir = tmp_path / "wal"
    if WAYS[way] is not None:
        fleet.engine.durability = WalDurability(
            fleet, wal_dir, config=WalConfig(fsync_batch=8),
            policy=WAYS[way])
    for index in range(after):
        assert_same_events(serve(fleet, arrivals[index], "engine"),
                           expected[index])
    restored = restore(fleet, way, wal_dir)
    assert restored.names == fleet.names
    for index in range(after, ROUNDS):
        assert_same_events(serve(restored, arrivals[index], via),
                           expected[index])


@pytest.mark.parametrize("adaptive", [False, True],
                         ids=["static", "adaptive"])
@pytest.mark.parametrize("after", range(ROUNDS))
@pytest.mark.parametrize("way", CURSOR_WAYS)
def test_a_restored_fleet_steps_on_from_its_cursors(
        pipeline, reference, tmp_path, way, after, adaptive):
    _, expected = reference[adaptive]
    fleet = make(pipeline, adaptive)
    for index in range(after):
        assert_same_events(fleet.step(), expected[index], pulled=True)
    restored = restore(fleet, way, tmp_path / "wal")
    assert [slot.cursor for slot in restored.slots] == [after] * STREAMS
    for index in range(after, ROUNDS):
        assert_same_events(restored.step(), expected[index], pulled=True)
