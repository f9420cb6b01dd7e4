"""A sharded fleet serves what one fleet serves, on threads or not.

:class:`ShardedFleet` runs a round's shards on a thread pool when its
process may use two or more CPUs, and one after another on the round
thread when it may use one.  Every way of making a sharded fleet —
``build_sharded_fleet``, ``from_fleet``, ``from_dict`` and sharding what
``recover_fleet`` rebuilt (one :class:`DeploymentFleet`) with
``from_fleet`` — must serve ``build_fleet``'s events bit for bit either
way, adaptation and pruning included, and on one CPU no thread may
start.
"""

import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from test_api_deployment import deployment_config

import repro
import repro.serving.sharded as sharded_module
from repro.api import Deployment, ModelRegistry, Pipeline
from repro.data import TrendShiftConfig, TrendShiftStream
from repro.serving import (DeploymentFleet, FleetInfra, ShardedFleet,
                           build_fleet, build_sharded_fleet)
from repro.utils.serialization import atomic_write_bytes
from repro.wal import WalDurability, recover_fleet

MISSIONS = ["Stealing", "Robbery"]
STREAMS = 4
ROUNDS = 5  # adaptive streams adapt from round 1 and prune by round 4
FLEET = dict(windows_per_step=12, stream_seed=40)
#: The paper-literal pruning rule, so that nodes are pruned within ROUNDS.
PRUNING = ["adaptation.convergence.patience=1",
           "adaptation.convergence.tolerance=0"]


def config():
    cfg = deployment_config()
    cfg.apply_overrides(PRUNING)
    return cfg


@pytest.fixture(scope="module")
def pipeline():
    pipe = Pipeline.from_config(config())
    for mission in MISSIONS:
        pipe.train(mission)
    return pipe


@pytest.fixture(scope="module")
def reference(pipeline):
    """``build_fleet``'s events over ROUNDS rounds, static and adaptive."""
    events = {}
    for adaptive in (False, True):
        fleet = build_fleet(pipeline, MISSIONS, STREAMS, adaptive=adaptive,
                            **FLEET)
        events[adaptive] = [fleet.step() for _ in range(ROUNDS)]
    logs = [event.log for rounds in events[True] for event in rounds]
    assert any(log.updated for log in logs)
    assert any(log.pruned for log in logs)
    return events


def assert_same_events(ours, theirs):
    assert [e.stream for e in ours] == [e.stream for e in theirs]
    for a, b in zip(ours, theirs):
        assert a.step == b.step
        assert a.active_class == b.active_class
        assert np.array_equal(a.scores, b.scores)
        assert a.log.updated == b.log.updated
        assert a.log.pruned == b.log.pruned


def make_sharded(how, pipeline, adaptive, shards, tmp_path):
    if how == "build_sharded_fleet":
        return build_sharded_fleet(pipeline, MISSIONS, STREAMS, shards=shards,
                                   adaptive=adaptive, **FLEET)
    fleet = build_fleet(pipeline, MISSIONS, STREAMS, adaptive=adaptive,
                        **FLEET)
    if how == "from_fleet":
        return ShardedFleet.from_fleet(fleet, shards)
    if how == "from_dict":
        return ShardedFleet.from_dict(fleet.to_dict(), shards=shards,
                                      infra=FleetInfra.from_pipeline(pipeline))
    WalDurability(fleet, tmp_path).close()
    return ShardedFleet.from_fleet(recover_fleet(tmp_path)[0], shards)


def shard_threads() -> list[threading.Thread]:
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("shard")]


@pytest.mark.parametrize("cpus", [1, 2], ids=["1cpu", "2cpus"])
@pytest.mark.parametrize("adaptive", [False, True],
                         ids=["static", "adaptive"])
@pytest.mark.parametrize("shards", [1, 2, 3])
@pytest.mark.parametrize("how", ["build_sharded_fleet", "from_fleet",
                                 "from_dict", "recover_fleet"])
def test_sharded_serves_what_one_fleet_serves(
        pipeline, reference, monkeypatch, tmp_path, how, shards, adaptive,
        cpus):
    monkeypatch.setattr(sharded_module, "_cpu_count", lambda: cpus)
    threads_before = threading.active_count()
    with make_sharded(how, pipeline, adaptive, shards, tmp_path) as fleet:
        for expected in reference[adaptive]:
            assert_same_events(fleet.step(), expected)
        pool = fleet.transport_stats()["pool_threads"]
        if cpus == 1 or shards == 1:
            assert pool == 0
            assert threading.active_count() == threads_before
        else:
            assert pool == 2
            assert 1 <= len(shard_threads()) <= 2
    assert shard_threads() == []


def test_more_pool_threads_than_cores_switching_often(
        pipeline, reference, monkeypatch):
    """Three shard threads on this machine's cores, the interpreter
    switching threads every 10 µs: adaptive rounds stay bit-identical."""
    monkeypatch.setattr(sharded_module, "_cpu_count", lambda: 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with build_sharded_fleet(pipeline, MISSIONS, STREAMS, shards=3,
                                 adaptive=True, **FLEET) as fleet:
            assert fleet.transport_stats()["pool_threads"] == 3
            for expected in reference[True]:
                assert_same_events(fleet.step(), expected)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cpus", [1, 2], ids=["1cpu", "2cpus"])
def test_streams_sharing_a_model_get_a_copy_per_shard(
        fresh_model, frame_generator, monkeypatch, cpus):
    """Two streams over one model object, attached to two shards: each
    shard scores its own copy, so threads never share a model."""
    monkeypatch.setattr(sharded_module, "_cpu_count", lambda: cpus)
    model = fresh_model("Stealing", window=4)
    model.eval()
    single = DeploymentFleet()
    sharded = ShardedFleet(2, infra=FleetInfra(embedding_seed=7,
                                               generator_seed=5))
    with sharded:
        for index in range(2):
            for fleet in (single, sharded):
                fleet.add(f"cam-{index}",
                          Deployment(model, mission="Stealing",
                                     adaptive=False),
                          TrendShiftStream(frame_generator, TrendShiftConfig(
                              steps_before_shift=2, steps_after_shift=2,
                              windows_per_step=3, window=4, seed=60 + index)))
        assert sharded.assignment == {"cam-0": 0, "cam-1": 1}
        models = [fleet.slots[0].deployment.model
                  for fleet in sharded._fleets()]
        assert models[0] is not models[1]
        assert model not in models
        for _ in range(4):
            ours, theirs = sharded.step(), single.step()
            assert [e.stream for e in ours] == [e.stream for e in theirs]
            for a, b in zip(ours, theirs):
                assert np.array_equal(a.scores, b.scores)


POOLED = textwrap.dedent("""
    import sys
    import numpy as np
    import repro.serving.sharded as sharded_module
    from repro.api import Pipeline, ReproConfig
    from repro.serving import build_fleet, build_sharded_fleet

    sharded_module._cpu_count = lambda: 2
    pipeline = Pipeline.from_config(ReproConfig.load(sys.argv[1]))
    kwargs = dict(adaptive=True, windows_per_step=12, stream_seed=40)
    single = build_fleet(pipeline, ["Stealing", "Robbery"], 4, **kwargs)
    with build_sharded_fleet(pipeline, ["Stealing", "Robbery"], 4,
                             shards=3, **kwargs) as sharded:
        for _ in range(5):
            for a, b in zip(sharded.step(), single.step()):
                assert a.stream == b.stream
                assert np.array_equal(a.scores, b.scores), a.stream
                assert a.log.pruned == b.log.pruned, a.stream
        assert sharded.transport_stats()["pool_threads"] == 2
    print("ok")
""")


@pytest.mark.parametrize("blas_threads", [1, 2],
                         ids=["openblas1", "openblas2"])
def test_pooled_shards_are_bit_identical_under_threaded_blas(
        pipeline, tmp_path, blas_threads):
    """Three shards on a two-thread pool, in a process whose BLAS runs
    ``blas_threads`` threads: the coalesced == solo row contract and
    concurrent GEMM calls must still give one fleet's scores."""
    registry = ModelRegistry(tmp_path / "registry")
    for mission in MISSIONS:
        key = registry.key(mission, pipeline._fingerprint())
        atomic_write_bytes(registry._path(key),
                           pipeline.registry._entries[key])
    cfg = config()
    cfg.registry_dir = str(registry.root)
    cfg.save(tmp_path / "config.json")
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(blas_threads),
           "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    run = subprocess.run(
        [sys.executable, "-c", POOLED, str(tmp_path / "config.json")],
        env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "ok"
