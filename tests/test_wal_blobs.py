"""Content-addressed snapshot blobs: frozen weights hit the WAL once.

A durable fleet's snapshot stores each weight set and anchor array as a
``<sha256>.blob`` file beside the segments and names it by digest.  What
must hold: (a) N snapshots leave one blob per weight set / anchor array
encode each weight set once and write small
records; (b) a record with
inline entries — what older versions wrote — still recovers; (c) a
missing or damaged blob is a typed error naming its digest; (d) blobs
the newest snapshot no longer names are deleted; (e) a snapshot torn
after its blob landed recovers from the one before; (f) rebinding a
model's weights writes a new blob that recovery scores with.  Plus: the
embedding fingerprint is hashed once per token table.
"""

import hashlib

import numpy as np
import pytest

from test_wal_recovery import make_durable, make_stream, serve_rounds

from repro.api import Deployment
from repro.embedding import build_default_embedding_model
from repro.errors import RecoveryError
from repro.gnn import MissionGNNConfig, MissionGNNModel
from repro.nn.layers import Module
from repro.serving import DeploymentFleet
from repro.utils.binframe import encode_payload
from repro.wal import (WriteAheadLog, infra_for_fleet, recover_fleet,
                       snapshot_record)

MISSIONS = ("Stealing", "Robbery")
STREAMS = 4
ROUNDS = 3


@pytest.fixture()
def two_missions(fresh_model, frame_generator):
    """Factory: ``STREAMS`` streams over two missions — static streams
    share each mission's model, adaptive ones are sharers of it with the
    mission's one read-only anchor array."""
    def make(adaptive=False, streams=STREAMS):
        bases = {mission: fresh_model(mission, window=4, seed=7 + index)
                 for index, mission in enumerate(MISSIONS)}
        fleet = DeploymentFleet()
        for index in range(streams):
            mission = MISSIONS[index % 2]
            stream = make_stream(frame_generator, seed=60 + index)
            if adaptive:
                anchors = make_stream(frame_generator, seed=index % 2) \
                    .batch(0).windows
                anchors.flags.writeable = False
                deployment = Deployment(bases[mission].sharer(),
                                        mission=mission,
                                        normal_anchor_windows=anchors)
            else:
                bases[mission].eval()
                deployment = Deployment(bases[mission], mission=mission,
                                        adaptive=False)
            fleet.add(f"{mission.lower()}-{index}", deployment, stream)
        return fleet
    return make


def arrivals(fleet, rounds=ROUNDS + 1):
    return {slot.name: [np.asarray(slot.stream.batch(r).windows)
                        for r in range(rounds)] for slot in fleet.slots}


def blobs(wal_dir) -> set[str]:
    return {path.stem for path in wal_dir.glob("*.blob")}


def assert_continues_alike(recovered, live, windows):
    """The recovered fleet serves the next round to the live fleet's bits."""
    assert sorted(recovered.names) == sorted(live.names)
    batch = {name: windows[name][-1] for name in live.names}
    ours, theirs = recovered.ingest_round(batch), live.ingest_round(batch)
    for name in live.names:
        assert np.array_equal(ours[name].scores, theirs[name].scores)


# ----------------------------------------------------------------------
# (a) one blob per shared entry, small records, one encode per weight set
# ----------------------------------------------------------------------
@pytest.mark.parametrize("adaptive", [False, True])
def test_snapshots_write_each_shared_entry_once(two_missions, tmp_path,
                                                monkeypatch, adaptive):
    # An adaptive stream's KG tokens and monitor buffer are its own and do
    # change: one stream per mission keeps them inside the record bound.
    fleet = two_missions(adaptive, streams=2 if adaptive else STREAMS)
    windows = arrivals(fleet)
    inline_bytes = len(encode_payload(fleet.to_dict()))
    encodes = []
    state_dict = Module.state_dict
    monkeypatch.setattr(Module, "state_dict",
                        lambda self: encodes.append(self) or state_dict(self))

    durability = make_durable(fleet, tmp_path)
    record_bytes = []
    for round_index in range(ROUNDS):
        serve_rounds(fleet, windows, count=1, start=round_index)
        durability.snapshot(fleet.engine)
        # The snapshot rotated into a fresh segment and is alone in it.
        record_bytes.append(durability.wal.segment_paths[-1].stat().st_size)

    assert len(encodes) == len(MISSIONS)  # genesis only, one per weight set
    written = blobs(tmp_path)
    assert len(written) == len(MISSIONS) * (2 if adaptive else 1)
    assert max(record_bytes) < 0.1 * inline_bytes
    metrics = durability.wal.metrics
    assert metrics.gauge("wal.blobs").value == len(written)
    assert metrics.gauge("wal.blob_bytes").value == sum(
        (tmp_path / f"{digest}.blob").stat().st_size for digest in written)
    sizes = metrics.histogram("wal.snapshot_bytes").summary()
    assert sizes["count"] == ROUNDS + 1  # + genesis
    assert sizes["p50_bytes"] <= max(record_bytes)

    recovered, report = recover_fleet(tmp_path)
    assert report.replayed == 0
    assert_continues_alike(recovered, fleet, windows)


# ----------------------------------------------------------------------
# (b) records with inline entries still recover
# ----------------------------------------------------------------------
def test_inline_snapshot_record_recovers(two_missions, tmp_path):
    fleet = two_missions(adaptive=True)
    windows = arrivals(fleet)
    for round_index in range(2):
        fleet.ingest_round({name: windows[name][round_index]
                            for name in fleet.names})
    with WriteAheadLog(tmp_path) as wal:
        wal.append(snapshot_record(fleet.to_dict(),
                                   infra_for_fleet(fleet).to_payload(), {}),
                   sync=True)
    recovered, report = recover_fleet(tmp_path)
    assert blobs(tmp_path) == set()
    assert_continues_alike(recovered, fleet, windows)


# ----------------------------------------------------------------------
# (c) a missing or damaged blob is a typed error naming its digest
# ----------------------------------------------------------------------
@pytest.mark.parametrize("damage", ["missing", "truncated", "mismatched"])
def test_damaged_blob_is_a_recovery_error(two_missions, tmp_path, damage):
    fleet = two_missions()
    make_durable(fleet, tmp_path).wal.flush()
    victim, other = sorted(tmp_path.glob("*.blob"))
    if damage == "missing":
        victim.unlink()
    elif damage == "truncated":
        victim.write_bytes(victim.read_bytes()[:1000])
    else:
        victim.write_bytes(other.read_bytes())
    with pytest.raises(RecoveryError, match=victim.stem):
        recover_fleet(tmp_path)


# ----------------------------------------------------------------------
# (d) a mission that left takes its blobs with it
# ----------------------------------------------------------------------
def test_detached_mission_blobs_are_collected(two_missions, tmp_path):
    fleet = two_missions(adaptive=True)
    windows = arrivals(fleet)
    durability = make_durable(fleet, tmp_path)
    before = blobs(tmp_path)
    serve_rounds(fleet, windows, count=1)
    for name in [name for name in fleet.names if name.startswith("robbery")]:
        fleet.remove(name)
    durability.snapshot(fleet.engine)
    after = blobs(tmp_path)
    assert after < before and len(before - after) == 2  # weights + anchors

    recovered, _ = recover_fleet(tmp_path)
    assert_continues_alike(recovered, fleet, windows)


# ----------------------------------------------------------------------
# (e) a snapshot torn after its blob landed
# ----------------------------------------------------------------------
class Crash(Exception):
    pass


def test_torn_snapshot_recovers_from_the_previous_one(
        two_missions, fresh_model, tmp_path):
    fleet = two_missions()
    twin = two_missions()
    windows = arrivals(fleet)
    durability = make_durable(fleet, tmp_path)
    serve_rounds(fleet, windows, count=2)
    for round_index in range(2):
        twin.ingest_round({name: windows[name][round_index]
                           for name in twin.names})
    # The live Stealing weights are rebound: the next snapshot writes
    # their blob, and the twin keeps the weights the log knows.
    fleet.slots[0].deployment.model.load_state_dict(
        fresh_model("Stealing", window=4, seed=11).state_dict())
    genesis = blobs(tmp_path)

    wal = durability.wal
    append = wal.append

    def torn_append(record, sync=False):
        seq = append(record, sync)
        if record["kind"] == "snapshot":  # power lost mid-frame
            segment = wal.segment_paths[-1]
            with segment.open("r+b") as handle:
                handle.truncate(segment.stat().st_size // 2)
            raise Crash
        return seq

    wal.append = torn_append
    with pytest.raises(Crash):
        durability.snapshot(fleet.engine)
    assert len(blobs(tmp_path) - genesis) == 1  # the blob landed first
    del durability

    recovered, report = recover_fleet(tmp_path)
    assert report.snapshot_seq == 0
    assert report.replayed == 2 * STREAMS
    assert_continues_alike(recovered, twin, windows)


# ----------------------------------------------------------------------
# (f) rebound weights are a new blob
# ----------------------------------------------------------------------
def test_rebound_weights_write_a_new_blob(two_missions, fresh_model,
                                          tmp_path):
    fleet = two_missions()
    windows = arrivals(fleet)
    durability = make_durable(fleet, tmp_path)
    before = blobs(tmp_path)
    probe = {name: windows[name][0] for name in fleet.names}
    old_scores = fleet.score_only(probe)
    fleet.slots[0].deployment.model.load_state_dict(
        fresh_model("Stealing", window=4, seed=11).state_dict())
    durability.snapshot(fleet.engine)
    after = blobs(tmp_path)
    assert len(after) == len(before) and len(after - before) == 1

    recovered, _ = recover_fleet(tmp_path)
    new_scores = recovered.score_only(probe)
    for name, scores in fleet.score_only(probe).items():
        assert np.array_equal(new_scores[name], scores)
        assert np.array_equal(scores, old_scores[name]) \
            == name.startswith("robbery")


# ----------------------------------------------------------------------
# The embedding fingerprint: hashed once per token table
# ----------------------------------------------------------------------
def test_fingerprint_is_hashed_once_per_token_table(
        fresh_kg, frame_generator, monkeypatch):
    embedding = build_default_embedding_model(seed=7)  # nothing hashed yet
    model = MissionGNNModel([fresh_kg()], embedding,
                            MissionGNNConfig(temporal_window=4))
    model.eval()
    fleet = DeploymentFleet()
    for index in range(16):
        fleet.add(f"cam-{index}", Deployment(model, adaptive=False),
                  make_stream(frame_generator, seed=index))
    hashes = []
    sha256 = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256",
                        lambda *data: hashes.append(data) or sha256(*data))

    payload = fleet.to_dict()
    fleet.to_dict()
    DeploymentFleet.from_dict(payload, embedding, frame_generator)
    assert len(hashes) == 1
    assert {slot["deployment"]["embedding_fingerprint"]
            for slot in payload["slots"]} == {"4129d2ab5dba44bc"}
