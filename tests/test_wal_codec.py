"""WAL record-encoding tests: binary ingest bodies on disk, refusal of
pre-binary (base64-in-JSON) logs, snapshots and blobs, and corruption
typing.
"""

import base64
import hashlib
import json
import struct
import zlib

import numpy as np
import pytest

from repro import cli
from repro.api import Deployment
from repro.data import TrendShiftConfig, TrendShiftStream
from repro.errors import RecoveryError, WalCorruptionError
from repro.metrics import MetricsRegistry
from repro.serving import DeploymentFleet
from repro.utils import binframe
from repro.utils.binframe import BIN_MAGIC
from repro.wal import (
    BlobStore,
    WalDurability,
    WriteAheadLog,
    ingest_record,
    read_records,
    record_windows,
    recover_fleet,
    skip_record,
)

FRAME = struct.Struct("<II")


def encode_array(array) -> dict:
    """An array in the pre-binary form older versions wrote: base64 of
    its float64 bytes plus its shape."""
    array = np.asarray(array, dtype=np.float64)
    return {"shape": list(array.shape),
            "data": base64.b64encode(array.tobytes()).decode()}


def as_base64(value):
    """``value`` with every array spelled the pre-binary way."""
    if isinstance(value, np.ndarray):
        return encode_array(value)
    if isinstance(value, dict):
        return {key: as_base64(item) for key, item in value.items()}
    if isinstance(value, list):
        return [as_base64(item) for item in value]
    return value


def frame_bytes(payload: bytes) -> bytes:
    return FRAME.pack(len(payload), zlib.crc32(payload)) + payload


@pytest.fixture()
def windows():
    return np.random.default_rng(9).normal(size=(3, 4, 6))


class TestBinaryRecords:
    def test_ingest_round_trip_is_bit_exact(self, tmp_path, windows):
        with WriteAheadLog(tmp_path) as log:
            log.append(ingest_record("cam-1", windows), sync=True)
            log.append(skip_record(0), sync=True)
        with WriteAheadLog(tmp_path) as log:
            records = list(log.replay())
        assert [r["kind"] for r in records] == ["ingest", "skip"]
        back = record_windows(records[0])
        assert back.dtype == np.float64
        assert back.tobytes() == windows.tobytes()

    def test_on_disk_frame_is_binary(self, tmp_path, windows):
        with WriteAheadLog(tmp_path) as log:
            log.append(ingest_record("cam-1", windows), sync=True)
            path = log.segment_paths[0]
        payload = path.read_bytes()[FRAME.size:]
        assert payload[:2] == BIN_MAGIC
        # and is substantially smaller than the base64-JSON encoding
        legacy = json.dumps({"kind": "ingest", "stream": "cam-1", "seq": 0,
                             "windows": encode_array(windows)})
        assert len(payload) < len(legacy)

    def test_segment_bytes_are_pinned(self, tmp_path):
        """An ingest and a skip record on disk, byte for byte: the log a
        build writes is the log every later build recovers."""
        windows = np.linspace(-2.0, 2.0, 3 * 4 * 6).reshape(3, 4, 6)
        with WriteAheadLog(tmp_path) as log:
            log.append(ingest_record("cam-1", windows), sync=True)
            log.append(skip_record(0), sync=True)
            [path] = log.segment_paths
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "9f3bcbd4be97a3349a424882ffa31516b75751c5488af8ab3d871b8f0e50e530")

    def test_records_without_arrays_stay_json(self, tmp_path):
        with WriteAheadLog(tmp_path) as log:
            log.append(skip_record(7), sync=True)
            path = log.segment_paths[0]
        payload = path.read_bytes()[FRAME.size:]
        assert payload[:1] == b"{"
        assert json.loads(payload)["kind"] == "skip"

    def test_nan_inf_windows_survive(self, tmp_path):
        ugly = np.array([[[np.nan, np.inf, -np.inf, -0.0]]])
        with WriteAheadLog(tmp_path) as log:
            log.append(ingest_record("cam-1", ugly), sync=True)
        with WriteAheadLog(tmp_path) as log:
            back = record_windows(next(iter(log.replay())))
        assert back.tobytes() == ugly.tobytes()


class TestPreBinaryLog:
    def test_pre_binary_ingest_record_is_refused(self, tmp_path, fresh_model,
                                                 frame_generator):
        """A durable fleet's log gains, by hand, a CRC-valid ingest record
        in the pre-binary format (base64-in-JSON windows).  Recovery must
        refuse the log with a typed error naming the format, not decode
        the record and not recover a fleet that skipped it."""
        fleet = DeploymentFleet()
        model = fresh_model("Stealing", window=4)
        model.eval()
        fleet.add("cam-0", Deployment(model, mission="Stealing",
                                      adaptive=False),
                  TrendShiftStream(frame_generator, TrendShiftConfig(
                      steps_before_shift=1, steps_after_shift=1,
                      windows_per_step=2, window=4, seed=40)))
        windows = np.asarray(fleet.slots[0].stream.batch(0).windows,
                             dtype=np.float64)
        with fleet:
            durability = WalDurability(fleet, tmp_path)
            durability.close(fleet.engine)
        with WriteAheadLog(tmp_path) as log:
            seq, index = log.next_seq, log.segment_count + 1
        legacy = json.dumps({"kind": "ingest", "stream": "cam-0", "seq": seq,
                             "windows": encode_array(windows)}).encode()
        segment = tmp_path / f"{index:08d}.wal"
        segment.write_bytes(frame_bytes(legacy))

        with pytest.raises(RecoveryError, match="pre-binary WAL format"):
            recover_fleet(tmp_path)
        with pytest.raises(SystemExit, match="pre-binary WAL format"):
            cli.main(["recover", str(tmp_path)])
        # Without the legacy record the same directory recovers.
        segment.unlink()
        recovered, report = recover_fleet(tmp_path)
        with recovered:
            assert recovered.names == ["cam-0"]
            assert report.replayed == 0


    @pytest.fixture()
    def durable_log(self, tmp_path, fresh_model, frame_generator):
        """A closed durable log of one adaptive stream (so its snapshot
        holds KG tokens and a code buffer)."""
        fleet = DeploymentFleet()
        model = fresh_model("Stealing", window=4)
        fleet.add("cam-0", Deployment(model, mission="Stealing"),
                  TrendShiftStream(frame_generator, TrendShiftConfig(
                      steps_before_shift=1, steps_after_shift=1,
                      windows_per_step=2, window=4, seed=40)))
        deployment, stream = fleet.slots[0].deployment, fleet.slots[0].stream
        for step in range(2):
            deployment.ingest(stream.batch(step).windows)
        with fleet:
            durability = WalDurability(fleet, tmp_path)
            durability.close(fleet.engine)
        return tmp_path

    def test_base64_snapshot_is_refused(self, durable_log, tmp_path_factory):
        """The same snapshot written the pre-binary way (fleet format 3,
        base64-in-JSON arrays, weights inline) is refused, naming the log
        and the fix."""
        [snapshot] = read_records(durable_log)
        inline = BlobStore(durable_log, MetricsRegistry()).resolve(
            snapshot["fleet"])
        legacy = as_base64({**snapshot, "fleet": {
            **inline, "fleet_format_version": 3}})
        old = tmp_path_factory.mktemp("old-wal")
        (old / "00000001.wal").write_bytes(
            frame_bytes(json.dumps(legacy).encode()))
        with pytest.raises(RecoveryError) as excinfo:
            recover_fleet(old)
        message = str(excinfo.value)
        assert str(old) in message and "fleet format version: 3" in message
        assert "the version that wrote it" in message

    def test_format_3_deployment_in_a_snapshot_is_refused(
            self, durable_log, tmp_path_factory):
        """A snapshot whose deployments are format 3 (they carried optimizer
        state and per-step trails) is refused by the version check, naming
        the log."""
        [snapshot] = read_records(durable_log)
        slot = snapshot["fleet"]["slots"][0]
        old_slot = {**slot, "deployment": {**slot["deployment"],
                                           "format_version": 3}}
        old_record = {**snapshot,
                      "fleet": {**snapshot["fleet"], "slots": [old_slot]}}
        old = tmp_path_factory.mktemp("format-3-wal")
        for blob in durable_log.glob("*.blob"):
            (old / blob.name).write_bytes(blob.read_bytes())
        (old / "00000001.wal").write_bytes(
            frame_bytes(binframe.encode_payload(old_record)))
        with pytest.raises(RecoveryError) as excinfo:
            recover_fleet(old)
        message = str(excinfo.value)
        assert str(old) in message
        assert "deployment format version: 3" in message

    def test_base64_blob_is_refused(self, durable_log):
        """A weight blob in the pre-binary JSON form is a typed recovery
        error naming the blob and the format."""
        blob = next(durable_log.glob("*.blob"))
        blob.write_text(json.dumps({"w": encode_array(np.ones(3))}))
        with pytest.raises(RecoveryError) as excinfo:
            recover_fleet(durable_log)
        assert blob.stem in str(excinfo.value)
        assert "base64-in-JSON" in str(excinfo.value)

    def test_adaptive_snapshot_round_trips_bit_identically(self,
                                                          durable_log):
        """The snapshot's nested arrays (code buffer, KG tokens) come back
        from the binary record to the same bits."""
        [snapshot] = read_records(durable_log)
        runtime = snapshot["fleet"]["slots"][0]["deployment"]["runtime"]
        assert len(runtime["buffer"]) == 4
        assert all(isinstance(code, np.ndarray) for code in runtime["buffer"])
        fleet, _ = recover_fleet(durable_log)
        with fleet:
            again = fleet.to_dict()
        for key in ("models", "slots"):
            assert (binframe.encode_payload({key: again[key]})
                    == binframe.encode_payload({key: snapshot["fleet"][key]}))


class TestCorruption:
    def test_crc_valid_garbage_binary_is_typed(self, tmp_path):
        """A frame that passes its CRC but holds a malformed binary body
        is version-skew corruption, not a torn tail: typed error."""
        garbage = BIN_MAGIC + b"\x00" * 30
        (tmp_path / "00000001.wal").write_bytes(frame_bytes(garbage))
        with pytest.raises(WalCorruptionError, match="binary record"):
            WriteAheadLog(tmp_path)

    def test_binary_body_without_seq_is_typed(self, tmp_path):
        from repro.utils.binframe import encode_payload
        payload = encode_payload({"kind": "ingest", "stream": "cam-1",
                                  "windows": np.zeros((1, 2, 2))})
        (tmp_path / "00000001.wal").write_bytes(frame_bytes(payload))
        with pytest.raises(WalCorruptionError, match="seq"):
            WriteAheadLog(tmp_path)

    def test_torn_binary_tail_is_repaired(self, tmp_path, windows):
        with WriteAheadLog(tmp_path) as log:
            log.append(ingest_record("cam-1", windows), sync=True)
            log.append(ingest_record("cam-2", windows + 1), sync=True)
            path = log.segment_paths[0]
        data = path.read_bytes()
        path.write_bytes(data[:-20])       # tear the final binary frame
        log = WriteAheadLog(tmp_path)
        assert log.repaired_bytes > 0
        records = list(log.replay())
        assert [r["stream"] for r in records] == ["cam-1"]
        assert record_windows(records[0]).tobytes() == windows.tobytes()
        log.close()
