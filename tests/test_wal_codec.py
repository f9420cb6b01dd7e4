"""WAL record-encoding tests: binary ingest bodies on disk, refusal of
pre-binary (base64-in-JSON) logs, and corruption typing.
"""

import json
import struct
import zlib

import numpy as np
import pytest

from repro import cli
from repro.api import Deployment
from repro.data import TrendShiftConfig, TrendShiftStream
from repro.errors import RecoveryError, WalCorruptionError
from repro.serving import DeploymentFleet
from repro.utils.binframe import BIN_MAGIC
from repro.utils.serialization import encode_array
from repro.wal import (
    WalDurability,
    WriteAheadLog,
    ingest_record,
    record_windows,
    recover_fleet,
    skip_record,
)

FRAME = struct.Struct("<II")


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
