"""The append-only segmented write-ahead log.

:class:`WriteAheadLog` owns a directory of numbered segment files
(``00000001.wal``, ``00000002.wal``, ...) and appends CRC32-framed
records to the highest one.  Each frame is::

    [u32 payload length][u32 crc32(payload)][payload bytes]

little-endian, with the payload being one record dict (see
:mod:`repro.wal.records`): a record that carries arrays (an ``ingest``
record's windows, a snapshot's KG tokens and code buffers) is a
:mod:`repro.utils.binframe` binary body, the same raw
little-endian float64 format the gateway's binary frames use, and every
other record is UTF-8 JSON.  The two are told
apart per frame by the binary magic bytes.  Sequence numbers are
assigned at append time, strictly increasing across segments and across
process restarts.

Durability is group-committed: ``append`` buffers through the OS and
only fsyncs when ``fsync_batch`` appends have accumulated or the oldest
unflushed append is older than ``fsync_interval_ms`` (checked at append
time — this is a batching bound, not a timer); ``flush()`` forces the
fsync, and the serving engine calls it once per round *before* any
request is acknowledged, so an acked request is always on disk (one
fsync amortized over every request the round served).

Opening a log repairs its tail: a crash can tear the final frame (short
header, short payload, or a CRC mismatch from a partial page write), so
``open`` scans the last segment and truncates it back to the longest
valid prefix.  A bad frame anywhere *except* the final segment's tail is
not a torn write — appends only move forward — so it raises
:class:`~repro.errors.WalCorruptionError` instead of silently dropping
history.

Segments rotate at ``max_segment_bytes``; :meth:`truncate_below`
deletes whole closed segments whose records all precede a given seq,
which is how snapshot-then-truncate reclaims the log (see
:mod:`repro.wal.snapshot`).
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from threading import Lock

from ..errors import ConfigError, DurabilityError, WalCorruptionError
from ..metrics import MetricsRegistry
from ..utils import binframe
from ..utils.serialization import fsync_directory

__all__ = ["WalConfig", "SegmentInfo", "WriteAheadLog", "FRAME_HEADER"]

#: ``[u32 length][u32 crc32]`` little-endian frame header.
FRAME_HEADER = struct.Struct("<II")

_SEGMENT_SUFFIX = ".wal"


@dataclass(frozen=True)
class WalConfig:
    """Write-ahead log tuning knobs.

    ``fsync_batch`` / ``fsync_interval_ms`` shape group commit: an
    append fsyncs immediately once ``fsync_batch`` appends are pending
    or the oldest pending append is ``fsync_interval_ms`` old; between
    those bounds appends ride the OS buffer until the next ``flush()``
    (the engine flushes once per round, before acks go out).
    """

    fsync_batch: int = 64
    fsync_interval_ms: float = 50.0
    max_segment_bytes: int = 4 * 1024 * 1024

    def __post_init__(self):
        if self.fsync_batch < 1:
            raise ConfigError("fsync_batch must be >= 1")
        if self.fsync_interval_ms < 0:
            raise ConfigError("fsync_interval_ms must be >= 0")
        if self.max_segment_bytes < 1024:
            raise ConfigError("max_segment_bytes must be >= 1024")


@dataclass
class SegmentInfo:
    """One segment file's index entry (maintained in memory)."""

    index: int
    path: Path
    first_seq: int | None = None   # None: no records yet
    last_seq: int | None = None
    size: int = 0


def _segment_path(directory: Path, index: int) -> Path:
    return directory / f"{index:08d}{_SEGMENT_SUFFIX}"


def _read_frames(path: Path):
    """Yield ``(offset, payload_bytes, valid)`` for every frame in a
    segment; the final yield may be ``valid=False`` with ``payload=None``
    (torn header/payload or CRC mismatch), after which iteration stops."""
    data = path.read_bytes()
    offset = 0
    total = len(data)
    while offset < total:
        if offset + FRAME_HEADER.size > total:
            yield offset, None, False
            return
        length, crc = FRAME_HEADER.unpack_from(data, offset)
        start = offset + FRAME_HEADER.size
        end = start + length
        if end > total:
            yield offset, None, False
            return
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            yield offset, None, False
            return
        yield offset, payload, True
        offset = end


class WriteAheadLog:
    """An append-only, segmented, CRC-framed record log (thread-safe).

    ``append``/``flush`` may be called from different threads (the
    gateway admits on the event loop while the round runner flushes);
    one internal lock serializes all file access.
    """

    def __init__(self, directory: str | Path, config: WalConfig | None = None,
                 metrics: MetricsRegistry | None = None, tracer=None):
        self.directory = Path(directory)
        self.config = config or WalConfig()
        self.metrics = metrics or MetricsRegistry()
        # Optional repro.obs.TraceRecorder: group-commit fsyncs become
        # ``wal.fsync`` spans (parented under the committing round's
        # durability span when flush() is handed one).
        self.tracer = tracer
        self._lock = Lock()
        self._segments: list[SegmentInfo] = []
        self._file = None              # repro: guarded-by[_lock]
        self._next_seq = 0
        self._pending = 0              # appends since last fsync; repro: guarded-by[_lock]
        self._oldest_pending = 0.0     # first's perf_counter; repro: guarded-by[_lock]
        self._closed = False           # repro: guarded-by[_lock]
        self.repaired_bytes = 0        # torn tail truncated at open
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise DurabilityError(
                f"cannot create WAL directory {self.directory}: {exc}")
        self._open_segments()
        self._update_gauges()

    # ------------------------------------------------------------------
    # Open / repair
    # ------------------------------------------------------------------
    def _open_segments(self) -> None:  # repro: lock-held
        paths = sorted(self.directory.glob(f"*{_SEGMENT_SUFFIX}"))
        try:
            indices = [int(path.stem) for path in paths]
        except ValueError as exc:
            raise DurabilityError(
                f"non-numeric segment file name in {self.directory}: {exc}")
        for position, (index, path) in enumerate(zip(indices, paths)):
            info = SegmentInfo(index=index, path=path)
            is_last = position == len(paths) - 1
            valid_end = 0
            for offset, payload, valid in _read_frames(path):
                if not valid:
                    if not is_last:
                        raise WalCorruptionError(
                            f"segment {path.name} has a truncated or "
                            f"CRC-invalid frame at offset {offset} but is "
                            f"not the final segment; the log's history is "
                            f"damaged (a torn write can only ever be at "
                            f"the final segment's tail)")
                    torn = path.stat().st_size - offset
                    with path.open("r+b") as handle:
                        handle.truncate(offset)
                        handle.flush()
                        os.fsync(handle.fileno())
                    self.repaired_bytes += torn
                    self.metrics.counter("wal.torn_bytes_truncated").inc(torn)
                    break
                record = self._decode(payload, path, offset)
                seq = int(record["seq"])
                if info.first_seq is None:
                    info.first_seq = seq
                info.last_seq = seq
                self._next_seq = max(self._next_seq, seq + 1)
                valid_end = offset + FRAME_HEADER.size + len(payload)
            info.size = valid_end
            self._segments.append(info)
        if not self._segments:
            self._segments.append(SegmentInfo(index=1,
                                              path=_segment_path(
                                                  self.directory, 1)))
        active = self._segments[-1]
        self._file = active.path.open("ab")

    @staticmethod
    def _encode_record(record: dict) -> bytes:
        """One record dict -> frame payload bytes: a binary body when it
        carries arrays, JSON otherwise (the binary body would just wrap
        the same JSON in a header)."""
        try:
            return json.dumps(record).encode("utf-8")
        except TypeError:  # an ndarray, at any depth
            pass
        try:
            return binframe.encode_payload(record)
        except binframe.BinaryFormatError as exc:
            raise DurabilityError(
                f"cannot encode WAL record as a binary body: {exc}")

    @staticmethod
    def _decode(payload: bytes, path: Path, offset: int) -> dict:
        if binframe.is_binary(payload):
            try:
                record, _ = binframe.decode_payload(payload)
            except binframe.BinaryFormatError as exc:
                raise WalCorruptionError(
                    f"segment {path.name} frame at offset {offset} passed "
                    f"its CRC but does not decode as a binary record: {exc}")
        else:
            try:
                record = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as exc:
                raise WalCorruptionError(
                    f"segment {path.name} frame at offset {offset} passed "
                    f"its CRC but does not decode as a JSON record: {exc}")
        if not isinstance(record, dict) or "seq" not in record:
            raise WalCorruptionError(
                f"segment {path.name} frame at offset {offset} decodes to "
                f"{type(record).__name__} without a 'seq' field")
        return record

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def next_seq(self) -> int:
        return self._next_seq

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    @property
    def size_bytes(self) -> int:
        return sum(segment.size for segment in self._segments)

    @property
    def segment_paths(self) -> list[Path]:
        return [segment.path for segment in self._segments]

    def _update_gauges(self) -> None:
        self.metrics.gauge("wal.segments").set(len(self._segments))
        self.metrics.gauge("wal.log_bytes").set(self.size_bytes)

    # ------------------------------------------------------------------
    # Append path
    # ------------------------------------------------------------------
    def _check_open(self) -> None:  # repro: lock-held
        if self._closed:
            raise DurabilityError("write-ahead log is closed")

    def append(self, record: dict, sync: bool = False) -> int:
        """Frame and append one record; returns its assigned seq.

        The record dict is stamped with ``"seq"`` in place.  With
        ``sync`` the append fsyncs before returning regardless of the
        group-commit bounds.
        """
        start = time.perf_counter()
        with self._lock:
            self._check_open()
            seq = self._next_seq
            record["seq"] = seq
            payload = self._encode_record(record)
            frame = FRAME_HEADER.pack(len(payload),
                                      zlib.crc32(payload)) + payload
            active = self._segments[-1]
            if active.size and active.size + len(frame) \
                    > self.config.max_segment_bytes:
                self._rotate_locked()
                active = self._segments[-1]
            try:
                self._file.write(frame)
            except OSError as exc:
                raise DurabilityError(
                    f"WAL append to {active.path.name} failed: {exc}")
            self._next_seq = seq + 1
            if active.first_seq is None:
                active.first_seq = seq
            active.last_seq = seq
            active.size += len(frame)
            if self._pending == 0:
                self._oldest_pending = start
            self._pending += 1
            due = (sync
                   or self._pending >= self.config.fsync_batch
                   or (start - self._oldest_pending) * 1e3
                   >= self.config.fsync_interval_ms)
            if due:
                self._fsync_locked()
            self.metrics.counter("wal.records").inc()
            if record.get("kind") == "snapshot":
                self.metrics.histogram("wal.snapshot_bytes", unit="bytes").observe(len(frame))
            self._update_gauges()
        self.metrics.histogram("wal.append_latency").observe(
            time.perf_counter() - start)
        return seq

    def flush(self, trace_parent=None) -> None:
        """Force the pending group commit to disk (no-op when clean).

        ``trace_parent`` (a :class:`repro.obs.TraceContext`) parents the
        resulting ``wal.fsync`` span under the caller's durability span;
        without it a traced fsync records as its own root."""
        with self._lock:
            self._check_open()
            if self._pending:
                self._fsync_locked(trace_parent)

    def _fsync_locked(self, trace_parent=None) -> None:  # repro: lock-held
        pending = self._pending
        started = time.time()
        start = time.perf_counter()
        try:
            self._file.flush()
            os.fsync(self._file.fileno())
        except OSError as exc:
            raise DurabilityError(
                f"WAL fsync of {self._segments[-1].path.name} failed: {exc}")
        self._pending = 0
        elapsed = time.perf_counter() - start
        self.metrics.counter("wal.fsyncs").inc()
        self.metrics.histogram("wal.fsync_latency").observe(elapsed)
        if self.tracer is not None:
            self.tracer.record_span(
                "wal.fsync", parent=trace_parent, ts=started, dur=elapsed,
                attrs={"pending": pending,
                       "segment": self._segments[-1].path.name})

    # ------------------------------------------------------------------
    # Rotation / truncation
    # ------------------------------------------------------------------
    def rotate(self) -> Path:
        """Close the active segment and start a new one (e.g. so a
        snapshot record begins a fresh segment and everything before it
        becomes a deletable unit); returns the new segment's path."""
        with self._lock:
            self._check_open()
            return self._rotate_locked()

    def _rotate_locked(self) -> Path:  # repro: lock-held
        if self._pending:
            self._fsync_locked()
        self._file.close()
        index = self._segments[-1].index + 1
        info = SegmentInfo(index=index,
                           path=_segment_path(self.directory, index))
        self._segments.append(info)
        self._file = info.path.open("ab")
        fsync_directory(self.directory)
        self._update_gauges()
        return info.path

    def truncate_below(self, seq: int) -> int:
        """Delete closed segments whose records *all* precede ``seq``;
        returns how many segments were removed.  The active segment is
        never deleted.  Empty closed segments (rotation artifacts) are
        reclaimed too."""
        removed = 0
        with self._lock:
            self._check_open()
            kept: list[SegmentInfo] = []
            for segment in self._segments[:-1]:
                deletable = segment.last_seq is None or segment.last_seq < seq
                if deletable:
                    try:
                        segment.path.unlink()
                    except FileNotFoundError:
                        pass
                    removed += 1
                else:
                    kept.append(segment)
            self._segments = kept + [self._segments[-1]]
            if removed:
                fsync_directory(self.directory)
                self.metrics.counter("wal.segments_truncated").inc(removed)
            self._update_gauges()
        return removed

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(self):
        """Yield every record dict in log order (all segments).

        Reads the files as they are on disk; call :meth:`flush` first
        when replaying a log this process is still appending to.
        """
        for segment in list(self._segments):
            if not segment.path.exists():
                continue
            for offset, payload, valid in _read_frames(segment.path):
                if not valid:
                    # The tail was repaired at open; a bad frame now can
                    # only be unflushed buffered bytes (same process) —
                    # stop, exactly as a post-crash open would.
                    return
                yield self._decode(payload, segment.path, offset)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            # Checked under the lock: an unlocked fast-path check lets
            # two racing closers both enter, double-fsyncing and
            # double-closing the active segment file.
            if self._closed:
                return
            if self._pending:
                self._fsync_locked()
            self._closed = True
            self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
