"""Crash recovery: latest snapshot + suffix replay → the fleet again.

:func:`recover_fleet` rebuilds a durable fleet from its WAL directory:

1. **Open** the log — :class:`~repro.wal.WriteAheadLog` repairs a torn
   tail (truncate at the first invalid frame of the final segment) as
   part of opening, so a SIGKILL mid-append costs at most the unsynced
   suffix, never the log.  A directory that does not exist is refused
   before anything is created.
2. **Locate** the newest ``snapshot`` record and rebuild the
   :class:`~repro.serving.DeploymentFleet` from its embedded checkpoint
   (the self-describing ``fleet.to_dict()`` payload, blob
   references resolved) using the :class:`~repro.serving.FleetInfra`
   seeds stored beside it.  The snapshot is the log's only record of
   membership: its streams are the recovered fleet's streams.
3. **Replay** the whole retained log in seq order against the snapshot's
   per-stream applied watermarks: an ``ingest`` record applies iff its
   seq is above its stream's watermark and not cancelled by a ``skip``
   record.  Replay scans the *entire* retained log, not just the
   suffix after the snapshot — truncation keeps any segment holding a
   still-pending (queued-but-unapplied) request, and such records
   precede the snapshot record in log order.

Each surviving ingest record replays as its own single-stream round
(``fleet.ingest_round({stream: windows})``): scores are batch-
composition independent and the engine preserves per-stream FIFO, so
the replayed scores are bit-identical to what the live fleet produced
(or would have produced — un-acked tail requests that were appended but
never served now get served).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import CheckpointError, RecoveryError
from ..metrics import MetricsRegistry
from .log import WriteAheadLog
from .records import record_windows, validate_record
from .snapshot import BlobStore

__all__ = ["RecoveryReport", "read_records", "recover_fleet"]


@dataclass
class RecoveryReport:
    """What one :func:`recover_fleet` run did, for logs and tests."""

    wal_dir: str
    records: int = 0            #: total structurally valid records read
    snapshot_seq: int | None = None
    replayed: int = 0           #: ingest records applied during replay
    covered: int = 0            #: ingest records the snapshot already held
    skipped: int = 0            #: ingest records cancelled by skip records
    orphaned: int = 0           #: ingest records for streams not attached
    duration: float = 0.0
    #: per-stream replayed score arrays, in replay (= original) order
    scores: dict[str, list[np.ndarray]] = field(default_factory=dict)

    def summary(self) -> str:
        return (f"recovered {self.wal_dir}: {self.records} records, "
                f"snapshot@{self.snapshot_seq}, {self.replayed} replayed, "
                f"{self.covered} in snapshot, {self.skipped} skipped, "
                f"{self.orphaned} orphaned, {self.duration * 1e3:.1f} ms")


def read_records(wal_dir: str | Path) -> list[dict]:
    """All structurally valid records in ``wal_dir``, in seq order
    (repairing a torn tail as a side effect of opening the log)."""
    if not Path(wal_dir).is_dir():
        raise RecoveryError(f"no such WAL directory: {Path(wal_dir)}")
    with WriteAheadLog(wal_dir) as wal:
        records = list(wal.replay())
    for record in records:
        validate_record(record)
    return records


def recover_fleet(wal_dir: str | Path,
                  metrics: MetricsRegistry | None = None):
    """Rebuild the :class:`~repro.serving.DeploymentFleet` a WAL
    directory describes; returns ``(fleet, report)``.

    Raises :class:`~repro.errors.RecoveryError` when the directory does
    not exist, holds a record of a kind this version does not read, or
    holds no snapshot record (a WAL written by :class:`~repro.wal.
    WalDurability` always starts with a genesis snapshot, so this means
    the directory is empty or not a WAL).
    """
    registry = metrics or MetricsRegistry()
    start = time.perf_counter()
    report = RecoveryReport(wal_dir=str(wal_dir))
    records = read_records(wal_dir)
    report.records = len(records)

    snapshot = None
    skips: set[int] = set()
    for record in records:
        if record["kind"] == "snapshot":
            snapshot = record
        elif record["kind"] == "skip":
            skips.add(int(record["target"]))
    if snapshot is None:
        raise RecoveryError(
            f"no snapshot record in {Path(wal_dir)}; not a recoverable "
            "WAL directory (durable fleets always write a genesis "
            "snapshot at startup)")
    report.snapshot_seq = int(snapshot["seq"])

    from ..serving import DeploymentFleet, FleetInfra
    try:
        fleet = DeploymentFleet.from_dict(
            BlobStore(wal_dir, registry).resolve(snapshot["fleet"]),
            *FleetInfra.from_payload(snapshot["infra"]).build())
    except CheckpointError as exc:  # e.g. an older fleet format
        raise RecoveryError(f"{Path(wal_dir)}: {exc}; recover the log with "
                            "the version that wrote it") from None
    if metrics is not None:
        fleet.engine.metrics = metrics
    applied = {name: int(seq) for name, seq in snapshot["applied"].items()}

    for record in records:
        if record["kind"] != "ingest":
            continue
        seq, stream = int(record["seq"]), record["stream"]
        if seq in skips:
            report.skipped += 1
        elif seq <= applied.get(stream, -1):
            report.covered += 1
        elif stream in fleet:
            events = fleet.ingest_round({stream: record_windows(record)})
            report.scores.setdefault(stream, []).append(
                events[stream].scores)
            report.replayed += 1
        else:
            # The snapshot does not hold this stream.  Either it left the
            # fleet before the request was served (the live engine never
            # acked it: acks follow the round), or it joined with no
            # snapshot since, which WalDurability's membership rule
            # rules out.
            report.orphaned += 1

    report.duration = time.perf_counter() - start
    registry.counter("wal.recoveries").inc()
    registry.histogram("wal.recovery_latency").observe(report.duration)
    return fleet, report
