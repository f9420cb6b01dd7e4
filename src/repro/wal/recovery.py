"""Crash recovery: latest snapshot + suffix replay → the fleet again.

:func:`recover_fleet` rebuilds a durable fleet from its WAL directory:

1. **Open** the log — :class:`~repro.wal.WriteAheadLog` repairs a torn
   tail (truncate at the first invalid frame of the final segment) as
   part of opening, so a SIGKILL mid-append costs at most the unsynced
   suffix, never the log.
2. **Locate** the newest ``snapshot`` record and rebuild the fleet from
   its embedded checkpoint (the PR 3 self-describing ``fleet.to_dict()``
   payload, blob references resolved) using the
   :class:`~repro.serving.FleetInfra` seeds stored beside it — inline
   by default, sharded when ``shards`` is given; the two rebuilds score
   bit-identically.
3. **Replay** the whole retained log in seq order against the snapshot's
   per-stream applied watermarks: an ``ingest`` record applies iff its
   seq is above its stream's watermark and not cancelled by a ``skip``
   record; ``attach``/``detach`` records re-play membership changes —
   but only those *after* the snapshot's seq (earlier ones are already
   reflected in its fleet payload, and replaying them under
   detach-then-reattach churn would regress a snapshotted stream to
   stale attach-time state).  Replay scans the *entire* retained log,
   not just the
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

import functools
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import RecoveryError
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
    attached: int = 0           #: attach records applied
    detached: int = 0           #: detach records applied
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
    with WriteAheadLog(wal_dir) as wal:
        records = list(wal.replay())
    for record in records:
        validate_record(record)
    return records


def _rebuild_fleet(snapshot: dict, shards: int | None,
                   metrics: MetricsRegistry | None):
    """The fleet a snapshot record describes, and a callable returning
    the ``(embedding, generator)`` pair its streams hang off (a sharded
    fleet builds that pair at its first need)."""
    from ..serving import DeploymentFleet, FleetInfra, ShardedFleet
    infra = FleetInfra.from_payload(snapshot["infra"])
    if shards is not None:
        fleet = ShardedFleet.from_dict(snapshot["fleet"], shards=shards,
                                       infra=infra)
        shared = fleet.shared_infra
    else:
        shared = functools.cache(infra.build)
        fleet = DeploymentFleet.from_dict(snapshot["fleet"], *shared())
    if metrics is not None:
        fleet.engine.metrics = metrics
    return fleet, shared


def _attach_entry(fleet, entry: dict, embedding, generator) -> None:
    """Re-attach one stream from an ``attach`` record's self-contained
    slot entry (model inlined, unlike the deduplicated checkpoint)."""
    from ..api.config import config_from_dict
    from ..api.deployment import Deployment
    from ..data.streams import TrendShiftConfig, TrendShiftStream
    from ..gnn.checkpoint import deployment_from_dict
    model = deployment_from_dict(entry["model"], embedding)
    deployment = Deployment.from_dict(entry["deployment"], embedding,
                                      model=model)
    stream = TrendShiftStream(
        generator,
        config_from_dict(TrendShiftConfig, entry["stream_config"]))
    fleet.add(entry["name"], deployment, stream)


def recover_fleet(wal_dir: str | Path, shards: int | None = None,
                  metrics: MetricsRegistry | None = None):
    """Rebuild the fleet a WAL directory describes.

    Returns ``(fleet, report)``.  ``shards=None`` rebuilds a
    :class:`~repro.serving.DeploymentFleet`; an integer rebuilds a
    :class:`~repro.serving.ShardedFleet` of that many shards — either
    way the recovered per-stream state is bit-identical, so pick
    whichever the restarted service runs.

    Raises :class:`~repro.errors.RecoveryError` when the directory holds
    no snapshot record (a WAL written by :class:`~repro.wal.
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

    snapshot["fleet"] = BlobStore(wal_dir, registry).resolve(snapshot["fleet"])
    fleet, shared = _rebuild_fleet(snapshot, shards, metrics)
    applied = {name: int(seq) for name, seq in snapshot["applied"].items()}

    for record in records:
        kind = record["kind"]
        if kind == "ingest":
            seq, stream = int(record["seq"]), record["stream"]
            if seq in skips:
                report.skipped += 1
            elif seq <= applied.get(stream, -1):
                report.covered += 1
            elif stream in fleet:
                events = fleet.ingest_round(
                    {stream: record_windows(record)})
                report.scores.setdefault(stream, []).append(
                    events[stream].scores)
                report.replayed += 1
            else:
                # The stream left the fleet before this request could be
                # served; the live engine never acked it (acks follow the
                # round), so dropping it here loses nothing durable.
                report.orphaned += 1
        elif kind in ("attach", "detach"):
            # Membership records at or below the snapshot seq are
            # already reflected in the snapshot's fleet payload (they
            # sync-append before fleet state mutates, so the snapshot,
            # taken later, saw them).  They must be ignored, not
            # replayed-if-absent: under detach-then-reattach churn a
            # retained pre-snapshot detach would remove the snapshotted
            # stream and the matching attach would resurrect it with
            # stale attach-time state, while its at-or-below-watermark
            # ingests stay "covered" and never re-apply — a recovered
            # stream strictly staler than the snapshot.
            if int(record["seq"]) <= report.snapshot_seq:
                continue
            if kind == "attach" and record["entry"]["name"] not in fleet:
                _attach_entry(fleet, record["entry"], *shared())
                report.attached += 1
            elif kind == "detach" and record["stream"] in fleet:
                fleet.remove(record["stream"])
                report.detached += 1

    report.duration = time.perf_counter() - start
    registry.counter("wal.recoveries").inc()
    registry.histogram("wal.recovery_latency").observe(report.duration)
    return fleet, report
