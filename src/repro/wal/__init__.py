"""repro.wal — durable write-ahead ingestion log with crash recovery.

Serving state in this repo was only as durable as its last explicit
checkpoint: kill a gateway mid-run and every acked ingest since the last
``save()`` is gone.  This package closes that gap with a classic
write-ahead log:

* :class:`WriteAheadLog` (:mod:`~repro.wal.log`) — append-only segmented
  log of CRC32-framed records (binary bodies for records that carry
  arrays, JSON for the rest) with group-commit fsync batching, segment rotation,
  and torn-tail repair on open.
* :mod:`~repro.wal.records` — the typed record shapes: accepted ingests
  (bit-exact window codec), skip markers, and snapshots that embed the
  self-describing fleet checkpoint (the log's only record of which
  streams the fleet holds).
* :class:`WalDurability` (:mod:`~repro.wal.durability`) — the hook a
  :class:`~repro.runtime.ServingEngine` calls to log accepted requests
  *before* they become schedulable and to fsync once per round before
  any ack resolves (log-before-schedule, ack-after-append).
* :class:`SnapshotManager` / :class:`SnapshotPolicy`
  (:mod:`~repro.wal.snapshot`) — periodic snapshot-then-truncate so
  replay cost stays bounded by rounds-since-snapshot, not uptime.
* :func:`recover_fleet` (:mod:`~repro.wal.recovery`) — latest snapshot +
  full-log watermark replay, rebuilding per-stream state bit-identically
  as one :class:`~repro.serving.DeploymentFleet`.

On disk: numbered segments (``00000001.wal``, …) and :class:`BlobStore`
files, ``<sha256>.blob`` — each one binary body holding one weight set
or anchor array as raw float64, written atomically and fsynced with the directory before the
first snapshot record naming it ``{"blob": digest}``, deleted by the
first snapshot-and-truncate that no longer does.  A digest is remembered
by the identity of the owner and of each of its arrays: model arrays are
only ever rebound (``data-rebind`` lint rule), so nothing is re-encoded.

Layering: ``repro.wal`` sits beside :mod:`repro.serving` (recovery
imports it); the runtime engine only ever sees the duck-typed
durability hook, and :mod:`repro.gateway` / the CLI wire the two
together.
"""

from .durability import WalDurability, infra_for_fleet
from .log import FRAME_HEADER, SegmentInfo, WalConfig, WriteAheadLog
from .records import (RECORD_KINDS, ingest_record, record_windows,
                      skip_record, snapshot_record, validate_record)
from .recovery import RecoveryReport, read_records, recover_fleet
from .snapshot import BlobStore, SnapshotManager, SnapshotPolicy

__all__ = [
    "BlobStore",
    "FRAME_HEADER",
    "RECORD_KINDS",
    "RecoveryReport",
    "SegmentInfo",
    "SnapshotManager",
    "SnapshotPolicy",
    "WalConfig",
    "WalDurability",
    "WriteAheadLog",
    "infra_for_fleet",
    "ingest_record",
    "read_records",
    "record_windows",
    "recover_fleet",
    "skip_record",
    "snapshot_record",
    "validate_record",
]
