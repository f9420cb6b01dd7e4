"""Automatic snapshot-then-truncate: keeping the log short.

Replay cost grows with the log, so a durable fleet periodically embeds
a whole-fleet checkpoint (the PR 3 self-describing ``fleet.to_dict()``
payload) as a ``snapshot`` record and then deletes the segments its
watermark makes redundant.  :class:`SnapshotPolicy` decides *when*
(rounds served or log bytes accumulated since the last snapshot);
:class:`SnapshotManager` performs the write:

1. rotate — the snapshot starts a fresh segment, so everything before
   it forms whole deletable units;
2. append the snapshot record with an immediate fsync (a snapshot that
   is not durable must never justify deleting the records it covers);
3. truncate — delete closed segments every record of which is either
   applied (covered by the snapshot's per-stream watermark) or
   abandoned (skipped), i.e. all records below the lowest seq still
   *queued* in the engine.  Queued-but-unserved requests were logged
   before the snapshot but are not in it; cutting at the snapshot's own
   seq would silently drop them, which is exactly the loss this
   subsystem exists to prevent.

Weight sets and anchor arrays go to a :class:`BlobStore` instead.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

from .log import WriteAheadLog
from .records import snapshot_record
from ..errors import ConfigError, RecoveryError
from ..metrics import MetricsRegistry
from ..utils import binframe
from ..utils.serialization import atomic_write_bytes, fsync_directory

__all__ = ["BlobStore", "SnapshotPolicy", "SnapshotManager"]

#: fleet-payload lists whose entries may be blob references
_BLOB_KINDS = ("weights", "anchors")


def _is_reference(entry) -> bool:
    return isinstance(entry, dict) and entry.keys() == {"blob"}


class BlobStore:
    """``<sha256>.blob`` files in a WAL directory, each one binary body
    holding one fleet-checkpoint weight set or anchor array as
    ``{"entry": ...}`` (layout, GC rule and why the identity memo is
    safe: :mod:`repro.wal`)."""

    def __init__(self, directory: str | Path, metrics: MetricsRegistry):
        self.directory = Path(directory)
        self.metrics = metrics
        self._memo: dict[int, tuple[tuple, str]] = {}  # id(owner) -> (key, digest)
        self._written: set[str] = set()  # fsynced by this store

    def _write(self, entry) -> str:
        data = binframe.encode_payload({"entry": entry})
        digest = hashlib.sha256(data).hexdigest()
        if digest not in self._written:
            atomic_write_bytes(self.directory / f"{digest}.blob", data)  # file + dir fsynced
            self._written.add(digest)
        return digest

    def reference(self, key: tuple, encode) -> dict:
        """``{"blob": digest}`` of ``encode()``, called only if ``key`` (the
        owner, then its arrays) are not the objects last seen for it."""
        seen = self._memo.get(id(key[0]))
        if seen is None or [*map(id, seen[0])] != [*map(id, key)]:  # seen[0] held: ids unique
            seen = self._memo[id(key[0])] = (key, self._write(encode()))
        return {"blob": seen[1]}

    def collect(self, payload: dict) -> None:
        """Delete every blob ``payload`` — the newest snapshot — does not
        name, and forget it."""
        keep = {entry["blob"] for kind in _BLOB_KINDS
                for entry in payload[kind] if _is_reference(entry)}
        self._memo = {owner: seen for owner, seen in self._memo.items()
                      if seen[1] in keep}
        self._written &= keep
        stale = [path for path in self.directory.glob("*.blob") if path.stem not in keep]
        for path in stale:
            path.unlink()
        if stale:
            fsync_directory(self.directory)
        self.metrics.gauge("wal.blobs").set(len(keep))
        self.metrics.gauge("wal.blob_bytes").set(
            sum((self.directory / f"{digest}.blob").stat().st_size for digest in keep))

    def resolve(self, payload: dict) -> dict:
        """``payload`` with each reference replaced by its verified entry;
        a missing or damaged blob is a :class:`RecoveryError` naming it."""
        def read(digest: str):
            try:
                return binframe.read_file(self.directory / f"{digest}.blob",
                                          sha256=digest)["entry"]
            except (OSError, binframe.BinaryFormatError) as exc:
                raise RecoveryError(f"snapshot blob {digest} is missing, "
                                    f"unreadable, truncated or corrupt: {exc}")
        return {**payload, **{kind: [read(entry["blob"]) if _is_reference(
            entry) else entry for entry in payload[kind]]
            for kind in _BLOB_KINDS}}


@dataclass(frozen=True)
class SnapshotPolicy:
    """When to snapshot: after ``every_rounds`` served rounds or once
    ``max_log_bytes`` of log accumulate since the last snapshot,
    whichever comes first (``None`` disables that trigger)."""

    every_rounds: int | None = 64
    max_log_bytes: int | None = 16 * 1024 * 1024

    def __post_init__(self):
        if self.every_rounds is not None and self.every_rounds < 1:
            raise ConfigError("every_rounds must be >= 1")
        if self.max_log_bytes is not None and self.max_log_bytes < 1:
            raise ConfigError("max_log_bytes must be >= 1")


class SnapshotManager:
    """Drives snapshot-then-truncate over one :class:`WriteAheadLog`."""

    def __init__(self, wal: WriteAheadLog,
                 policy: SnapshotPolicy | None = None):
        self.wal = wal
        self.policy = policy or SnapshotPolicy()
        self.snapshots_taken = 0
        self._rounds_at_last = 0
        self._bytes_at_last = wal.size_bytes

    def due(self, rounds: int) -> bool:
        """Whether the policy calls for a snapshot at ``rounds`` served
        rounds (and the log's current size)."""
        policy = self.policy
        if policy.every_rounds is not None \
                and rounds - self._rounds_at_last >= policy.every_rounds:
            return True
        return (policy.max_log_bytes is not None
                and self.wal.size_bytes - self._bytes_at_last
                >= policy.max_log_bytes)

    def snapshot(self, fleet_payload: dict, infra_payload: dict,
                 applied: dict[str, int], rounds: int,
                 pending_low=None) -> int:
        """Write one snapshot record and truncate what it covers.

        ``pending_low`` is the lowest WAL seq still queued in the engine
        (``None`` when the queues are empty): segments at or above it
        must survive truncation because their ingest records have not
        been applied yet.  Pass a zero-arg callable (e.g.
        ``engine.min_pending_wal_seq``) rather than a pre-read value
        whenever admission runs concurrently: it is evaluated *after*
        the snapshot record is durably appended, so every ingest whose
        seq falls below the snapshot's — appended under the engine's
        admission lock before it was enqueued — is visible to the read
        and bounds truncation.  A value read before the append races
        with admission: a request logged between the read and
        ``truncate_below`` would sit in a just-rotated closed segment
        and be deleted, losing an eventually-acked request.  Returns
        the snapshot record's seq.
        """
        start = time.perf_counter()
        self.wal.rotate()
        seq = self.wal.append(
            snapshot_record(fleet_payload, infra_payload, applied),
            sync=True)
        low = pending_low() if callable(pending_low) else pending_low
        cutoff = seq if low is None else min(low, seq)
        self.wal.truncate_below(cutoff)
        self.snapshots_taken += 1
        self._rounds_at_last = rounds
        self._bytes_at_last = self.wal.size_bytes
        self.wal.metrics.counter("wal.snapshots").inc()
        self.wal.metrics.histogram("wal.snapshot_latency").observe(
            time.perf_counter() - start)
        return seq
