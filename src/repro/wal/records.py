"""Typed WAL records: what the durability log actually remembers.

Each record is a dict (JSON values, float64 arrays) with a ``"kind"``
discriminator and the ``"seq"`` the log assigned at append time.  Five
kinds exist:

``ingest``
    One accepted ingest request: stream name + its ``(B, T, frame_dim)``
    arrival windows.  The windows stay a float64 ndarray in the record;
    the log serializes them through the shared binary body codec
    (:mod:`repro.utils.binframe` — raw little-endian float64 buffers,
    same wire format as the gateway's binary frames) so replayed
    windows score to the very same bits.  A pre-binary log, whose
    ingest records carry base64-in-JSON windows, is refused by
    :func:`validate_record`.
``skip``
    Cancels one earlier ``ingest`` record (by its seq): the request was
    accepted and logged but never reached a deployment — it failed to
    score, or its connection dropped it while queued — so replay must
    not apply it.
``snapshot``
    A whole-fleet checkpoint embedded in the log: the fleet payload
    (``fleet.to_dict()`` — the self-describing checkpoint format),
    the :class:`~repro.serving.FleetInfra` seeds needed to rebuild it in
    a fresh process, and the per-stream applied watermark (the highest
    ingest seq each stream had dispatched into its deployment when the
    snapshot was taken).  Recovery rebuilds from the latest snapshot and
    replays only ingest records past each stream's watermark.  Its weight
    sets and anchor arrays are ``{"blob": digest}`` references to files
    beside the segments (:class:`~repro.wal.BlobStore`), or inline; its
    other arrays ride in the record's binary body.  It is also the only record of
    fleet membership: a stream that joins or leaves reaches the log with
    the next snapshot.

Records deliberately stay plain dicts on the wire (the log frames each
one as a JSON or binary body); the constructors and
:func:`validate_record` here are the single place their shapes are
defined.
"""

from __future__ import annotations

import numpy as np

from ..errors import RecoveryError

__all__ = ["RECORD_KINDS", "ingest_record", "skip_record", "snapshot_record",
           "record_windows", "validate_record"]

RECORD_KINDS = ("ingest", "skip", "snapshot")

#: Required non-``seq`` fields per kind (shape validation for replay).
_REQUIRED = {
    "ingest": ("stream", "windows"),
    "skip": ("target",),
    "snapshot": ("fleet", "infra", "applied"),
}


def ingest_record(stream: str, windows: np.ndarray) -> dict:
    """One accepted ingest request's durable form; the log writes its
    float64 windows as a binary body."""
    return {"kind": "ingest", "stream": stream,
            "windows": np.ascontiguousarray(windows, dtype=np.float64)}


def record_windows(record: dict) -> np.ndarray:
    """An ``ingest`` record's windows (bit-exact round trip)."""
    return np.asarray(record["windows"], dtype=np.float64)


def skip_record(target_seq: int) -> dict:
    """Cancel the ``ingest`` record at ``target_seq`` during replay."""
    return {"kind": "skip", "target": int(target_seq)}


def snapshot_record(fleet_payload: dict, infra_payload: dict,
                    applied: dict[str, int]) -> dict:
    """A whole-fleet checkpoint embedded in the log.

    ``applied`` maps stream name → highest ingest-record seq whose
    windows that stream's deployment had consumed when the snapshot was
    taken.  Because the engine preserves per-stream FIFO, the applied
    seqs of a stream are always a prefix of its logged seqs — one
    watermark per stream fully describes what the snapshot contains.
    """
    return {"kind": "snapshot", "fleet": fleet_payload,
            "infra": dict(infra_payload),
            "applied": {name: int(seq) for name, seq in applied.items()}}


def validate_record(record: dict) -> str:
    """Check a decoded record's shape; returns its kind.

    Raises :class:`~repro.errors.RecoveryError` on an unknown kind, a
    missing field or an ``ingest`` record whose windows are not a binary
    array — a structurally valid frame (length + CRC passed)
    holding a record replay cannot interpret means the log was written
    by an incompatible version, which silent skipping would turn into
    silently wrong recovered state.
    """
    kind = record.get("kind")
    if kind not in _REQUIRED:
        raise RecoveryError(
            f"unknown WAL record kind {kind!r} at seq "
            f"{record.get('seq')!r}; this log was written by an "
            f"incompatible version (known kinds: {', '.join(RECORD_KINDS)})")
    missing = [field for field in ("seq", *_REQUIRED[kind])
               if field not in record]
    if missing:
        raise RecoveryError(
            f"WAL {kind!r} record at seq {record.get('seq')!r} is missing "
            f"required field(s): {', '.join(missing)}")
    if kind == "ingest" and not isinstance(record["windows"], np.ndarray):
        raise RecoveryError(
            f"WAL ingest record at seq {record['seq']!r} holds "
            f"{type(record['windows']).__name__} windows, not a binary "
            f"array: the log was written in the pre-binary WAL format "
            f"(base64-in-JSON windows), which this version does not read")
    return kind
