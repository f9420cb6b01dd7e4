"""Typed exception hierarchy shared across the serving stack.

Production callers need to branch on *what* failed — a shard worker
dying is retryable by restarting the fleet, a corrupt write-ahead log
segment is not — which bare ``RuntimeError`` strings cannot support.
The hierarchy lives at the top of the dependency graph (stdlib only)
so every layer can raise typed errors without importing a sibling:

``ReproError``
    Root of everything this package raises deliberately.
``DurabilityError``
    The write-ahead log / snapshot / recovery layer (:mod:`repro.wal`):
    unopenable directories, append failures, replay problems.
``WalCorruptionError``
    A CRC-invalid or truncated frame *before* the repairable tail — the
    log's history itself is damaged, not just its in-flight suffix.
``RecoveryError``
    Replay cannot rebuild a fleet (no snapshot record, unknown record
    kinds, a replayed ingest that fails to score).
``FleetError``
    Multi-process fleet serving (:class:`~repro.serving.ShardedFleet`).
``WorkerError``
    A shard worker failed mid-command or died; carries ``shard`` when a
    single shard is attributable.
``WorkerStartupError``
    A worker could not build its fleet at all (bad checkpoint payload,
    embedding-fingerprint mismatch) — retrying the command cannot help.

``ConfigError``
    A constructor or entry point was handed invalid parameters (bad
    sizes, unknown names, malformed options) — the call can never
    succeed as written.
``WindowShapeError``
    Window/score arrays with the wrong rank, an empty axis, or mixed
    shapes where one shape is required.
``StateError``
    An operation was invoked against an object in the wrong lifecycle
    state (scoring before priming, serving after close/drain).
``CheckpointError``
    A checkpoint/attach payload cannot be used: unknown format version,
    non-checkpointable stream, fingerprint mismatch.
``MissingExtraError``
    A package only an optional extra installs is missing (named in the text).

Every concrete class also subclasses the builtin its call sites
historically raised — ``DurabilityError``, ``FleetError``, and
``StateError`` are ``RuntimeError``; ``ConfigError``,
``WindowShapeError``, and ``CheckpointError`` are ``ValueError``;
``MissingExtraError`` is ``ImportError`` — so code (and tests) written
against the bare builtins keep working; new code should catch the typed
classes.  The **typed-raise** rule of ``repro lint`` enforces that
serving/runtime/gateway/wal code raises these types rather than fresh
bare builtins.
"""

from __future__ import annotations

__all__ = ["ReproError", "DurabilityError", "WalCorruptionError",
           "RecoveryError", "FleetError", "WorkerError",
           "WorkerStartupError", "ConfigError", "WindowShapeError",
           "StateError", "CheckpointError", "MissingExtraError"]


class ReproError(Exception):
    """Root of every deliberate error raised by this package."""


class DurabilityError(ReproError, RuntimeError):
    """The WAL / snapshot / recovery layer failed."""


class WalCorruptionError(DurabilityError):
    """A log frame before the repairable tail is truncated or fails its
    CRC — history is damaged, not just the in-flight suffix."""


class RecoveryError(DurabilityError):
    """Replay could not rebuild a fleet from snapshot + log suffix."""


class FleetError(ReproError, RuntimeError):
    """Multi-process fleet serving failed."""


class WorkerError(FleetError):
    """A shard worker failed mid-command or died unexpectedly.

    ``shard`` is the failing shard's index when exactly one shard is
    attributable, else ``None`` (aggregated broadcast failures).
    """

    def __init__(self, message: str, shard: int | None = None):
        super().__init__(message)
        self.shard = shard


class WorkerStartupError(WorkerError):
    """A shard worker could not build its fleet at startup; the command
    that surfaced this cannot succeed by retrying."""


class ConfigError(ReproError, ValueError):
    """Invalid parameters handed to a constructor or entry point; the
    call can never succeed as written."""


class WindowShapeError(ConfigError):
    """Window/score arrays with the wrong rank, an empty axis, or mixed
    shapes where a single shape is required."""


class StateError(ReproError, RuntimeError):
    """An operation hit an object in the wrong lifecycle state (scoring
    before priming, serving after close/drain)."""


class CheckpointError(ReproError, ValueError):
    """A checkpoint/attach payload cannot be used: unknown format
    version, non-checkpointable stream, wrong fingerprint."""


class MissingExtraError(ReproError, ImportError):
    """A package only an optional extra installs is missing; the message names it."""
