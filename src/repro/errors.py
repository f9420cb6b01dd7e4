"""Typed exception hierarchy shared across the serving stack.

Production callers need to branch on *what* failed — a refused window
needs the client fixed, a corrupt log segment needs recovery — which
bare ``RuntimeError`` strings cannot support.
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
``ConfigError``
    A constructor or entry point was handed invalid parameters (bad
    sizes, unknown names, malformed options) — the call can never
    succeed as written.
``WindowShapeError`` / ``NonFiniteError``
    Window/score arrays with the wrong rank, an empty axis, or mixed
    shapes where one shape is required / windows holding NaN or ±Inf.
``StateError``
    An operation was invoked against an object in the wrong lifecycle
    state (scoring before priming, serving after close/drain).
``CheckpointError``
    A checkpoint/attach payload cannot be used: unknown format version,
    non-checkpointable stream, fingerprint mismatch.
``MissingExtraError``
    A package only an optional extra installs is missing (named in the text).
``AdmissionError``
    A request refused at the serving engine's queue door (typed ``code``).

Every concrete class also subclasses the builtin its call sites
historically raised — ``DurabilityError`` and ``StateError`` are
``RuntimeError``; ``ConfigError``, ``WindowShapeError``, and
``CheckpointError`` are ``ValueError``;
``MissingExtraError`` is ``ImportError`` — so code (and tests) written
against the bare builtins keep working; new code should catch the typed
classes.  The **typed-raise** rule of ``repro lint`` enforces that
serving/runtime/gateway/wal code raises these types rather than fresh
bare builtins.
"""

from __future__ import annotations

__all__ = ["ReproError", "DurabilityError", "WalCorruptionError",
           "RecoveryError", "ConfigError", "WindowShapeError",
           "NonFiniteError", "StateError", "CheckpointError",
           "MissingExtraError", "AdmissionError"]


class ReproError(Exception):
    """Root of every deliberate error raised by this package."""


class DurabilityError(ReproError, RuntimeError):
    """The WAL / snapshot / recovery layer failed."""


class WalCorruptionError(DurabilityError):
    """A log frame before the repairable tail is truncated or fails its
    CRC — history is damaged, not just the in-flight suffix."""


class RecoveryError(DurabilityError):
    """Replay could not rebuild a fleet from snapshot + log suffix."""


class ConfigError(ReproError, ValueError):
    """Invalid parameters handed to a constructor or entry point; the
    call can never succeed as written."""


class WindowShapeError(ConfigError):
    """Window/score arrays with the wrong rank, an empty axis, or mixed
    shapes where a single shape is required."""


class NonFiniteError(ConfigError):
    """Windows holding NaN or ±Inf, refused before any state changes."""


class StateError(ReproError, RuntimeError):
    """An operation hit an object in the wrong lifecycle state (scoring
    before priming, serving after close/drain)."""


class CheckpointError(ReproError, ValueError):
    """A checkpoint/attach payload cannot be used: unknown format
    version, non-checkpointable stream, wrong fingerprint."""


class MissingExtraError(ReproError, ImportError):
    """A package only an optional extra installs is missing; the message names it."""


class AdmissionError(ReproError, RuntimeError):
    """A request refused at the queue door; carries a typed code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message
