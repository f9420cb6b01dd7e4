"""The engine's durability hook: log before schedule, ack after fsync.

:class:`WalDurability` implements
:class:`repro.runtime.DurabilityHook` — the protocol a
:class:`~repro.runtime.ServingEngine` calls (the runtime layer never
imports this package) to make queued serving durable:

* :meth:`record_submit` — called inside ``engine.submit``'s critical
  section *after* admission control passes and *before* the request
  joins its queue, so exactly the accepted requests are logged (a
  backpressure-rejected request never touches the log) and per-stream
  log order equals per-stream queue order — which the engine's FIFO
  invariant turns into per-stream ingest order, the property replay
  depends on.
* :meth:`record_applied` / :meth:`record_skip` — called as each round's
  results materialize: applied seqs advance the per-stream watermark
  snapshots store; a request that errored (expired deadline, windows
  that cannot score) gets a ``skip`` record so replay will not apply
  what the live engine never did.
* :meth:`flush` — called once per round's commit *before* the results
  reach any caller: one group-commit fsync covering every request the
  round served (ack-after-append).
* :meth:`snapshot_due` / :meth:`snapshot` — the engine asks after each
  commit whether the :class:`~repro.wal.SnapshotPolicy` wants a
  snapshot-then-truncate, and takes it on the round thread.

Construction writes a genesis snapshot (an empty log cannot be
recovered without one), and refuses a WAL directory that already holds
records — silently appending a fresh fleet's log onto a crashed fleet's
history would make both unrecoverable; run ``repro recover`` first.
"""

from __future__ import annotations

from pathlib import Path

from ..errors import DurabilityError
from ..metrics import MetricsRegistry
from .log import WalConfig, WriteAheadLog
from .records import (attach_record, detach_record, ingest_record,
                      skip_record)
from .snapshot import SnapshotManager, SnapshotPolicy

__all__ = ["WalDurability", "infra_for_fleet"]


def infra_for_fleet(fleet):
    """The :class:`~repro.serving.FleetInfra` that rebuilds ``fleet``'s
    shared infrastructure in a fresh process: a sharded fleet carries
    its own, an inline fleet derives one from its first slot's stream
    generator (the same rule :meth:`ShardedFleet.from_fleet` uses)."""
    from ..serving import FleetInfra
    infra = getattr(fleet, "infra", None)
    if infra is not None:
        return infra
    slots = getattr(fleet, "slots", None)
    if not slots:
        raise DurabilityError(
            "cannot derive FleetInfra for an empty fleet; attach at least "
            "one stream before enabling durability (or pass infra= "
            "explicitly)")
    generator = slots[0].stream.generator
    return FleetInfra.from_generator(generator.model.seed, generator)


class WalDurability:
    """WAL + snapshot lifecycle bound to one live fleet.

    Thread-safety follows the engine's: :meth:`record_submit` runs under
    the engine's admission lock (one appender at a time in submit
    order), while :meth:`record_applied`/:meth:`record_skip`/
    :meth:`flush` run on the single round-runner thread — or, in the
    engine's pipelined mode, on its single committer thread; either way
    there is exactly one committing thread, and the log's own lock
    covers the cross-thread file access.  :meth:`snapshot` always runs
    on the round thread: the engine takes a due snapshot (reported by
    :meth:`snapshot_due`) between rounds, behind a full commit drain,
    because snapshotting walks live fleet state.
    """

    def __init__(self, fleet, directory: str | Path,
                 config: WalConfig | None = None,
                 policy: SnapshotPolicy | None = None,
                 metrics: MetricsRegistry | None = None,
                 infra=None, tracer=None):
        self.fleet = fleet
        self.wal = WriteAheadLog(directory, config=config, metrics=metrics,
                                 tracer=tracer)
        if self.wal.next_seq > 0:
            self.wal.close()
            raise DurabilityError(
                f"WAL directory {Path(directory)} already contains "
                f"records; run 'repro recover {Path(directory)}' to rebuild "
                "that fleet (and --save its checkpoint), or point the "
                "durable fleet at a fresh directory")
        self.infra = infra if infra is not None else infra_for_fleet(fleet)
        self.snapshots = SnapshotManager(self.wal, policy)
        self._applied: dict[str, int] = {}
        self._closed = False
        # Genesis: an empty log has nothing for recovery to rebuild from.
        self.snapshots.snapshot(self.fleet.to_dict(),
                                self.infra.to_payload(),
                                self._applied, rounds=0)

    # ------------------------------------------------------------------
    # Engine hook surface (repro.runtime.DurabilityHook)
    # ------------------------------------------------------------------
    def record_submit(self, request) -> int:
        """Log one accepted ingest request; returns its WAL seq."""
        return self.wal.append(ingest_record(request.stream,
                                             request.windows))

    def record_applied(self, stream: str, seq: int) -> None:
        """Advance the stream's applied watermark (in-memory only — the
        watermark is persisted by the next snapshot; until then replay
        re-derives state by re-applying, which is exactly its job)."""
        current = self._applied.get(stream, -1)
        if seq > current:
            self._applied[stream] = seq

    def record_skip(self, seq: int) -> None:
        """Log that the ingest record at ``seq`` was accepted but never
        applied (expired or unscoreable) so replay skips it too."""
        self.wal.append(skip_record(seq))

    def record_attach(self, name: str, deployment, stream,
                      cursor: int = 0, done: bool = False) -> int:
        """Log a stream joining the fleet (call alongside ``fleet.add``).

        The entry is self-contained — model inlined rather than
        deduplicated like the checkpoint format — so replay can rebuild
        the slot without cross-record references.  Synced immediately:
        membership changes are rare and must not ride a group commit
        that may never flush.
        """
        from ..api.config import config_to_dict
        from ..gnn.checkpoint import deployment_to_dict
        entry = {
            "name": name,
            "model": deployment_to_dict(deployment.model),
            "deployment": deployment.to_dict(include_model=False),
            "stream_config": config_to_dict(stream.config),
            "cursor": int(cursor),
            "done": bool(done),
        }
        return self.wal.append(attach_record(entry), sync=True)

    def record_detach(self, stream: str) -> int:
        """Log a stream leaving the fleet (call alongside
        ``fleet.remove``); synced immediately, like attach."""
        return self.wal.append(detach_record(stream), sync=True)

    def flush(self, trace_parent=None) -> None:
        """The commit barrier: fsync everything logged so far (before
        any ack leaves the building).  Safe from the committer thread —
        it touches only the log, which has its own lock.
        ``trace_parent`` is the committing round's durability span
        context, so the flush's ``wal.fsync`` span parents under it."""
        self.wal.flush(trace_parent=trace_parent)

    def snapshot_due(self, rounds: int) -> bool:
        """Whether the snapshot policy wants a snapshot after ``rounds``
        engine rounds (cheap, lock-free)."""
        return self.snapshots.due(rounds)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self, engine=None) -> int:
        """Embed a whole-fleet checkpoint in the log and truncate the
        segments it makes redundant; returns the snapshot's seq.

        Must run on the round-runner thread (fleet state is only mutated
        by rounds, so between rounds it is stable).  ``engine`` supplies
        the lowest still-queued WAL seq, which bounds truncation —
        logged-but-unserved requests must survive.  The bound is passed
        as a callable so the manager reads it *after* the snapshot
        record is appended: admission holds the engine lock across
        append+enqueue, so a post-append read sees every ingest whose
        seq precedes the snapshot's, closing the window in which a
        concurrently admitted request could be truncated away.
        """
        pending_low = (engine.min_pending_wal_seq
                       if engine is not None else None)
        rounds = engine.rounds if engine is not None else 0
        return self.snapshots.snapshot(self.fleet.to_dict(),
                                       self.infra.to_payload(),
                                       dict(self._applied),
                                       rounds=rounds,
                                       pending_low=pending_low)

    @property
    def applied_watermarks(self) -> dict[str, int]:
        return dict(self._applied)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, engine=None) -> None:
        """Final flush (and a parting snapshot when the fleet is still
        alive, so a clean shutdown leaves a compact one-snapshot log),
        then close the log.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        try:
            self.snapshot(engine)
        except Exception:  # noqa: BLE001 — the fleet may already be torn
            # down (closed shard workers); the flushed log alone is
            # enough for recovery, so never let shutdown fail here.
            try:
                self.wal.flush()
            except DurabilityError:
                pass
        self.wal.close()
