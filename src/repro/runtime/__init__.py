"""The unified serving core: one engine over pluggable execution backends.

Every serving layer in this repo — the
:class:`~repro.serving.DeploymentFleet`, its sharded twin
:class:`~repro.serving.ShardedFleet`, and the network
:class:`~repro.gateway.GatewayServer` — is a facade over one
:class:`ServingEngine`, which owns the canonical round loop (gather →
schedule → micro-batch score → ingest → emit :class:`FleetEvent`s) and
instruments it through one :class:`repro.metrics.MetricsRegistry`:

:class:`ServingEngine`
    The round loop: lock-step rounds pulled from backend-owned streams
    (``step``/``serve``/``ingest_round``/``score_only``) and queued
    rounds over bounded per-stream admission queues
    (``submit``/``run_round``: each round serves the front request of
    every non-empty queue, so each stream is served strictly FIFO) — one
    wave executor, one commit routine
    (inline or on the committer thread), per-entry error isolation, and
    a :class:`DurabilityHook` for ack-after-fsync serving.
:class:`ExecutionBackend` → :class:`InlineBackend` / :class:`ShardedBackend`
    Where the compute runs.  ``serve_round`` is the one wave primitive:
    the caller's thread (micro-batched coalescing), or a scatter of
    that same inline implementation across in-process shards, on a
    thread pool when the process may run on two or more CPUs.
    Stage timings ride every reply (:mod:`repro.runtime.timeline`), so
    ``engine.stage.*`` histograms fill with or without a tracer.  Every
    backend serves bit-identical per-stream scores — locked down by the
    backend parity tests.
"""

from .engine import (
    AdmissionError,
    DurabilityHook,
    EngineRequest,
    FleetEvent,
    RoundResult,
    ServingEngine,
    make_fleet_event,
)
from .backends import ExecutionBackend, InlineBackend, ShardedBackend

__all__ = [
    "ServingEngine",
    "FleetEvent",
    "make_fleet_event",
    "EngineRequest",
    "RoundResult",
    "AdmissionError",
    "DurabilityHook",
    "ExecutionBackend",
    "InlineBackend",
    "ShardedBackend",
]
