"""The unified serving core: one engine over a fleet.

Both serving layers in this repo — the
:class:`~repro.serving.DeploymentFleet` and the network
:class:`~repro.gateway.GatewayServer` — are facades over one
:class:`ServingEngine`, which owns the canonical round loop (gather →
schedule → micro-batch score → ingest → emit :class:`FleetEvent`s) and
instruments it through one :class:`repro.metrics.MetricsRegistry`:

:class:`ServingEngine`
    The round loop: lock-step rounds pulled from the fleet's streams
    (``step``/``serve``/``ingest_round``/``score_only``) and queued
    rounds over bounded per-stream admission queues
    (``submit``/``run_round``: each round serves the front request of
    every non-empty queue, so each stream is served strictly FIFO) — one
    wave primitive for both (the fleet's ``serve_round``), one commit
    routine (inline or on the committer thread), per-entry error
    isolation, and a :class:`DurabilityHook` for ack-after-fsync
    serving.

The fleet the engine serves is where the compute runs: a
``DeploymentFleet`` scores each wave on the caller's thread
(micro-batched coalescing).  Stage timings ride every wave
(:mod:`repro.runtime.timeline`), so ``engine.stage.*`` histograms fill
with or without a tracer.
"""

from .engine import (
    AdmissionError,
    DurabilityHook,
    EngineRequest,
    FleetEvent,
    RoundResult,
    ServingEngine,
)

__all__ = [
    "ServingEngine",
    "FleetEvent",
    "EngineRequest",
    "RoundResult",
    "AdmissionError",
    "DurabilityHook",
]
