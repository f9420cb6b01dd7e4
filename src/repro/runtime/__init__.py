"""The unified serving core: one engine over a fleet.

Every serving layer in this repo — the
:class:`~repro.serving.DeploymentFleet`, its sharded twin
:class:`~repro.serving.ShardedFleet`, and the network
:class:`~repro.gateway.GatewayServer` — is a facade over one
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
``DeploymentFleet`` scores on the caller's thread (micro-batched
coalescing), a ``ShardedFleet`` scatters the same wave across its
in-process shard fleets, on a thread pool when the process may run on
two or more CPUs.  Stage timings ride every wave
(:mod:`repro.runtime.timeline`), so ``engine.stage.*`` histograms fill
with or without a tracer.  Both fleets serve bit-identical per-stream
scores — locked down by the fleet-class parity tests.
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
