"""The unified serving core: one engine, pluggable backends and policies.

Every serving layer in this repo — the in-process
:class:`~repro.serving.DeploymentFleet`, the multi-process
:class:`~repro.serving.ShardedFleet`, and the network
:class:`~repro.gateway.GatewayServer` — is a facade over one
:class:`ServingEngine`, which owns the canonical round loop (gather →
schedule → micro-batch score → ingest → emit :class:`FleetEvent`s) and
instruments it through one :class:`repro.metrics.MetricsRegistry`:

:class:`ServingEngine`
    The round loop: lock-step rounds pulled from backend-owned streams
    (``step``/``serve``/``ingest_round``/``score_only``) and
    policy-composed rounds over bounded admission queues
    (``submit``/``run_round``) — one wave executor, one commit routine
    (inline or on the committer thread), per-entry error isolation, and
    a :class:`DurabilityHook` for ack-after-fsync serving.
:class:`ExecutionBackend` → :class:`InlineBackend` / :class:`ShardedBackend`
    Where the compute runs.  ``serve_round`` is the one wave primitive:
    the caller's process (micro-batched coalescing), or a scatter of
    that same inline implementation across shard worker processes.
    Stage timings ride every reply (:mod:`repro.runtime.timeline`), so
    ``engine.stage.*`` histograms fill with or without a tracer.
:class:`SchedulingPolicy` → :class:`FairRoundRobin` / :class:`GreedyDrain` / :class:`PriorityAdmission`
    How queued requests compose a round.  Per-stream FIFO is an engine
    invariant, so every backend × policy combination serves bit-identical
    per-stream scores — locked down by the parity-matrix tests.
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
from .policies import (
    POLICIES,
    FairRoundRobin,
    GreedyDrain,
    PriorityAdmission,
    RoundPlan,
    SchedulingPolicy,
    resolve_policy,
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
    "SchedulingPolicy",
    "RoundPlan",
    "FairRoundRobin",
    "GreedyDrain",
    "PriorityAdmission",
    "POLICIES",
    "resolve_policy",
]
