"""Network serving gateway: a deployment fleet behind a TCP socket.

PRs 1–3 built the in-process serving stack — ``Deployment`` →
``DeploymentFleet`` (micro-batched) → ``ShardedFleet`` (multi-process) —
but every deployment was still driven by the caller's own loop.  This
package is the ingestion front door a production stack hangs off it,
stdlib + numpy only:

:mod:`~repro.gateway.protocol`
    Versioned wire format — length-prefixed JSON frames (protocol v1)
    and binary frames with raw float64 window/score buffers (protocol
    v2, negotiated at ``attach``, JSON fallback for old peers) — with
    ops for ``ingest``, ``scores``, ``attach``/``detach``, ``stats``
    and ``shutdown``, plus typed error frames.
:class:`GatewayServer`
    Asyncio TCP server fronting a :class:`~repro.serving.DeploymentFleet`
    or :class:`~repro.serving.ShardedFleet`: concurrently arriving
    windows coalesce into micro-batched fleet rounds (scores
    bit-identical to a direct ``fleet.step()``), bounded per-stream
    queues reject overload with ``backpressure`` frames, and shutdown
    drains gracefully.
:class:`GatewayClient` / :class:`LoadGenerator`
    Blocking client SDK and a multi-connection load generator
    (closed-loop, or open-loop at a target request rate).
:class:`MetricsRegistry`
    Re-exported from :mod:`repro.metrics` (promoted out of the gateway):
    counters, gauges and p50/p95/p99 latency histograms shared by every
    serving layer and surfaced through the ``stats`` op.

The server itself no longer owns a round loop: requests feed the fleet's
:class:`repro.runtime.ServingEngine` admission queues, and a pluggable
:class:`~repro.runtime.SchedulingPolicy` (``policy="fair"|"greedy"|
"priority"``) composes the rounds.
"""

from .client import (
    GatewayClient,
    GatewayError,
    LoadGenConfig,
    LoadGenerator,
    LoadGenResult,
)
# Compatibility re-exports: the metrics primitives were promoted to
# repro.metrics (repro.gateway.metrics remains as a deprecation shim).
from ..metrics import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    percentile,
)
from .protocol import (
    CODECS,
    ERROR_CODES,
    MAX_FRAME_BYTES,
    OPS,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    FrameError,
    RequestError,
)
from .server import (
    DEFAULT_MAX_QUEUE_DEPTH,
    GatewayHandle,
    GatewayServer,
    serve_in_thread,
)

__all__ = [
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "CODECS",
    "MAX_FRAME_BYTES",
    "OPS",
    "ERROR_CODES",
    "FrameError",
    "RequestError",
    "GatewayServer",
    "GatewayHandle",
    "serve_in_thread",
    "DEFAULT_MAX_QUEUE_DEPTH",
    "GatewayClient",
    "GatewayError",
    "LoadGenConfig",
    "LoadGenerator",
    "LoadGenResult",
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "percentile",
]
