"""Multi-stream serving: deployment fleets, micro-batching, sharding.

The paper's runtime is one camera, one stream, one model.  This package
is the production layer above it:

:class:`MicroBatcher`
    Coalesces pending windows across streams that share a scoring model
    into single batched forwards, with bit-identical scores.
:class:`DeploymentFleet`
    Owns N concurrent :class:`~repro.api.Deployment` streams (mixed
    missions, mid-run attach/detach), serves them in batched lock-step
    rounds, and checkpoints the whole fleet to one file.
:class:`ShardedFleet`
    Partitions a fleet across worker processes (round-robin by attach
    order, one micro-batcher per shard) and merges per-round events back
    in stable stream order — scores bit-identical to single-process
    batched serving, throughput scaling with physical cores.

Both fleet classes are facades over the unified serving core: the round
loop (and its metrics) lives in :class:`repro.runtime.ServingEngine`,
executing through an :class:`~repro.runtime.InlineBackend`
(``DeploymentFleet``) or :class:`~repro.runtime.ShardedBackend`
(``ShardedFleet``); the fleets own stream state and checkpointing.
"""

from ..errors import FleetError, WorkerError, WorkerStartupError
from .batcher import MicroBatcher, ScoreRequest
from .fleet import DeploymentFleet, FleetEvent, StreamSlot, build_fleet
from .sharded import (FleetInfra, ShardedFleet, build_sharded_fleet,
                      partition_fleet_payload)
from .shm_ring import (DEFAULT_RING_BYTES, RingBuffer, RingError,
                       dumps_message, loads_message)

__all__ = [
    "MicroBatcher",
    "ScoreRequest",
    "DeploymentFleet",
    "FleetEvent",
    "StreamSlot",
    "build_fleet",
    "FleetInfra",
    "ShardedFleet",
    "build_sharded_fleet",
    "partition_fleet_payload",
    "RingBuffer",
    "RingError",
    "DEFAULT_RING_BYTES",
    "dumps_message",
    "loads_message",
    "FleetError",
    "WorkerError",
    "WorkerStartupError",
]
