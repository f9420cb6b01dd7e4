"""Multi-stream serving: deployment fleets and micro-batching.

The paper's runtime is one camera, one stream, one model.  This package
is the production layer above it:

:class:`MicroBatcher`
    Coalesces pending windows across streams that share a scoring model
    into single batched forwards, with bit-identical scores.
:class:`DeploymentFleet`
    Owns N concurrent :class:`~repro.api.Deployment` streams (mixed
    missions, mid-run attach/detach), serves them in batched lock-step
    rounds, and checkpoints the whole fleet to one file.
:class:`FleetInfra`
    The seeds and generator hyperparameters that rebuild a checkpointed
    fleet's shared embedding model and frame generator (WAL snapshots
    store one).

The fleet is what the unified serving core serves over: the round loop
(and its metrics) lives in :class:`repro.runtime.ServingEngine`, and
every round it runs is one ``serve_round`` wave of the fleet's, coalesced
on the caller's thread; the fleet owns stream state and checkpointing.
:class:`RingBuffer` and its framing are used by no fleet; the benchmark
still imports them.
"""

from .batcher import MicroBatcher, ScoreRequest
from .fleet import (DeploymentFleet, FleetEvent, FleetInfra, StreamSlot,
                    build_fleet, build_sharded_fleet)
from .shm_ring import (DEFAULT_RING_BYTES, RingBuffer, RingError,
                       dumps_message, loads_message)

__all__ = [
    "MicroBatcher",
    "ScoreRequest",
    "DeploymentFleet",
    "FleetEvent",
    "FleetInfra",
    "StreamSlot",
    "build_fleet",
    "build_sharded_fleet",
    "RingBuffer",
    "RingError",
    "DEFAULT_RING_BYTES",
    "dumps_message",
    "loads_message",
]
