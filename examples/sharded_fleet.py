"""Sharded fleet serving demo: one fleet, many worker processes.

Micro-batching (see ``examples/fleet_serving.py``) removes per-call fixed
costs, but the whole fleet still shares one Python process and one GEMM
queue.  This example partitions the same fleet across worker processes
with :class:`repro.serving.ShardedFleet` and demonstrates:

1. round-robin shard assignment and bit-identical scores vs the
   single-process batched fleet (sharding is a throughput decision,
   never an accuracy one);
2. attaching/detaching streams mid-run across shards;
3. one whole-fleet checkpoint file shared with ``DeploymentFleet``
   (save sharded, resume sharded or single-process).

Workers are plain subprocesses that inherit their pipe and their shared
buffers as file descriptors, so sharding needs a POSIX system, nothing
re-imports this script and nothing appears in ``/dev/shm``.
``build_sharded_fleet`` only sends each worker its streams' build
arguments and the registry's artifacts: the workers load the models and
build the streams, so this process loads none, and construction returns
before they are done (the first request waits for them).  Streams attached
later, and resumed fleets, travel in the fleet checkpoint format, so
anything attached must be a checkpointable ``TrendShiftStream``.

Exits non-zero unless the sharded fleet's checkpoint equals the
single-process one before the first round, the sharded scores equal the
single-process ones bit for bit and the resumed fleet's next round is
identical.

Run:  python examples/sharded_fleet.py
"""

import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.api import Pipeline, ReproConfig
from repro.serving import ShardedFleet, build_fleet, build_sharded_fleet

STREAMS = 8
SHARDS = 2
MISSIONS = ["Stealing", "Robbery"]


def main() -> int:
    config = ReproConfig()
    config.override("experiment.train_steps", 150)  # demo-sized training
    pipeline = Pipeline.from_config(config)

    print(f"[1/4] Building a {STREAMS}-stream fleet sharded across "
          f"{SHARDS} worker processes ...")
    single = build_fleet(pipeline, MISSIONS, STREAMS, windows_per_step=2)
    start = time.perf_counter()
    fleet = build_sharded_fleet(pipeline, MISSIONS, STREAMS, shards=SHARDS,
                                windows_per_step=2)
    built_s = time.perf_counter() - start
    # The first request waits for the workers' build; what they built
    # must be what partitioning `single` would have shipped them.
    hints = ("shards", "infra")
    same_checkpoint = ({k: v for k, v in fleet.to_dict().items()
                        if k not in hints} == single.to_dict())
    ready_s = time.perf_counter() - start
    print(f"      construction {built_s * 1e3:.0f} ms, first request "
          f"answered after {ready_s:.2f} s; checkpoint equals the "
          f"single-process fleet's: {same_checkpoint}")
    by_shard = {}
    for name, shard in fleet.assignment.items():
        by_shard.setdefault(shard, []).append(name)
    for shard, names in sorted(by_shard.items()):
        print(f"      shard {shard}: {', '.join(names)}")

    print("\n[2/4] Sharded vs single-process batched on identical "
          "arrivals ...")
    start = time.perf_counter()
    single_rounds = [single.step() for _ in range(6)]
    single_s = time.perf_counter() - start
    start = time.perf_counter()
    sharded_rounds = [fleet.step()]
    first_round_s = time.perf_counter() - start
    sharded_rounds += [fleet.step() for _ in range(5)]
    sharded_s = time.perf_counter() - start
    diffs = [float(np.abs(a.scores - b.scores).max())
             for round_a, round_b in zip(single_rounds, sharded_rounds)
             for a, b in zip(round_a, round_b)]
    windows = sum(e.scores.size for r in sharded_rounds for e in r)
    print(f"      single-process: {windows / single_s:8.1f} windows/s")
    print(f"      {SHARDS}-shard:        {windows / sharded_s:8.1f} "
          f"windows/s ({single_s / sharded_s:.2f}x; scales with physical "
          "cores, so expect <1x on 1-2 core machines)")
    print(f"      first sharded round: {first_round_s * 1e3:.0f} ms")
    print(f"      max |sharded - single| score diff: {max(diffs)}")

    print("\n[3/4] Attaching/detaching streams mid-run ...")
    fleet.add("latecomer", single.remove(single.names[0]),
              pipeline.stream("Stealing", None, windows_per_step=2,
                              seed=999))
    events = fleet.step()
    print(f"      round now serves {len(events)} streams "
          f"(latecomer landed on shard "
          f"{fleet.assignment['latecomer']})")
    fleet.remove("latecomer")
    print(f"      after detach: {len(fleet)} streams")

    print("\n[4/4] One checkpoint file, shared with DeploymentFleet ...")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fleet.json"
        fleet.save(path)
        size_kb = path.stat().st_size / 1024
        resumed = ShardedFleet.load(path)  # same shard layout
        a = fleet.step()
        b = resumed.step()
        identical = all(np.array_equal(x.scores, y.scores)
                        for x, y in zip(a, b))
        print(f"      {size_kb:.0f} KiB for {len(resumed)} streams "
              f"across {resumed.shards} shards")
        print(f"      resumed fleet's next round identical: {identical}")
        resumed.close()
    fleet.close()
    if not same_checkpoint or max(diffs) != 0.0 or not identical:
        print("FAILED: sharded serving diverged from single-process serving")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
