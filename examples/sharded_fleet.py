"""Sharded fleet serving demo: one fleet, several in-process shards.

Micro-batching (see ``examples/fleet_serving.py``) removes per-call fixed
costs, but one fleet is one GEMM queue.  This example partitions the same
fleet into shards with :class:`repro.serving.ShardedFleet` — each shard
its own ``DeploymentFleet`` with its own copy of its missions' weights,
run on a thread pool when this process may use two or more CPUs — and
demonstrates:

1. round-robin shard assignment and bit-identical scores vs the
   plain batched fleet (sharding is a throughput decision, never an
   accuracy one);
2. attaching/detaching streams mid-run across shards;
3. one whole-fleet checkpoint file shared with ``DeploymentFleet``
   (save sharded, resume sharded or plain).

Construction loads no model: ``build_sharded_fleet`` records each
shard's streams, and the first request builds every shard from the
model registry.  A sharded fleet checkpoints in the plain fleet format,
so anything attached must be a checkpointable ``TrendShiftStream``.

Exits non-zero unless the sharded fleet's checkpoint equals the plain
one, the sharded scores equal the plain ones bit for bit, the resumed
fleet's next round is identical, and serving started no child process.

Run:  python examples/sharded_fleet.py
"""

import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.api import Pipeline, ReproConfig
from repro.serving import ShardedFleet, build_fleet, build_sharded_fleet
from repro.utils.binframe import encode_payload

STREAMS = 8
SHARDS = 2
MISSIONS = ["Stealing", "Robbery"]


def child_processes() -> list[int]:
    """Pids whose parent is this process (read from ``/proc``)."""
    me, found = str(os.getpid()), []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue  # exited while we looked
        if stat.rsplit(")", 1)[1].split()[1] == me:
            found.append(int(pid))
    return found


def main() -> int:
    config = ReproConfig()
    config.override("experiment.train_steps", 150)  # demo-sized training
    pipeline = Pipeline.from_config(config)

    print(f"[1/4] Building a {STREAMS}-stream fleet in {SHARDS} "
          "shards ...")
    single = build_fleet(pipeline, MISSIONS, STREAMS, windows_per_step=2)
    fleet = build_sharded_fleet(pipeline, MISSIONS, STREAMS, shards=SHARDS,
                                windows_per_step=2)
    # The first request builds the shards; what they built must be what
    # partitioning `single` gives.
    hints = ("shards", "infra")
    same_checkpoint = (encode_payload({k: v for k, v in fleet.to_dict().items()
                                       if k not in hints})
                       == encode_payload(single.to_dict()))
    pool = fleet.transport_stats()["pool_threads"]
    print(f"      checkpoint equals the plain fleet's: {same_checkpoint}; "
          + (f"shards run on {pool} threads" if pool
             else "one CPU: shards run one after another"))
    by_shard = {}
    for name, shard in fleet.assignment.items():
        by_shard.setdefault(shard, []).append(name)
    for shard, names in sorted(by_shard.items()):
        print(f"      shard {shard}: {', '.join(names)}")

    print("\n[2/4] Sharded vs plain batched on identical arrivals ...")
    start = time.perf_counter()
    single_rounds = [single.step() for _ in range(6)]
    single_s = time.perf_counter() - start
    start = time.perf_counter()
    sharded_rounds = [fleet.step()]
    children = child_processes()
    sharded_rounds += [fleet.step() for _ in range(5)]
    sharded_s = time.perf_counter() - start
    diffs = [float(np.abs(a.scores - b.scores).max())
             for round_a, round_b in zip(single_rounds, sharded_rounds)
             for a, b in zip(round_a, round_b)]
    windows = sum(e.scores.size for r in sharded_rounds for e in r)
    print(f"      plain:   {windows / single_s:8.1f} windows/s")
    print(f"      {SHARDS}-shard: {windows / sharded_s:8.1f} windows/s "
          f"({single_s / sharded_s:.2f}x; threads pay off only with two "
          "or more CPUs and forwards large enough to outweigh a handoff)")
    print(f"      max |sharded - plain| score diff: {max(diffs)}")
    print(f"      child processes after the first round: {children}")

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
        path = Path(tmp) / "fleet.bin"
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
        print("FAILED: sharded serving diverged from plain serving")
        return 1
    if children:
        print(f"FAILED: serving started child processes {children}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
