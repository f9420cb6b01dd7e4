"""Fleet serving demo: many concurrent streams, one batched scoring loop.

The paper deploys one edge camera per model; this example serves a whole
fleet.  It builds 8 trend-shift streams over 2 missions, serves them
through :class:`repro.serving.DeploymentFleet` — whose micro-batcher
coalesces every round's arrival windows into one GNN forward per scoring
model — then demonstrates the three fleet-specific capabilities:

1. coalesced fleet throughput against a hand loop of per-deployment
   ``Deployment.ingest`` calls on identical arrivals (with the
   bit-identical-scores guarantee that makes batching a free win);
2. attaching and detaching streams mid-run;
3. checkpointing the entire fleet (deployments, stream positions, shared
   models stored once) and resuming it.

It exits non-zero unless every coalesced score equals the hand loop's
bit for bit and the resumed fleet's next round is identical.

Run:  python examples/fleet_serving.py
"""

import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.api import Pipeline, ReproConfig
from repro.serving import DeploymentFleet, build_fleet

STREAMS = 8
MISSIONS = ["Stealing", "Robbery"]


def main() -> int:
    config = ReproConfig()
    config.override("experiment.train_steps", 150)  # demo-sized training
    pipeline = Pipeline.from_config(config)

    print(f"[1/4] Building a {STREAMS}-stream fleet over {MISSIONS} ...")
    fleet = build_fleet(pipeline, MISSIONS, STREAMS, windows_per_step=2)
    print(f"      {len(fleet)} streams attached: {', '.join(fleet.names)}")

    print("\n[2/4] Coalesced fleet vs a hand Deployment.ingest loop "
          "on identical arrivals ...")
    twins = build_fleet(pipeline, MISSIONS, STREAMS, windows_per_step=2)
    start = time.perf_counter()
    hand_rounds = [[(slot.name, slot.deployment.ingest(
                        slot.stream.batch(step).windows).scores)
                    for slot in twins.slots] for step in range(6)]
    hand_s = time.perf_counter() - start
    start = time.perf_counter()
    fleet_rounds = [[(event.stream, event.scores) for event in fleet.step()]
                    for _ in range(6)]
    fleet_s = time.perf_counter() - start
    equal = len(fleet_rounds) == len(hand_rounds) and all(
        len(ours) == len(theirs)
        and all(a == b and np.array_equal(x, y)
                for (a, x), (b, y) in zip(ours, theirs))
        for ours, theirs in zip(fleet_rounds, hand_rounds))
    windows = sum(scores.size for r in fleet_rounds for _, scores in r)
    print(f"      hand loop: {windows / hand_s:8.1f} windows/s")
    print(f"      fleet:     {windows / fleet_s:8.1f} windows/s "
          f"({hand_s / fleet_s:.2f}x, "
          f"{fleet.batcher.batches_run} coalesced forwards)")
    print(f"      every score equal bit for bit: {equal}")

    print("\n[3/4] Attaching/detaching streams mid-run ...")
    fleet.add("latecomer", twins.remove(twins.names[0]),
              pipeline.stream("Stealing", None, windows_per_step=2, seed=999))
    events = fleet.step()
    print(f"      round now serves {len(events)} streams "
          f"(latecomer joined at its step 0)")
    fleet.remove("latecomer")
    print(f"      after detach: {len(fleet)} streams")

    print("\n[4/4] Checkpointing the whole fleet ...")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fleet.bin"
        fleet.save(path)
        size_kb = path.stat().st_size / 1024
        restored = DeploymentFleet.load(path, pipeline.embedding_model,
                                        pipeline.generator)
        a = fleet.step()
        b = restored.step()
        identical = len(a) == len(b) > 0 and all(
            x.stream == y.stream and x.step == y.step
            and np.array_equal(x.scores, y.scores) for x, y in zip(a, b))
        print(f"      {size_kb:.0f} KiB for {len(restored)} streams "
              f"(shared models deduplicated)")
        print(f"      resumed fleet's next round identical: {identical}")
    if not equal:
        print("FAILED: coalesced scores diverged from Deployment.ingest")
        return 1
    if not identical:
        print("FAILED: the resumed fleet's next round diverged")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
