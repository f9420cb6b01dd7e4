"""Network gateway demo: server + client + load generator in one script.

The serving stack so far runs as one fleet (``DeploymentFleet``) driven
by the caller's own loop.  This example puts a fleet behind the
:class:`repro.gateway.GatewayServer` network front door and talks to it
like a remote camera uplink would:

1. serve a 4-stream fleet over TCP (ephemeral port, in-thread loop);
2. drive it with the blocking :class:`~repro.gateway.GatewayClient` —
   attach, ingest windows, read bit-identical scores back, poke the
   typed error paths (unknown stream, backpressure-bounded queues);
3. run the multi-connection :class:`~repro.gateway.LoadGenerator` and
   verify every response matches a direct in-process ``fleet.step()``
   run, then print the gateway's own ``stats`` metrics;
4. repeat the run with a :class:`~repro.obs.TraceRecorder` attached to
   both ends, so every request becomes a client → gateway → stage span
   tree — then summarize the per-stage percentiles and render the
   slowest request's tree, exactly what ``repro trace`` does for
   ``--trace-dir`` exports.

Run:  python examples/gateway_serving.py   (exits non-zero unless the
first ingest, every load-generated response and the traced run's stage
chains all check out)
"""

import sys

import numpy as np

from repro.api import Pipeline, ReproConfig
from repro.gateway import (GatewayClient, GatewayError, LoadGenConfig,
                           LoadGenerator, serve_in_thread)
from repro.obs import (TraceRecorder, check_trace, render_tree,
                       slowest_traces, stage_summary)
from repro.serving import build_fleet

STREAMS = 4
ROUNDS = 4
MISSIONS = ["Stealing", "Robbery"]


def build(pipeline):
    return build_fleet(pipeline, MISSIONS, STREAMS, windows_per_step=2)


def main() -> int:
    config = ReproConfig()
    config.override("experiment.train_steps", 150)  # demo-sized training
    pipeline = Pipeline.from_config(config)

    print(f"[1/4] Direct in-process reference run ({STREAMS} streams) ...")
    reference_fleet = build(pipeline)
    windows = {slot.name: [np.asarray(slot.stream.batch(r).windows)
                           for r in range(ROUNDS)]
               for slot in reference_fleet.slots}
    reference = {name: [] for name in reference_fleet.names}
    for _ in range(ROUNDS):
        for event in reference_fleet.step():
            reference[event.stream].append(event.scores)

    print("\n[2/4] Serving the same fleet over TCP ...")
    with build(pipeline) as fleet, serve_in_thread(fleet) as handle:
        host, port = handle.address
        print(f"      gateway listening on {host}:{port}")
        with GatewayClient(host, port) as client:
            name = fleet.names[0]
            client.attach(name)
            reply = client.ingest(name, windows[name][0])
            identical = np.array_equal(reply["scores_array"],
                                       reference[name][0])
            print(f"      ingest -> step {reply['step']}, "
                  f"scores identical to direct run: {identical}")
            try:
                client.attach("no-such-camera")
            except GatewayError as error:
                print(f"      typed error frames: [{error.code}] "
                      f"{error.message[:48]}...")
        print("      (admission control rejects with a 'backpressure' "
              "frame once a stream's queue fills)")

    print("\n[3/4] Load-generating against a fresh gateway ...")
    with build(pipeline) as fleet, serve_in_thread(fleet) as handle:
        generator = LoadGenerator(handle.address, windows,
                                  LoadGenConfig(clients=2, rounds=ROUNDS))
        result = generator.run()
        with GatewayClient(*handle.address) as client:
            stats = client.stats()
    parity = all(np.array_equal(scores, reference[name][round_index])
                 for name, served in result.scores.items()
                 for round_index, scores in served)
    summary = result.summary()
    latency = summary["latency"]
    print(f"      {result.requests} requests over 2 connections: "
          f"{summary['windows_per_sec']:.1f} windows/s")
    print(f"      latency p50 {latency['p50_ms']:.2f} ms   "
          f"p95 {latency['p95_ms']:.2f} ms   p99 {latency['p99_ms']:.2f} ms")
    print(f"      every response bit-identical to fleet.step(): {parity}")
    counters = stats["metrics"]["counters"]
    print(f"      server metrics: {counters['gateway.requests.ingest']} "
          f"ingests over {counters['gateway.rounds']} coalesced rounds, "
          f"{counters['gateway.connections']} connections")

    print("\n[4/4] Same run, traced end to end ...")
    recorder = TraceRecorder()
    with build(pipeline) as fleet, \
            serve_in_thread(fleet, tracer=recorder) as handle:
        with GatewayClient(*handle.address, tracer=recorder) as client:
            for name in fleet.names:
                client.attach(name)
            for round_index in range(ROUNDS):
                for name in fleet.names:
                    client.ingest(name, windows[name][round_index])
    spans = recorder.snapshot()
    problems = check_trace(spans)
    print(f"      {len(spans)} spans recorded, stage chains "
          f"{'complete' if not problems else 'BROKEN: ' + problems[0]}")
    print("      per-stage p95 (ms):")
    for name, row in stage_summary(spans).items():
        print(f"        {name:<20} {row['p95_ms']:8.3f}  (n={row['count']})")
    trace_id, duration, group = slowest_traces(spans, 1)[0]
    print(f"      slowest request trace {trace_id} "
          f"({duration * 1e3:.3f} ms):")
    for line in render_tree(group).splitlines():
        print(f"        {line}")
    if not identical or not parity:
        print("FAILED: gateway-served scores diverged from fleet.step()")
        return 1
    if problems:
        print(f"FAILED: {len(problems)} broken stage chain(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
