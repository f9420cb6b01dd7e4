"""Durable serving demo: serve -> SIGKILL -> recover -> verify.

The gateway with ``wal_dir`` set appends every accepted ingest to a
write-ahead log *before* it becomes schedulable and group-commit fsyncs
before any response leaves the server — so an acked score is always on
disk.  Since PR 10 the fsync no longer blocks the round loop: a
dedicated committer thread fsyncs round N's batch while the engine is
already computing round N+1, and acks are released only once the
covering fsync lands (ack-after-fsync preserved, just overlapped).
This script proves the property the hard way:

1. run an uninterrupted reference fleet in this process;
2. launch a child process serving a bit-identical fleet over TCP with a
   WAL directory, snapshotting after every round (so the log is
   truncated and the frozen weights live in one content-addressed blob
   file the snapshots name), and ingest a few rounds through the network
   client (printing the pipelining overlap stats the gateway reports);
3. ``SIGKILL`` the child mid-flight — no drain, no close, no parting
   snapshot;
4. ``recover_fleet`` from the WAL directory alone — a periodic snapshot
   and its blob, then the log after it — and verify the recovered fleet
   continues bit-identically with the reference; then ``repro recover
   --verify`` replays the same directory twice through the CLI and must
   land on the same fleet state both times.

Beside the static streams serves one adaptive stream, a ``sharer()`` of
the demo model: its monitor window of frame codes crosses the snapshot,
and its continuation and ``export_state()`` must match bit for bit too.

Exits non-zero on any mismatch, so CI runs it as the crash-recovery
smoke job.

Run:  python examples/durable_serving.py [--rounds N] [--quick]
"""

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import cli
from repro.adaptation import AdaptationConfig, MonitorConfig
from repro.api import Deployment
from repro.concepts import build_default_ontology
from repro.data import FrameGenerator, TrendShiftConfig, TrendShiftStream
from repro.embedding import build_default_embedding_model
from repro.gnn import MissionGNNConfig, MissionGNNModel
from repro.kg import KGGenerationConfig, KGGenerator
from repro.llm import SyntheticLLM
from repro.serving import DeploymentFleet
from repro.utils.binframe import encode_payload
from repro.wal import SnapshotPolicy, WalConfig, recover_fleet

STREAMS = 3
WINDOW = 4
ADAPTIVE = "cam-adaptive"


def build_fleet() -> DeploymentFleet:
    """A deterministic demo fleet: same seeds -> bit-identical replicas
    in the parent, the served child, and (via the WAL) recovery."""
    ontology = build_default_ontology()
    embedding = build_default_embedding_model(seed=7)
    generator = FrameGenerator(embedding, seed=5)
    oracle = SyntheticLLM(ontology, seed=3)
    kg, _ = KGGenerator(oracle, KGGenerationConfig(depth=3)).generate(
        "Stealing")
    kg.initialize_tokens(embedding)
    model = MissionGNNModel([kg], embedding,
                            MissionGNNConfig(temporal_window=WINDOW, seed=7))
    model.eval()
    fleet = DeploymentFleet()
    for index in range(STREAMS + 1):
        # The adaptive stream's monitor window (4) is shorter than what
        # it ingests, so its code buffer is full and rolling at the kill.
        deployment = Deployment(
            model.sharer(), mission="Stealing",
            adaptation_config=AdaptationConfig(
                monitor=MonitorConfig(window=4, lag=2)),
        ) if index == STREAMS else Deployment(
            model, mission="Stealing", adaptive=False)
        fleet.add(
            ADAPTIVE if index == STREAMS else f"cam-{index}", deployment,
            TrendShiftStream(generator, TrendShiftConfig(
                steps_before_shift=2, steps_after_shift=2,
                windows_per_step=2, window=WINDOW, seed=60 + index)))
    return fleet


def serve_forever(wal_dir: str, port_file: str) -> None:
    """Child mode: serve the fleet durably until the parent kills us."""
    from repro.gateway import serve_in_thread
    fleet = build_fleet()
    handle = serve_in_thread(fleet, wal_dir=wal_dir,
                             wal_config=WalConfig(fsync_batch=4),
                             snapshot_policy=SnapshotPolicy(every_rounds=1))
    host, port = handle.address
    Path(port_file).write_text(f"{host} {port}\n")
    signal.pause()   # SIGKILL is the only way out — that is the demo


def report_overlap(stats: dict) -> None:
    """Print how much fsync time the async group commit overlapped with
    compute: the committer's batch count, the round loop's residual
    commit wait, and the fsyncs the acks actually waited on."""
    engine = stats.get("engine") or {}
    metrics = stats.get("metrics") or {}
    pipeline = engine.get("pipeline") or {}
    if not pipeline.get("enabled"):
        print("      (serial rounds: commit ran inline, nothing overlapped)")
        return
    fsyncs = (metrics.get("counters") or {}).get("wal.fsyncs", 0)
    fsync_ms = ((metrics.get("histograms") or {})
                .get("wal.fsync_latency") or {}).get("p50_ms", 0.0)
    wait = ((metrics.get("histograms") or {})
            .get("engine.stage.commit_wait") or {})
    print(f"      overlap: {pipeline.get('commit_batches', 0)} commit "
          f"batch(es) fsynced off the round loop ({fsyncs} fsync(s), "
          f"p50 {fsync_ms:.2f} ms each), backlog "
          f"{pipeline.get('commit_backlog', 0)}; the round loop only "
          f"waited for commits {wait.get('count', 0)} time(s)"
          + (f" (p50 {wait.get('p50_ms', 0.0):.2f} ms)"
             if wait.get("count") else ""))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=3,
                        help="rounds to serve before the kill (default 3)")
    parser.add_argument("--quick", action="store_true",
                        help="2 rounds, for CI smoke")
    parser.add_argument("--serve", nargs=2, metavar=("WAL_DIR", "PORT_FILE"),
                        help=argparse.SUPPRESS)   # internal child mode
    args = parser.parse_args()
    if args.serve:
        serve_forever(*args.serve)
        return
    rounds = 2 if args.quick else args.rounds

    print(f"[1/4] Uninterrupted reference run ({STREAMS} static + 1 "
          f"adaptive streams, {rounds + 1} rounds) ...")
    reference_fleet = build_fleet()
    windows = {slot.name: [np.asarray(slot.stream.batch(r).windows,
                                      dtype=np.float64)
                           for r in range(rounds + 1)]
               for slot in reference_fleet.slots}
    reference = {name: [] for name in reference_fleet.names}
    for r in range(rounds + 1):
        events = reference_fleet.ingest_round(
            {name: windows[name][r] for name in reference_fleet.names})
        for name, event in events.items():
            reference[name].append(event.scores)

    workdir = Path(tempfile.mkdtemp(prefix="durable_serving_"))
    wal_dir = workdir / "wal"
    port_file = workdir / "port"
    print(f"[2/4] Launching a durable gateway child (wal: {wal_dir}) ...")
    child = subprocess.Popen(
        [sys.executable, __file__, "--serve", str(wal_dir), str(port_file)])
    try:
        deadline = time.time() + 120
        while not port_file.exists():
            if child.poll() is not None:
                raise SystemExit("child gateway exited before serving")
            if time.time() > deadline:
                raise SystemExit("child gateway never published its port")
            time.sleep(0.2)
        host, port = port_file.read_text().split()

        from repro.gateway import GatewayClient
        print(f"      ingesting {rounds} rounds via {host}:{port} ...")
        with GatewayClient(host, int(port)) as client:
            for name in windows:
                client.attach(name)
            for r in range(rounds):
                for name in windows:
                    reply = client.ingest(name, windows[name][r])
                    assert np.array_equal(reply["scores_array"],
                                          reference[name][r]), \
                        f"live {name} round {r} diverged from reference"
            report_overlap(client.stats())

        print(f"[3/4] SIGKILL the gateway (pid {child.pid}) — no drain, "
              "no parting snapshot ...")
        os.kill(child.pid, signal.SIGKILL)
        child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()

    print(f"[4/4] Recovering the fleet from {wal_dir} alone ...")
    recovered, report = recover_fleet(wal_dir)
    print(f"      {report.summary()}")
    blobs = list(wal_dir.glob("*.blob"))
    print(f"      {len(blobs)} weight blob file(s) beside the segments")
    assert report.snapshot_seq > 0 and len(blobs) == 1, \
        "recovery did not go through a periodic, blob-naming snapshot"
    assert sorted(recovered.names) == sorted(windows), \
        "recovered fleet lost streams"
    status = cli.main(["recover", str(wal_dir), "--verify"])
    if status != 0:
        sys.exit(f"'repro recover --verify' exited {status}")
    controller = recovered.slots[recovered.names.index(ADAPTIVE)] \
        .deployment.controller
    print(f"      {ADAPTIVE}: {len(controller._code_buffer)} frame codes "
          f"of shape {controller._code_buffer[0].shape} recovered")
    events = recovered.ingest_round(
        {name: windows[name][rounds] for name in recovered.names})
    for name, event in events.items():
        assert np.array_equal(event.scores, reference[name][rounds]), \
            f"post-recovery {name} diverged — durability is broken"
    assert encode_payload(controller.export_state()) == encode_payload(
        reference_fleet.slots[reference_fleet.names.index(ADAPTIVE)]
        .deployment.controller.export_state()), \
        f"{ADAPTIVE}'s adaptation state diverged"
    print("\nEvery acked score survived the kill; the recovered fleet "
          "continues bit-identically. Durable serving works.")


if __name__ == "__main__":
    main()
