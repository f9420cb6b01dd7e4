"""The benchmark's server child: one real gateway in its own process.

Built only from the public API (``Pipeline.from_config``, ``build_fleet``
/ ``build_sharded_fleet``, ``GatewayServer``, ``recover_fleet``) with the
shipped serving defaults: binary codec, pipelined rounds, fair policy,
``max_queue_depth=8``, default ``WalConfig``.  Tracing is off.

Line protocol on stdout: ``READY <port>`` once the socket is bound and
every model is loaded, ``STATS <json>`` after a drained shutdown
(``serve``); ``RECOVERED <json>`` (``recover``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT, _ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))


def _emit(tag: str, payload) -> None:
    print(tag, payload if isinstance(payload, (int, str))
          else json.dumps(payload), flush=True)


def serve(args) -> int:
    from repro.gateway import GatewayServer
    from repro.wal import SnapshotPolicy, WalConfig

    from perfbench import workloads

    workload = workloads.WORKLOADS[args.workload]
    fleet = workloads.make_fleet(workloads.make_pipeline(workload), workload)
    wal = {}
    if args.wal_dir:
        wal = {"wal_dir": args.wal_dir, "wal_config": WalConfig()}
        if args.no_snapshots:
            # The recovery tail replays a known number of records.
            wal["snapshot_policy"] = SnapshotPolicy(every_rounds=None,
                                                    max_log_bytes=None)
    server = GatewayServer(fleet, port=0, policy="fair", codec="binary",
                           max_queue_depth=8, pipeline=True, **wal)

    async def main() -> None:
        _host, port = await server.start()
        _emit("READY", port)
        await server.wait_stopped()

    try:
        asyncio.run(main())
        _emit("STATS", {"engine": server.engine.stats(),
                        "metrics": server.metrics.to_dict()})
    finally:
        fleet.close()
    return 0


def recover(args) -> int:
    """Rebuild the fleet a SIGKILLed server's WAL describes and time it;
    then score one probe request per stream on the recovered fleet."""
    import numpy as np

    from repro.wal import recover_fleet

    from perfbench import workloads

    workload = workloads.WORKLOADS[args.workload]
    started = time.perf_counter()
    fleet, report = recover_fleet(args.wal_dir)
    elapsed = time.perf_counter() - started
    try:
        source = workloads.WindowSource(
            workloads.make_pipeline(workload), workload, args.seed,
            args.probe_index + 1)
        names = workload.stream_names()
        probe = fleet.score_only({
            name: source.request(index, args.probe_index)
            for index, name in enumerate(names)})
        steps = {slot.name: slot.deployment.step_count
                 for slot in fleet.slots}
        _emit("RECOVERED", {
            "seconds": elapsed, "records": report.records,
            "replayed": report.replayed, "steps": steps,
            "probe": {name: np.asarray(scores).tolist()
                      for name, scores in probe.items()}})
    finally:
        fleet.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("serve", "recover"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--wal-dir")
    parser.add_argument("--no-snapshots", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--probe-index", type=int, default=0)
    parser.add_argument("--lifetime", type=int, default=170,
                        help="hard cap in seconds: an orphaned or hung "
                             "server kills itself")
    args = parser.parse_args(argv)
    signal.alarm(args.lifetime)
    return serve(args) if args.mode == "serve" else recover(args)


if __name__ == "__main__":  # shard workers re-import this file under spawn
    sys.exit(main())
