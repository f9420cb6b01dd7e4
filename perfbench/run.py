"""perfbench — the repo's one work-bounded serving benchmark.

    python3 perfbench/run.py                          all four workloads, end to end
    python3 perfbench/run.py --layers                 ... plus per-layer replay and waterfall
    python3 perfbench/run.py --workload durable --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --aa 5                   A/A self-check of the working tree
    python3 perfbench/run.py --prepare                train the served models only

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) named in ``BENCHMARK.json``.  Exits non-zero on a parity
failure, a failed operation or a hung child.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Before numpy loads: OpenBLAS would otherwise spin one thread per core in
# this process too (reference fleet, layer replay).
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

#: The driver's cap on one run is 180 s; fail on our own terms first.
WATCHDOG_S = 170


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _metrics_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def _print_result(result, traced: bool) -> None:
    print(f"[{result.workload}] seed {result.seed}, --seconds {result.seconds:g}")
    for phase, ops in result.phases.items():
        print(f"  phase {phase:<10} ops_attempted {ops['attempted']:>6}  "
              f"ops_failed {ops['failed']}")
    for name, (value, unit) in result.end_to_end.items():
        print(f"  {name:<22} {value:>12.4f} {unit}")
    for name, value in result.counters.items():
        print(f"  count {name:<16} {value}")
    for flag in result.flags:
        print(f"  FLAG {flag}")
    for problem in result.problems:
        print(f"  INCORRECT {problem}")
    if traced:
        for name, (value, unit) in result.per_layer.items():
            print(f"  {name:<30} {value:>14.4f} {unit}")


def _result_line(result, traced: bool, spec: dict) -> str:
    """The contract's last line; refuses to print a result whose metric
    names are not exactly the ones ``BENCHMARK.json`` promises."""
    metrics = result.per_layer if traced else result.end_to_end
    promised = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
    if sorted(metrics) != sorted(promised):
        raise RuntimeError(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(promised))}")
    return json.dumps({"correct": result.correct,
                       "attempted": result.attempted,
                       "failed": result.failed,
                       "metrics": _metrics_json(metrics)})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="work budget (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--layers", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--aa", type=int, nargs="?", const=5, default=None,
                        metavar="N", help="A/A self-check: two interleaved "
                        "sets of N runs per workload (default 5)")
    parser.add_argument("--prepare", action="store_true",
                        help="train the served models into the registry and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from perfbench import procs

    # Whatever happens below, no process the run started outlives it.
    procs.become_subreaper()
    signal.signal(signal.SIGTERM, _terminated)
    try:
        return _run(parser, args)
    finally:
        signal.alarm(0)
        procs.reap_all()


def _terminated(_signum, _frame):
    raise SystemExit(128 + signal.SIGTERM)


def _run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from perfbench import bench, workloads

    spec = _spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    traced = bool(args.trace or args.layers)

    if args.prepare:
        print(f"prepare: {bench.ensure_prepared():.2f} s")
        return 0
    if args.aa is not None:
        from perfbench import aa
        return aa.run(spec, args.aa, seconds, first_seed=args.seed,
                      only=args.workload)

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r} "
                     f"(known: {', '.join(workloads.WORKLOADS)})")
    status = 0
    for name in names:
        bench.install_watchdog(WATCHDOG_S)
        result = bench.run_workload(workloads.WORKLOADS[name], args.seed,
                                    seconds, traced=traced)
        _print_result(result, traced)
        print(_result_line(result, traced, spec), flush=True)
        if not result.correct:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
