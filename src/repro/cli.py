"""Command-line interface for the deployment API and the paper's experiments.

Usage (after ``pip install -e .`` the ``repro`` entry point is equivalent):

    python -m repro.cli serve --mission Stealing --set adaptation.monitor.window=72
    python -m repro.cli fleet --streams 8 --missions Stealing Robbery
    python -m repro.cli gateway --streams 4 --port 7641 --trace-dir traces
    python -m repro.cli trace traces/trace.jsonl --check
    python -m repro.cli stats --port 7641
    python -m repro.cli fig5 --shift weak
    python -m repro.cli fig5 --shift strong
    python -m repro.cli fig6
    python -m repro.cli table1
    python -m repro.cli multimission --missions Stealing Robbery Explosion
    python -m repro.cli kg --mission Robbery

Every subcommand accepts ``--set key=value`` (repeatable) with dotted
config paths into :class:`repro.api.ReproConfig` — e.g.
``--set adaptation.monitor.window=72 --set experiment.train_steps=200`` —
and ``--config path.json`` to start from a saved config file.
``--seed``, ``--train-steps`` and ``kg --depth`` set their
``experiment.*`` value over the file's when given, and ``--set`` applies
last.  A stream's dedicated flags (``--stream-seed``, ``--steps-before``,
...) take precedence over the matching ``--set`` path; ``fig6`` keeps its
paper-tuned adaptation defaults unless an ``adaptation.*`` override is
given.

``serve`` runs a streaming deployment end-to-end: cloud-side training (or
a registry/checkpoint fetch), then continuous KG-adaptive serving over a
trend-shift stream, with optional checkpointing via ``--save``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__

#: Dedicated flags that set one config path each: (args attribute, path).
_FLAG_PATHS = (("seed", "experiment.seed"),
               ("train_steps", "experiment.train_steps"),
               ("depth", "experiment.kg_depth"))


def _build_config(args):
    """ReproConfig from ``--config``, then the dedicated flags that were
    given (``--seed``, ``--train-steps``, ``kg --depth``), then ``--set``
    overrides, each over the one before.  An absent flag leaves the
    config's value."""
    from .api import ReproConfig
    try:
        config = ReproConfig.load(args.config) if args.config else ReproConfig()
    except FileNotFoundError:
        raise SystemExit(f"error: config file not found: {args.config}")
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"error: bad config file {args.config}: {exc}")
    flags = [f"{path}={getattr(args, name)}" for name, path in _FLAG_PATHS
             if getattr(args, name, None) is not None]
    try:
        config.apply_overrides(flags + args.overrides)
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        raise SystemExit(f"error: {message}")
    return config


def _pipeline(args):
    from .api import Pipeline
    return Pipeline(_build_config(args))


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="start from a ReproConfig JSON file")
    parser.add_argument("--set", metavar="KEY=VALUE", action="append",
                        dest="overrides", default=[],
                        help="dotted-path config override, repeatable "
                             "(e.g. adaptation.monitor.window=72)")


def _add_common(parser: argparse.ArgumentParser) -> None:
    _add_config_flags(parser)
    parser.add_argument("--seed", type=int, default=None,
                        help="experiment seed (default: the config's value)")
    parser.add_argument("--train-steps", type=int, default=None,
                        help="cloud-side training steps "
                             "(default: the config's value)")


def cmd_serve(args) -> int:
    """Streaming deployment: train/fetch, serve a shifting stream, checkpoint."""
    from .api import Deployment
    pipeline = _pipeline(args)
    mission = args.mission or pipeline.config.stream.initial_class
    if args.resume:
        print(f"[deploy] resuming deployment from {args.resume}")
        try:
            deployment = Deployment.load(args.resume, pipeline.embedding_model)
        except FileNotFoundError:
            raise SystemExit(f"error: checkpoint not found: {args.resume}")
        except ValueError as exc:
            raise SystemExit(f"error: cannot resume {args.resume}: {exc}")
        mission = deployment.mission or mission
        if args.static and deployment.adaptive:
            print("[deploy] --static: freezing the resumed deployment "
                  "(no further adaptation)")
            deployment.freeze()
    else:
        print(f"[deploy] building the {mission!r} deployment "
              f"(adaptive={not args.static})")
        deployment = pipeline.deploy(mission, adaptive=not args.static)

    stream = pipeline.stream(
        mission, args.shifted,
        steps_before_shift=args.steps_before, steps_after_shift=args.steps_after,
        seed=args.stream_seed)
    scfg = stream.config
    print(f"[serve] streaming {scfg.total_steps} steps "
          f"({scfg.initial_class} -> {scfg.shifted_class}, "
          f"{scfg.windows_per_step} windows/step)")
    tracer = None
    if args.trace_dir:
        from .obs import TraceRecorder
        tracer = TraceRecorder()
    for event in deployment.serve(stream, tracer=tracer):
        log = event.log
        flags = []
        if log is not None and log.updated:
            flags.append(f"adapted k={log.k}")
        if log is not None and log.pruned:
            flags.append(f"pruned {len(log.pruned)} node(s)")
        note = ("  [" + ", ".join(flags) + "]") if flags else ""
        print(f"  step {event.step:3d} [{event.active_class or '-':9s}] "
              f"mean score {float(event.scores.mean()):.3f}{note}")
    print(f"[serve] done: {deployment.step_count} steps total, "
          f"{deployment.update_count} token updates, "
          f"{deployment.total_pruned} nodes pruned")
    if tracer is not None:
        from pathlib import Path

        from .obs import write_chrome_trace, write_jsonl
        out = Path(args.trace_dir)
        out.mkdir(parents=True, exist_ok=True)
        spans = tracer.snapshot()
        count = write_jsonl(spans, out / "trace.jsonl")
        write_chrome_trace(spans, out / "trace_chrome.json")
        print(f"[serve] traced {count} span(s) -> {out / 'trace.jsonl'} "
              f"(chrome://tracing: {out / 'trace_chrome.json'})")
    if args.save:
        deployment.save(args.save)
        print(f"[serve] checkpointed deployment to {args.save}")
    return 0


def _build_fleet(args, pipeline):
    """``--streams`` over ``--missions``, sharded when ``--shards`` > 1."""
    from .serving import build_fleet, build_sharded_fleet
    extra = {"shards": args.shards} if args.shards > 1 else {}
    return (build_sharded_fleet if extra else build_fleet)(
        pipeline, args.missions, args.streams, adaptive=args.adaptive,
        windows_per_step=args.windows_per_step, stream_seed=args.stream_seed,
        max_batch_windows=args.max_batch_windows, **extra)


def cmd_fleet(args) -> int:
    """Batched multi-stream serving: N streams, mixed missions, one loop."""
    if args.shards < 1:
        raise SystemExit("error: --shards must be >= 1")
    pipeline = _pipeline(args)
    sharded = args.shards > 1
    print(f"[fleet] building {args.streams} stream(s) over missions "
          f"{args.missions} (adaptive={args.adaptive}"
          + (f", shards={args.shards}" if sharded else "") + ")")
    fleet = _build_fleet(args, pipeline)
    try:
        t0 = time.perf_counter()
        total_windows = 0
        for events in fleet.serve(max_rounds=args.rounds):
            total_windows += sum(e.scores.size for e in events)
            mean = sum(float(e.scores.mean()) for e in events) / len(events)
            adapted = sum(1 for e in events
                          if e.log is not None and e.log.updated)
            note = f"  [{adapted} stream(s) adapted]" if adapted else ""
            print(f"  round {fleet.rounds:3d}: {len(events):2d} stream(s), "
                  f"mean score {mean:.3f}{note}")
        elapsed = time.perf_counter() - t0
        batches_run = fleet.batcher_stats()["batches_run"]
        print(f"[fleet] served {total_windows} windows over {fleet.rounds} "
              f"round(s) in {elapsed:.2f}s "
              f"({total_windows / max(elapsed, 1e-9):.1f} windows/s, "
              f"{batches_run} batched forward(s)"
              + (f" across {args.shards} shard(s)" if sharded else "") + ")")
        if args.save:
            fleet.save(args.save)
            print(f"[fleet] checkpointed fleet to {args.save}")
    finally:
        fleet.close()
    return 0


def cmd_gateway(args) -> int:
    """Serve a fleet over TCP: the network ingestion front door."""
    import asyncio

    from .gateway import GatewayServer
    if args.shards < 1:
        raise SystemExit("error: --shards must be >= 1")
    pipeline = _pipeline(args)
    sharded = args.shards > 1
    print(f"[gateway] building {args.streams} stream(s) over missions "
          f"{args.missions} (adaptive={args.adaptive}"
          + (f", shards={args.shards}" if sharded else "") + ")")
    fleet = _build_fleet(args, pipeline)
    wal_kwargs = {}
    if args.wal_dir:
        from .wal import SnapshotPolicy, WalConfig
        wal_kwargs = {
            "wal_dir": args.wal_dir,
            "wal_config": WalConfig(
                fsync_batch=args.wal_fsync_batch,
                fsync_interval_ms=args.wal_fsync_interval_ms),
            "snapshot_policy": SnapshotPolicy(
                every_rounds=args.snapshot_every_rounds,
                max_log_bytes=args.snapshot_max_log_bytes),
        }
    trace_kwargs = {}
    if args.trace_dir:
        trace_kwargs["trace_dir"] = args.trace_dir
    if args.slow_round_ms is not None:
        trace_kwargs["slow_round_ms"] = args.slow_round_ms
    from .errors import DurabilityError
    try:
        server = GatewayServer(fleet, host=args.host, port=args.port,
                               max_queue_depth=args.max_queue_depth,
                               pipeline=args.pipeline_rounds,
                               **wal_kwargs, **trace_kwargs)
    except DurabilityError as exc:
        fleet.close()
        raise SystemExit(f"error: {exc}")

    async def main() -> None:
        host, port = await server.start()
        print(f"[gateway] listening on {host}:{port} — streams: "
              f"{', '.join(fleet.names)}")
        if args.wal_dir:
            print(f"[gateway] durable: write-ahead log at {args.wal_dir} "
                  "(acks follow the fsync; recover with "
                  f"'repro recover {args.wal_dir}')")
        print("[gateway] rounds: "
              + ("pipelined (async group-commit acks; --no-pipeline for "
                 "the serial loop)" if args.pipeline_rounds
                 else "serial (commit in round)"))
        if args.trace_dir:
            print(f"[gateway] tracing: spans export to {args.trace_dir} "
                  "on drain (summarize with "
                  f"'repro trace {args.trace_dir}/trace.jsonl')")
        print("[gateway] serving until a shutdown frame arrives "
              "(or Ctrl-C)")
        await server.wait_stopped()

    try:
        asyncio.run(main())
        print("[gateway] drained and stopped")
    except KeyboardInterrupt:
        print("\n[gateway] interrupted; shutting down")
    finally:
        fleet.close()
    return 0


def cmd_recover(args) -> int:
    """Rebuild a durable fleet from its write-ahead log directory."""
    from .errors import DurabilityError
    from .utils.binframe import encode_payload
    from .wal import recover_fleet
    print(f"[recover] replaying WAL at {args.wal_dir}")
    try:
        fleet, report = recover_fleet(args.wal_dir)
    except DurabilityError as exc:
        raise SystemExit(f"error: {exc}")
    try:
        print(f"[recover] {report.summary()}")
        print(f"[recover] fleet: {len(fleet)} stream(s) "
              f"({', '.join(fleet.names)}), {fleet.rounds} round(s) served")
        if args.verify:
            # Recovery is deterministic: a second replay must land on the
            # bit-identical fleet checkpoint — the cheap self-check that
            # catches a non-reproducible replay before anyone trusts it.
            twin, _ = recover_fleet(args.wal_dir)
            try:
                identical = (encode_payload(fleet.to_dict())
                             == encode_payload(twin.to_dict()))
            finally:
                twin.close()
            if not identical:
                print("[recover] FAIL: two replays of the same WAL "
                      "produced different fleet state")
                return 1
            print("[recover] verified: double replay is bit-identical")
        if args.save:
            fleet.save(args.save)
            print(f"[recover] checkpointed recovered fleet to {args.save}")
    finally:
        fleet.close()
    return 0


def _adaptation_overridden(args) -> bool:
    return any(o.partition("=")[0].strip().startswith("adaptation.")
               for o in getattr(args, "overrides", None) or [])


def cmd_fig5(args) -> int:
    from .eval import TrendShiftExperiment, format_trend_shift
    shifted = "Robbery" if args.shift == "weak" else "Explosion"
    pipeline = _pipeline(args)
    experiment = TrendShiftExperiment(pipeline, pipeline.stream(
        args.initial, shifted, steps_before_shift=args.steps_before,
        steps_after_shift=args.steps_after, seed=args.stream_seed).config)
    print(format_trend_shift(experiment.run()))
    return 0


def cmd_fig6(args) -> int:
    from .api import Pipeline
    from .eval import FIG6_ADAPTATION, RetrievalDriftExperiment, format_retrieval_drift
    config = _build_config(args)
    # Fig. 6 serves with its paper-tuned aggressive adaptation unless the
    # user asked for other adaptation settings.
    if not _adaptation_overridden(args):
        config.adaptation = FIG6_ADAPTATION
    pipeline = Pipeline(config)
    experiment = RetrievalDriftExperiment(
        pipeline, tracked_word=args.tracked, target_word=args.target,
        stream_config=pipeline.stream(
            "Stealing", "Robbery", steps_before_shift=6,
            steps_after_shift=args.steps_after, seed=args.stream_seed).config)
    print(format_retrieval_drift(experiment.run()))
    return 0


def cmd_table1(args) -> int:
    from .api import Pipeline
    from .edge import EfficiencyComparison
    from .eval import EfficiencyExperiment
    pipeline = Pipeline(_build_config(args))
    experiment = EfficiencyExperiment(
        pipeline, class_a="Stealing", class_b="Robbery",
        alternations=args.alternations, steps_per_phase=10)
    measured = experiment.run()
    comparison = EfficiencyComparison(
        model=pipeline.train("Stealing"),
        auc_baseline=measured.auc_baseline,
        auc_proposed=measured.auc_proposed)
    print(comparison.format_table())
    return 0


def cmd_multimission(args) -> int:
    from .eval.multimission import MultiMissionExperiment
    experiment = MultiMissionExperiment(_pipeline(args), missions=args.missions)
    result = experiment.run()
    print(result.summary())
    if result.type_confusion is not None:
        print("confusion matrix (rows = truth):")
        print(result.type_confusion)
    return 0


def cmd_kg(args) -> int:
    from .concepts import build_default_ontology
    from .kg import KGGenerationConfig, KGGenerator, kg_statistics, render_levels
    from .llm import SyntheticLLM
    exp = _build_config(args).experiment
    oracle = SyntheticLLM(build_default_ontology(), seed=exp.seed)
    generator = KGGenerator(oracle, KGGenerationConfig(depth=exp.kg_depth))
    kg, report = generator.generate(args.mission)
    print(render_levels(kg))
    print(f"\nerrors detected: {len(report.errors_detected)}, "
          f"corrections: {report.corrections_applied}, "
          f"pruned: {report.nodes_pruned}, LLM calls: {report.llm_calls}")
    stats = kg_statistics(kg)
    print(f"reasoning paths: {stats['num_reasoning_paths']}, "
          f"mean fan-in: {stats['mean_fan_in']:.2f}, "
          f"on-path fraction: {stats['on_path_fraction']:.2f}")
    return 0


def cmd_trace(args) -> int:
    """Summarize a trace JSONL file: per-stage percentiles and the
    slowest request trees; ``--check`` gates on chain completeness."""
    import json

    from .obs import (check_trace, chrome_trace, load_jsonl, render_report,
                      slowest_traces, stage_summary)
    try:
        spans = load_jsonl(args.trace_file)
    except FileNotFoundError:
        raise SystemExit(f"error: trace file not found: {args.trace_file}")
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if args.format == "chrome":
        text = json.dumps(chrome_trace(spans), indent=2, sort_keys=True)
    elif args.format == "json":
        payload = {
            "spans": len(spans),
            "stages": stage_summary(spans),
            "slowest": [
                {"trace_id": trace_id, "duration_ms": duration * 1e3,
                 "spans": group}
                for trace_id, duration, group
                in slowest_traces(spans, args.slowest)],
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = render_report(spans, slowest=args.slowest)
    if args.output:
        from pathlib import Path
        Path(args.output).write_text(text + "\n", encoding="utf-8")
        print(f"[trace] wrote {args.output}")
    else:
        print(text)
    if args.check:
        problems = check_trace(spans)
        if problems:
            for problem in problems:
                print(f"[trace] FAIL: {problem}", file=sys.stderr)
            return 1
        print(f"[trace] check ok: {len(spans)} span(s), every served "
              "request has its complete stage chain", file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    """Query a running gateway's ``stats`` op and pretty-print it."""
    import json

    from .gateway import GatewayClient, GatewayError
    from .gateway.protocol import FrameError
    try:
        with GatewayClient(args.host, args.port,
                           timeout=args.timeout) as client:
            reply = client.stats()
    except (OSError, ConnectionError, GatewayError, FrameError) as exc:
        raise SystemExit(f"error: cannot fetch stats from "
                         f"{args.host}:{args.port}: {exc}")
    for key in ("ok", "id", "v"):
        reply.pop(key, None)
    if args.json:
        print(json.dumps(reply, indent=2, sort_keys=True, default=str))
        return 0
    engine = reply.get("engine") or {}
    metrics = reply.get("metrics") or {}
    print(f"[stats] gateway {args.host}:{args.port} — repro "
          f"{reply.get('server_version', '?')}, up "
          f"{reply.get('uptime_seconds', 0.0):.1f}s")
    queued = engine.get("queued") or {}
    print(f"  engine: backend {engine.get('backend', '?')}, "
          f"{engine.get('rounds', 0)} round(s), "
          f"{sum(queued.values())} queued request(s) across "
          f"{len(queued)} stream(s)")
    coalesce = engine.get("coalesce")
    if coalesce:
        print(f"  coalesce: {coalesce['windows_per_forward']:.2f} "
              f"windows/forward ({coalesce['windows_scored']} windows, "
              f"{coalesce['batches_run']} forward(s)); holds "
              f"{coalesce.get('weight_sets', '?')} weight set(s), "
              f"{coalesce.get('token_states', '?')} token state(s)")
    transport = engine.get("transport")
    if transport:
        print("  transport: " + ", ".join(
            f"{key}={value}" for key, value in sorted(transport.items())))
    pipeline = engine.get("pipeline")
    if pipeline:
        print("  pipeline: " + ", ".join(
            f"{key}={value}" for key, value in sorted(pipeline.items())
            if key != "enabled"))
    histograms = metrics.get("histograms") or {}
    populated = {name: hist for name, hist in histograms.items()
                 if hist.get("count")}
    if populated:
        width = max(len(name) for name in populated)
        print("  histograms:")
        for name in sorted(populated):
            hist = populated[name]
            unit = next((key[4:] for key in hist if key.startswith("p50_")),
                        "ms")
            print(f"    {name:<{width}s}  n={hist['count']:<8d}" + "  ".join(
                f"p{q} {hist.get(f'p{q}_{unit}', float('nan')):8.2f} {unit}"
                for q in (50, 95, 99)))
    counters = metrics.get("counters") or {}
    if counters:
        print("  counters: " + ", ".join(
            f"{name}={value:.0f}" for name, value in sorted(counters.items())))
    gauges = metrics.get("gauges") or {}
    if gauges:
        print("  gauges: " + ", ".join(
            f"{name}={value:g}" for name, value in sorted(gauges.items())))
    return 0


def cmd_lint(args) -> int:
    """Run the repro.analysis invariant rules; exit 0 clean, 1 findings."""
    from .analysis import Analyzer, render_json, render_text
    from .analysis.rules import RULES
    rules = None
    if args.rules:
        rules = [RULES[rule_id] for rule_id in args.rules]
    try:
        findings = Analyzer(rules).run(args.paths)
    except FileNotFoundError as exc:
        raise SystemExit(f"error: {exc}")
    if args.format == "json":
        print(render_json(findings))
    elif findings:
        print(render_text(findings))
    if findings and args.format != "json":
        noun = "finding" if len(findings) == 1 else "findings"
        print(f"{len(findings)} {noun}", file=sys.stderr)
    return 1 if findings else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Continuous KG-adaptive VAD reproduction")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve",
                       help="run a streaming edge deployment end-to-end")
    _add_common(p)
    p.add_argument("--mission", default=None,
                   help="mission class to deploy "
                        "(default: config stream.initial_class)")
    p.add_argument("--shifted", default=None,
                   help="anomaly class after the trend shift "
                        "(default: config stream section)")
    p.add_argument("--steps-before", type=int, default=None,
                   help="stream steps before the shift")
    p.add_argument("--steps-after", type=int, default=None,
                   help="stream steps after the shift")
    p.add_argument("--stream-seed", type=int, default=None,
                   help="stream RNG seed (default: config stream.seed)")
    p.add_argument("--static", action="store_true",
                   help="disable continuous adaptation (baseline serving)")
    p.add_argument("--save", metavar="PATH", default=None,
                   help="checkpoint the deployment after serving")
    p.add_argument("--resume", metavar="PATH", default=None,
                   help="resume a previously saved deployment")
    p.add_argument("--trace-dir", metavar="PATH", default=None,
                   help="record per-round engine spans and write "
                        "trace.jsonl + a Chrome-loadable "
                        "trace_chrome.json here")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("fleet",
                       help="serve many concurrent streams with micro-batching")
    _add_common(p)
    p.add_argument("--streams", type=int, default=4,
                   help="number of concurrent streams (default 4)")
    p.add_argument("--missions", nargs="+", default=["Stealing"],
                   help="missions assigned round-robin across streams")
    p.add_argument("--rounds", type=int, default=None,
                   help="serving rounds (default: run streams to exhaustion)")
    p.add_argument("--windows-per-step", type=int, default=2,
                   help="arrival windows per stream per round (default 2)")
    p.add_argument("--stream-seed", type=int, default=100,
                   help="base stream seed; stream i uses seed+i (default 100)")
    p.add_argument("--adaptive", action="store_true",
                   help="continuously adapting deployments (own KG state; "
                        "default: static shared scoring models)")
    p.add_argument("--shards", type=int, default=1,
                   help="partition the fleet into N in-process shards, "
                        "run on threads when the process may use two or "
                        "more CPUs (default 1: one fleet)")
    p.add_argument("--max-batch-windows", type=int, default=None,
                   help="cap windows per coalesced forward")
    p.add_argument("--save", metavar="PATH", default=None,
                   help="checkpoint the whole fleet after serving")
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser("gateway",
                       help="serve a fleet over TCP (network gateway)")
    _add_common(p)
    p.add_argument("--streams", type=int, default=4,
                   help="number of fleet streams to expose (default 4)")
    p.add_argument("--missions", nargs="+", default=["Stealing"],
                   help="missions assigned round-robin across streams")
    p.add_argument("--windows-per-step", type=int, default=2,
                   help="expected arrival windows per request (stream "
                        "shape only; clients send what they like)")
    p.add_argument("--stream-seed", type=int, default=100,
                   help="base stream seed; stream i uses seed+i (default 100)")
    p.add_argument("--adaptive", action="store_true",
                   help="continuously adapting deployments (own KG state)")
    p.add_argument("--shards", type=int, default=1,
                   help="partition the fleet into N in-process shards, "
                        "run on threads when the process may use two or "
                        "more CPUs")
    p.add_argument("--max-batch-windows", type=int, default=None,
                   help="cap windows per coalesced forward")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=7641,
                   help="TCP port; 0 picks a free one (default 7641)")
    p.add_argument("--max-queue-depth", type=int, default=8,
                   help="queued requests per stream before backpressure "
                        "(default 8)")
    p.add_argument("--wal-dir", metavar="PATH", default=None,
                   help="durable serving: write-ahead log every accepted "
                        "ingest to this (fresh) directory; acks follow the "
                        "group-commit fsync, and 'repro recover PATH' "
                        "rebuilds the fleet after a crash")
    p.add_argument("--wal-fsync-batch", type=int, default=64,
                   help="group-commit: fsync after this many pending "
                        "appends (default 64)")
    p.add_argument("--wal-fsync-interval-ms", type=float, default=50.0,
                   help="group-commit: fsync when the oldest pending "
                        "append is this old (default 50)")
    p.add_argument("--snapshot-every-rounds", type=int, default=64,
                   help="embed a fleet snapshot and truncate the log every "
                        "N served rounds (default 64)")
    p.add_argument("--snapshot-max-log-bytes", type=int,
                   default=16 * 1024 * 1024,
                   help="also snapshot once this many log bytes accumulate "
                        "(default 16 MiB)")
    p.add_argument("--pipeline", dest="pipeline_rounds",
                   action=argparse.BooleanOptionalAction, default=True,
                   help="pipelined rounds (default on): the group-commit "
                        "fsync and acks run on a committer thread while "
                        "the next round computes; --no-pipeline restores "
                        "the serial commit-in-round loop")
    p.add_argument("--trace-dir", metavar="PATH", default=None,
                   help="trace every request end to end (gateway, engine, "
                        "shard, WAL spans) and export trace.jsonl + a "
                        "Chrome-loadable trace_chrome.json here on drain")
    p.add_argument("--slow-round-ms", type=float, default=None,
                   help="count rounds slower than this many ms (the "
                        "engine.slow_rounds counter) and, with "
                        "--trace-dir, dump each one's spans as "
                        "slow-round-N.jsonl")
    p.set_defaults(func=cmd_gateway)

    p = sub.add_parser("recover",
                       help="rebuild a durable fleet from its write-ahead "
                            "log")
    p.add_argument("wal_dir", metavar="WAL_DIR",
                   help="the --wal-dir a durable gateway was serving from")
    p.add_argument("--verify", action="store_true",
                   help="replay the WAL twice and fail unless both "
                        "replays produce the bit-identical fleet "
                        "checkpoint")
    p.add_argument("--save", metavar="PATH", default=None,
                   help="checkpoint the recovered fleet (then serve it "
                        "with a fresh --wal-dir)")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("fig5", help="trend-shift experiment (Fig. 5)")
    _add_common(p)
    p.add_argument("--shift", choices=("weak", "strong"), default="weak")
    p.add_argument("--initial", default="Stealing")
    p.add_argument("--steps-before", type=int, default=6)
    p.add_argument("--steps-after", type=int, default=20)
    p.add_argument("--stream-seed", type=int, default=11)
    p.set_defaults(func=cmd_fig5)

    p = sub.add_parser("fig6", help="interpretable retrieval drift (Fig. 6)")
    _add_common(p)
    p.add_argument("--tracked", default="sneaky")
    p.add_argument("--target", default="firearm")
    p.add_argument("--steps-after", type=int, default=24)
    p.add_argument("--stream-seed", type=int, default=11)
    p.set_defaults(func=cmd_fig6)

    p = sub.add_parser("table1", help="edge-vs-cloud efficiency (Table I)")
    _add_common(p)
    p.add_argument("--alternations", type=int, default=4)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("multimission", help="multi-anomaly-type deployment")
    _add_common(p)
    p.add_argument("--missions", nargs="+",
                   default=["Stealing", "Robbery", "Explosion"])
    p.set_defaults(func=cmd_multimission)

    p = sub.add_parser("kg", help="generate and inspect a mission KG")
    _add_config_flags(p)
    p.add_argument("--mission", default="Stealing")
    p.add_argument("--depth", type=int, default=None,
                   help="KG depth (default: the config's value)")
    p.add_argument("--seed", type=int, default=None,
                   help="experiment seed (default: the config's value)")
    p.set_defaults(func=cmd_kg)

    p = sub.add_parser("trace",
                       help="summarize a trace JSONL file (per-stage "
                            "percentiles, slowest request trees)")
    p.add_argument("trace_file", metavar="TRACE_JSONL",
                   help="a trace.jsonl written by --trace-dir")
    p.add_argument("--format", choices=("text", "json", "chrome"),
                   default="text",
                   help="text report (default), machine-readable json "
                        "summary, or a chrome://tracing conversion")
    p.add_argument("--slowest", type=int, default=5,
                   help="how many slowest traces to render (default 5)")
    p.add_argument("--check", action="store_true",
                   help="fail (exit 1) unless every served ingest request "
                        "has its complete stage-span chain with "
                        "consistent parentage (the CI smoke gate)")
    p.add_argument("--output", metavar="PATH", default=None,
                   help="write the report here instead of stdout")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("stats",
                       help="query a running gateway's stats op")
    p.add_argument("--host", default="127.0.0.1",
                   help="gateway address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=7641,
                   help="gateway port (default 7641)")
    p.add_argument("--timeout", type=float, default=10.0,
                   help="connect/request timeout in seconds (default 10)")
    p.add_argument("--json", action="store_true",
                   help="print the raw stats payload as JSON")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("lint",
                       help="run the AST invariant analyzer "
                            "(layering, locks, async, errors, wire)")
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to lint (default: src)")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="report format (default text)")
    from .analysis.rules import RULES as _LINT_RULES
    p.add_argument("--rule", action="append", dest="rules", default=None,
                   choices=sorted(_LINT_RULES),
                   help="run only this rule id, repeatable "
                        "(default: all rules)")
    p.set_defaults(func=cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # ``repro trace ... | head`` closes stdout mid-report; exit the
        # way a well-behaved pipeline citizen does instead of dumping a
        # traceback (devnull swap stops the interpreter's own flush
        # from re-raising at shutdown).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE


if __name__ == "__main__":
    sys.exit(main())
