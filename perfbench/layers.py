"""The traced run: per-layer metrics, layer replay, latency waterfall.

The end-to-end run keeps tracing off (the program's own ``tracer=``
forces the split, non-fused round path, so a traced server is not the
production server).  Here the same generated requests are replayed
in-process through each layer's public functions, in the order the
server calls them, wrapped in the benchmark's own spans
``{name, start, end, parent, round_id}`` kept in memory and written to
``perfbench/.cache/trace-<workload>.jsonl`` at the end.  A span's self
time is its duration minus the part its children cover.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
from contextlib import contextmanager

import numpy as np

from repro.gateway.protocol import (decode_body, encode_frame, ok_frame,
                                    request_frame)
from repro.runtime import EngineRequest
from repro.serving import (MicroBatcher, RingBuffer, ScoreRequest,
                           dumps_message, loads_message)
from repro.utils.binframe import decode_payload
from repro.wal import WalConfig, WalDurability, WriteAheadLog, ingest_record

from . import workloads
from .workloads import WorkDir
from .stats import median, percentile

#: Waterfall rows, in the order the server runs them.
WATERFALL = ("protocol.decode", "runtime.submit", "runtime.run_round",
             "sharded.serve_round", "batcher.score", "gnn.anomaly_scores",
             "api.ingest", "adapt.phase", "runtime.commit_wait",
             "wal.append", "wal.flush", "protocol.encode")


#: Every per-layer metric of the traced run: name -> (unit, better).
#: ``BENCHMARK.json`` lists exactly these (perfbench/tests checks it).
PER_LAYER = {
    # gateway (server, client wire) -- stats op / parting STATS
    "gateway.requests": ("count", "higher"),
    "gateway.rounds": ("count", "lower"),
    "gateway.req_per_round": ("count", "higher"),
    "gateway.rejected": ("count", "lower"),
    "gateway.errors": ("count", "lower"),
    "gateway.server_p50_ms": ("ms", "lower"),
    "gateway.wire_ms": ("ms", "lower"),
    # protocol + utils.binframe -- at the workload's frame shape
    "binframe.encode_us": ("us", "lower"),
    "binframe.decode_us": ("us", "lower"),
    "binframe.frame_bytes": ("bytes", "lower"),
    "protocol.json_encode_us": ("us", "lower"),
    "protocol.json_decode_us": ("us", "lower"),
    # runtime (engine, policies, backends)
    "engine.rounds": ("count", "lower"),
    "engine.round_p50_ms": ("ms", "lower"),
    "engine.queue_wait_p50_ms": ("ms", "lower"),
    "engine.commit_wait_p50_ms": ("ms", "lower"),
    "engine.commit_batches": ("count", "lower"),
    "engine.expired": ("count", "lower"),
    "engine.errors": ("count", "lower"),
    "runtime.submit_us": ("us", "lower"),
    "runtime.round_self_ms": ("ms", "lower"),
    # serving.batcher
    "batcher.windows_per_forward": ("windows", "higher"),
    "batcher.forwards": ("count", "lower"),
    "batcher.self_us": ("us", "lower"),
    # serving.sharded + serving.shm_ring
    "sharded.fused_rounds": ("count", "lower"),
    "sharded.round_trips": ("count", "lower"),
    "sharded.serve_round_ms": ("ms", "lower"),
    "shm_ring.roundtrip_us": ("us", "lower"),
    "shm_ring.mb_per_s": ("MB/s", "higher"),
    # gnn (+ nn): microseconds per window at batch 1 / 16 / 64
    "gnn.score_us_b1": ("us", "lower"),
    "gnn.score_us_b16": ("us", "lower"),
    "gnn.score_us_b64": ("us", "lower"),
    # api (Deployment)
    "deployment.ingest_static_us": ("us", "lower"),
    "deployment.ingest_quiet_us": ("us", "lower"),
    # adaptation
    "adapt.updates": ("count", "lower"),
    "adapt.pruned": ("count", "lower"),
    "adapt.stall_p50_ms": ("ms", "lower"),
    "adapt.wall_share": ("share", "lower"),
    "adapt.phase_ms": ("ms", "lower"),
    "adapt.token_update_ms": ("ms", "lower"),
    "adapt.monitor_us": ("us", "lower"),
    "adapt.structure_ms": ("ms", "lower"),
    # wal
    "wal.records": ("count", "lower"),
    "wal.fsyncs": ("count", "lower"),
    "wal.records_per_fsync": ("count", "higher"),
    "wal.append_p50_us": ("us", "lower"),
    "wal.fsync_p50_ms": ("ms", "lower"),
    "wal.snapshots": ("count", "lower"),
    "wal.snapshot_p50_ms": ("ms", "lower"),
    "wal.recover_wps": ("windows/s", "higher"),
    "wal.bytes_per_record": ("bytes", "lower"),
    "wal.append_us": ("us", "lower"),
    "wal.decode_us": ("us", "lower"),
    "wal.replay_records_per_s": ("1/s", "higher"),
    # the latency waterfall of one solo request (layer replay)
    **{f"trace.{name}_ms": ("ms", "lower") for name in WATERFALL},
    "trace.unattributed_ms": ("ms", "lower"),
    "trace.unattributed_share": ("share", "lower"),
    # load generator and environment: validity, not the program
    "loadgen.cpu_share": ("share", "lower"),
    "loadgen.cl_p50_ms": ("ms", "lower"),
    "loadgen.cl_p99_ms": ("ms", "lower"),
    "loadgen.solo_p99_ms": ("ms", "lower"),
    "loadgen.paced_p50_ms": ("ms", "lower"),
    "loadgen.paced_p99_ms": ("ms", "lower"),
    "loadgen.late_p99_ms": ("ms", "lower"),
    "env.spin_ms_before": ("ms", "lower"),
    "env.spin_ms_after": ("ms", "lower"),
    "env.nproc": ("count", "higher"),
    "env.loadavg": ("count", "lower"),
}

# ---------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------
class Spans:
    """In-memory span recorder; parents follow the per-thread call stack.
    A span opened on a thread with no open span of its own (the engine's
    committer) is parented under ``anchor``, the span the replay loop
    holds open while it waits for that thread."""

    def __init__(self):
        self.records: list[dict] = []
        self.round_id = -1
        self.anchor: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, anchor: bool = False):
        stack = self._stack()
        record = {"name": name, "start": 0.0, "end": 0.0,
                  "parent": stack[-1] if stack else self.anchor,
                  "round_id": self.round_id}
        with self._lock:
            index = len(self.records)
            self.records.append(record)
        stack.append(index)
        if anchor:
            self.anchor = index
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            if anchor:
                self.anchor = None

    def wrap(self, obj, attr: str, name: str) -> None:
        """Replace ``obj.attr`` (on the instance) with a spanned call."""
        original = getattr(obj, attr)

        def spanned(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(obj, attr, spanned)

    def self_times(self) -> dict[int, float]:
        """Span index -> seconds not covered by its children."""
        children: dict[int, list[dict]] = {}
        for record in self.records:
            if record["parent"] is not None:
                children.setdefault(record["parent"], []).append(record)
        out = {}
        for index, record in enumerate(self.records):
            covered, cursor = 0.0, record["start"]
            for child in sorted(children.get(index, ()),
                                key=lambda item: item["start"]):
                start = max(child["start"], cursor)
                end = min(child["end"], record["end"])
                if end > start:
                    covered += end - start
                    cursor = end
            out[index] = (record["end"] - record["start"]) - covered
        return out

    def per_round(self, first_round: int, last_round: int) -> dict[str, list[float]]:
        """Span name -> per-round summed self time (seconds) over rounds
        ``first_round <= id < last_round`` (0.0 where the name did not
        occur in a round)."""
        selfs = self.self_times()
        names = {record["name"] for record in self.records}
        table = {name: [0.0] * (last_round - first_round) for name in names}
        for index, record in enumerate(self.records):
            if first_round <= record["round_id"] < last_round:
                table[record["name"]][record["round_id"] - first_round] \
                    += selfs[index]
        return table

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for index, record in enumerate(self.records):
                handle.write(json.dumps({"id": index, **record}) + "\n")


def spin_ms() -> float:
    """A fixed Python + GEMM spin: how long this box takes for a constant
    amount of work right now (compared before and after a traced run)."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((96, 96))
    started = time.perf_counter()
    total = 0
    for _ in range(600):
        a = a @ a
        a /= np.abs(a).max()
        total += sum(range(400))
    return (time.perf_counter() - started) * 1e3


def timed(fn, budget_s: float = 0.15, min_calls: int = 5) -> float:
    """Median seconds per call of ``fn`` over at least ``min_calls`` calls
    and about ``budget_s`` seconds."""
    samples = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < min_calls or time.perf_counter() < deadline:
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return median(samples)


# ---------------------------------------------------------------------
# Layer replay
# ---------------------------------------------------------------------
def replay(workload, pipeline, source, spans: Spans, work: WorkDir) -> dict:
    """Push generated requests through decode -> submit -> run_round
    (-> batcher -> GNN -> ingest -> adaptation) -> commit (-> WAL) ->
    encode on an in-process fleet configured like the server's engine:
    first ``replay_rounds`` solo rounds (one request each, the shape the
    waterfall is compared with), then a few full rounds (one request per
    stream, the shape of the capacity phase).  Returns the round ranges.
    """
    fleet = workloads.make_fleet(pipeline, workload)
    engine = fleet.engine
    names = workload.stream_names()
    durability = None
    try:
        engine.max_queue_depth = 8
        engine.pipeline = True
        delivered = threading.Event()
        box: dict = {}

        def on_commit(results) -> None:
            box["results"] = results
            delivered.set()

        engine.on_commit = on_commit
        if workload.wal:
            durability = WalDurability(fleet, work.wal(), config=WalConfig())
            engine.durability = durability
            spans.wrap(durability.wal, "append", "wal.append")
            spans.wrap(durability.wal, "flush", "wal.flush")
        if workload.shards:
            spans.wrap(fleet, "serve_round", "sharded.serve_round")
        else:
            spans.wrap(fleet.batcher, "score", "batcher.score")
            models = {}
            for slot in fleet.slots:
                spans.wrap(slot.deployment, "ingest", "api.ingest")
                models[id(slot.deployment.model)] = slot.deployment.model
            for model in models.values():
                spans.wrap(model, "anomaly_scores", "gnn.anomaly_scores")

        cursor = [0] * len(names)

        def one_round(streams: list[int]) -> None:
            spans.round_id += 1
            frames = []
            for stream in streams:
                frames.append(encode_frame(request_frame(
                    "ingest", spans.round_id, stream=names[stream],
                    windows=source.request(stream, cursor[stream])),
                    codec="binary"))
                cursor[stream] += 1
            with spans.span("round"):
                for frame in frames:
                    with spans.span("protocol.decode"):
                        payload, _header = decode_payload(frame)
                    with spans.span("runtime.submit"):
                        engine.submit(EngineRequest(
                            op="ingest", stream=payload["stream"],
                            windows=payload["windows"]))
                delivered.clear()
                with spans.span("runtime.run_round"):
                    engine.run_round()
                with spans.span("runtime.commit_wait", anchor=True):
                    if not delivered.wait(timeout=60.0):
                        raise TimeoutError("replayed round never committed")
                for result in box["results"]:
                    if result.kind != "event":
                        raise RuntimeError(f"replayed request failed: "
                                           f"{result.code} {result.message}")
                    with spans.span("protocol.encode"):
                        encode_frame(ok_frame(
                            spans.round_id, stream=result.request.stream,
                            step=result.event.step,
                            scores=np.asarray(result.event.scores),
                            mission=result.event.mission, adapted=False,
                            pruned=0), codec="binary")

        solo_first = spans.round_id + 1
        for index in range(workload.replay_rounds):
            one_round([index % len(names)])
        full_first = spans.round_id + 1
        for _ in range(max(4, workload.replay_rounds // 8)):
            one_round(list(range(len(names))))
        return {"solo": (solo_first, full_first),
                "full": (full_first, spans.round_id + 1)}
    finally:
        engine.stop_committer()
        if durability is not None:
            durability.close(engine)
        fleet.close()


def adaptation_probe(workload, pipeline, source, spans: Spans,
                     phases: int = 3, max_phases: int = 10) -> dict:
    """Feed an in-process adaptive fleet its streams, step by step, until
    ``phases`` adaptation phases have run and one of them pruned a node
    (or ``max_phases`` have), with spans around the controller's public
    steps.  Returns median seconds of: a quiet
    ``ingest`` (scores precomputed), an adapting one (``phase``), one
    ``TokenEmbeddingUpdater.update``, ``observe`` + ``select`` per ingest,
    and ``replace_node`` + optimizer refresh per ingest that pruned."""
    fleet = workloads.make_fleet(pipeline, workload)
    times: dict[str, list[float]] = {
        "phase": [], "quiet": [], "token_update": [], "monitor": [],
        "structure": []}
    for slot in fleet.slots:
        controller = slot.deployment.controller
        spans.wrap(controller.monitor, "observe", "adapt.monitor")
        spans.wrap(controller.monitor, "select", "adapt.monitor")
        spans.wrap(controller.updater, "update", "adapt.token_update")
        spans.wrap(controller.structural, "replace_node", "adapt.structure")
        spans.wrap(controller.updater, "rebuild_optimizer", "adapt.structure")
    seen = 0
    for index in range(source.steps):
        for stream, slot in enumerate(fleet.slots):
            if seen >= max_phases or (seen >= phases and times["structure"]):
                break
            windows = source.request(stream, index)
            scores = slot.deployment.model.anomaly_scores(windows)
            spans.round_id += 1
            first = len(spans.records)
            with spans.span("api.ingest") as record:
                log = slot.deployment.ingest(windows, scores=scores)
            if log.updated:
                record["name"] = "adapt.phase"
                seen += 1
            times["phase" if log.updated else "quiet"].append(
                record["end"] - record["start"])
            sums = {"monitor": 0.0, "structure": 0.0}
            for child in spans.records[first + 1:]:
                kind = child["name"].split(".", 1)[1]
                elapsed = child["end"] - child["start"]
                if kind == "token_update":
                    times[kind].append(elapsed)
                else:
                    sums[kind] += elapsed
            times["monitor"].append(sums["monitor"])
            if log.pruned:
                times["structure"].append(sums["structure"])
    return {kind: median(values) if values else 0.0
            for kind, values in times.items()}


# ---------------------------------------------------------------------
# Microbenchmarks at the workload's shapes
# ---------------------------------------------------------------------
def codec_metrics(workload, source) -> dict:
    windows = source.request(0, 0)
    request = request_frame("ingest", 1, stream=workload.stream_names()[0],
                            windows=windows)
    frame = encode_frame(request, codec="binary")
    json_frame = encode_frame(request, codec="json")
    return {
        "binframe.encode_us": timed(
            lambda: encode_frame(request, codec="binary")) * 1e6,
        "binframe.decode_us": timed(lambda: decode_payload(frame)) * 1e6,
        "binframe.frame_bytes": float(len(frame)),
        "protocol.json_encode_us": timed(
            lambda: encode_frame(request, codec="json"), 0.1, 3) * 1e6,
        "protocol.json_decode_us": timed(
            lambda: decode_body(json_frame[4:]), 0.1, 3) * 1e6,
    }


def model_metrics(workload, pipeline, source) -> dict:
    """GNN forward cost per window at three batch sizes, the batcher's
    own cost on a capacity-phase round (``MicroBatcher.score`` minus the
    forwards it makes), and static ``Deployment.ingest`` with precomputed
    scores."""
    fleet = workloads.make_fleet(
        pipeline, dataclasses.replace(workload, shards=0))
    slots = fleet.slots
    model = slots[0].deployment.model
    pool = np.concatenate([source.request(stream, index)
                           for stream in range(workload.streams)
                           for index in range(2)])
    while pool.shape[0] < 64:
        pool = np.concatenate([pool, pool])
    out = {}
    for batch in (1, 16, 64):
        chunk = pool[:batch]
        out[f"gnn.score_us_b{batch}"] = \
            timed(lambda: model.anomaly_scores(chunk)) / batch * 1e6
    # The batcher's own cost on one capacity-phase round: its call minus
    # the forwards it makes, timed inside the same call (two separately
    # timed calls differ by more than the batcher costs).
    requests = [ScoreRequest(slot.deployment.model, source.request(stream, 0))
                for stream, slot in enumerate(slots)]
    inside = [0.0]
    for scored in {id(r.model): r.model for r in requests}.values():
        forward = scored.anomaly_scores

        def timed_forward(windows, forward=forward):
            started = time.perf_counter()
            try:
                return forward(windows)
            finally:
                inside[0] += time.perf_counter() - started

        scored.anomaly_scores = timed_forward
    batcher = MicroBatcher()

    def batcher_self() -> float:
        inside[0] = 0.0
        started = time.perf_counter()
        batcher.score(requests)
        return time.perf_counter() - started - inside[0]

    batcher_self()
    out["batcher.self_us"] = median(batcher_self() for _ in range(9)) * 1e6
    static = pipeline.deploy(workloads.MISSIONS[0], adaptive=False)
    windows = source.request(0, 0)
    scores = static.scores(windows)
    out["deployment.ingest_static_us"] = timed(
        lambda: static.ingest(windows, scores=scores)) * 1e6
    return out


def ring_metrics(workload, source) -> dict:
    """One shard's share of a round over a shared-memory ring:
    ``dumps_message`` -> ``write`` -> ``read`` -> ``loads_message``."""
    per_shard = max(1, workload.streams // max(workload.shards, 1))
    names = workload.stream_names()
    message = ("serve_round",
               {names[stream]: source.request(stream, 0)
                for stream in range(per_shard)},
               names[:per_shard])
    size = len(dumps_message(message))
    ring = RingBuffer.create(max(4 * size, 1 << 16))
    try:
        def roundtrip():
            blob = dumps_message(message)
            if not ring.write(blob):
                raise RuntimeError("probe message does not fit its ring")
            loads_message(ring.read(len(blob)))

        seconds = timed(roundtrip)
    finally:
        ring.close()
        ring.unlink()
    return {"shm_ring.roundtrip_us": seconds * 1e6,
            "shm_ring.mb_per_s": size / seconds / 1e6}


def wal_metrics(workload, source, work: WorkDir, records: int = 256) -> dict:
    """``WriteAheadLog`` append / flush / replay on ingest records of the
    workload's request shape."""
    name = workload.stream_names()[0]
    windows = [source.request(0, index) for index in range(8)]
    directory = work.wal()
    with WriteAheadLog(directory, config=WalConfig()) as wal:
        appends = []
        for index in range(records):
            record = ingest_record(name, windows[index % len(windows)])
            started = time.perf_counter()
            wal.append(record)
            appends.append(time.perf_counter() - started)
        wal.flush()
        size = wal.size_bytes
    with WriteAheadLog(directory, config=WalConfig()) as wal:
        started = time.perf_counter()
        replayed = sum(1 for _ in wal.replay())
        elapsed = time.perf_counter() - started
    if replayed != records:
        raise RuntimeError(f"WAL probe replayed {replayed} of {records} records")
    return {"wal.bytes_per_record": size / records,
            "wal.append_us": median(appends) * 1e6,
            "wal.decode_us": elapsed / records * 1e6,
            "wal.replay_records_per_s": records / elapsed}


# ---------------------------------------------------------------------
# Everything the traced run reports
# ---------------------------------------------------------------------
def _hist(stats: dict, name: str, key: str = "p50_ms") -> float:
    return float(stats["metrics"]["histograms"].get(name, {}).get(key, 0.0))


def _counter(stats: dict, name: str) -> float:
    return float(stats["metrics"]["counters"].get(name, 0))


def _busy_share(replies, wall: float) -> float:
    """Share of ``wall`` covered by the union of the replies'
    [send, reply] intervals."""
    covered, cursor = 0.0, float("-inf")
    for reply in sorted(replies, key=lambda r: r.received - r.latency):
        start = max(reply.received - reply.latency, cursor)
        if reply.received > start:
            covered += reply.received - start
            cursor = reply.received
    return covered / wall


def fill_per_layer(result, workload, pipeline, source, served, *, recovery,
                   spin_before, log) -> None:
    metrics = result.per_layer
    stats, solo_stats, paced = served.stats, served.solo_stats, served.paced

    def put(name: str, value: float) -> None:
        metrics[name] = (float(value), PER_LAYER[name][0])

    # -- gateway / runtime / batcher / sharded / wal: the stats op ------
    solo_p50_ms = median(served.solo_p50s()) * 1e3
    server_p50_ms = _hist(solo_stats, "gateway.ingest_latency")
    requests = _counter(stats, "gateway.requests.ingest")
    rounds = _counter(stats, "gateway.rounds")
    put("gateway.requests", requests)
    put("gateway.rounds", rounds)
    put("gateway.req_per_round", requests / rounds if rounds else 0.0)
    put("gateway.rejected", _counter(stats, "gateway.rejected.backpressure"))
    put("gateway.errors", _counter(stats, "gateway.errors"))
    put("gateway.server_p50_ms", server_p50_ms)
    put("gateway.wire_ms", solo_p50_ms - server_p50_ms)
    put("engine.rounds", _counter(stats, "engine.rounds"))
    put("engine.round_p50_ms", _hist(stats, "engine.round_latency"))
    put("engine.queue_wait_p50_ms", _hist(stats, "engine.stage.queue_wait"))
    put("engine.commit_wait_p50_ms",
        _hist(stats, "engine.stage.commit_wait"))
    put("engine.commit_batches", _counter(stats, "engine.commit_batches"))
    put("engine.expired", _counter(stats, "engine.expired"))
    put("engine.errors", _counter(stats, "engine.errors"))
    coalesce = stats["engine"].get("coalesce", {})
    put("batcher.windows_per_forward",
        coalesce.get("windows_per_forward", 0.0))
    put("batcher.forwards", coalesce.get("batches_run", 0))
    transport = stats["engine"].get("transport", {})
    put("sharded.fused_rounds", transport.get("fused_rounds", 0))
    put("sharded.round_trips", transport.get("shm_messages", 0) / 2)
    wal_records = _counter(stats, "wal.records")
    wal_fsyncs = _counter(stats, "wal.fsyncs")
    put("wal.records", wal_records)
    put("wal.fsyncs", wal_fsyncs)
    put("wal.records_per_fsync",
        wal_records / wal_fsyncs if wal_fsyncs else 0.0)
    put("wal.append_p50_us", _hist(stats, "wal.append_latency") * 1e3)
    put("wal.fsync_p50_ms", _hist(stats, "wal.fsync_latency"))
    put("wal.snapshots", _counter(stats, "wal.snapshots"))
    put("wal.snapshot_p50_ms", _hist(stats, "wal.snapshot_latency"))
    put("wal.recover_wps", recovery["wps"] if recovery else 0.0)

    # -- adaptation, as the client saw it -------------------------------
    replies = served.replies()
    put("adapt.updates", sum(r.adapted for r in replies))
    put("adapt.pruned", sum(r.pruned for r in replies))
    loaded = [r for block in served.capacity for r in block.replies]
    stalled = [r for r in loaded if r.adapted]
    put("adapt.stall_p50_ms",
        median(r.latency for r in stalled) * 1e3 if stalled else 0.0)
    put("adapt.wall_share",
        _busy_share(stalled, sum(block.wall for block in served.capacity)))

    # -- load generator and environment ---------------------------------
    closed = [r.latency for r in loaded if r.ok]
    put("loadgen.cpu_share", served.loadgen_share)
    put("loadgen.cl_p50_ms", median(closed) * 1e3)
    put("loadgen.cl_p99_ms", percentile(closed, 99) * 1e3)
    put("loadgen.solo_p99_ms", percentile(
        [r.latency for block in served.quiet_solo() for r in block], 99)
        * 1e3)
    open_loop = [r.latency for r in paced.replies if r.ok]
    put("loadgen.paced_p50_ms", median(open_loop) * 1e3)
    put("loadgen.paced_p99_ms", percentile(open_loop, 99) * 1e3)
    put("loadgen.late_p99_ms", percentile(paced.lateness, 99) * 1e3)

    # -- microbenchmarks and the layer replay ---------------------------
    spans = Spans()
    with WorkDir() as work:
        for name, value in {**codec_metrics(workload, source),
                            **model_metrics(workload, pipeline, source),
                            **ring_metrics(workload, source),
                            **wal_metrics(workload, source, work)}.items():
            put(name, value)
        ranges = replay(workload, pipeline, source, spans, work)
        probe = adaptation_probe(workload, pipeline, source, spans) \
            if workload.adaptive else {}
    put("deployment.ingest_quiet_us", probe.get("quiet", 0.0) * 1e6)
    put("adapt.phase_ms", probe.get("phase", 0.0) * 1e3)
    put("adapt.token_update_ms", probe.get("token_update", 0.0) * 1e3)
    put("adapt.monitor_us", probe.get("monitor", 0.0) * 1e6)
    put("adapt.structure_ms", probe.get("structure", 0.0) * 1e3)

    solo_rounds = spans.per_round(*ranges["solo"])
    full_rounds = spans.per_round(*ranges["full"])
    put("runtime.submit_us", median(full_rounds["runtime.submit"])
        / workload.streams * 1e6)
    put("runtime.round_self_ms",
        median(full_rounds["runtime.run_round"]) * 1e3)
    put("sharded.serve_round_ms",
        median(full_rounds.get("sharded.serve_round", [0.0])) * 1e3)
    attributed = 0.0
    log(f"[{workload.name}] waterfall of one solo request "
        f"(solo_p50_ms = {solo_p50_ms:.3f}, self time per layer, median of "
        f"{ranges['solo'][1] - ranges['solo'][0]} replayed rounds)")
    for name in WATERFALL:
        self_ms = median(solo_rounds.get(name, [0.0])) * 1e3
        attributed += self_ms
        put(f"trace.{name}_ms", self_ms)
        log(f"    {name:<22} {self_ms:8.3f} ms  {self_ms / solo_p50_ms:6.1%}")
    put("trace.unattributed_ms", solo_p50_ms - attributed)
    put("trace.unattributed_share",
        (solo_p50_ms - attributed) / solo_p50_ms)
    log(f"    {'(unattributed)':<22} {solo_p50_ms - attributed:8.3f} ms  "
        f"{(solo_p50_ms - attributed) / solo_p50_ms:6.1%}   sockets, "
        "asyncio wake-ups, client codec")
    trace_path = workloads.CACHE_DIR / f"trace-{workload.name}.jsonl"
    spans.write(trace_path)
    log(f"[{workload.name}] {len(spans.records)} spans -> "
        f"{trace_path.relative_to(workloads.PERFBENCH_DIR.parent)}")

    spin_after = spin_ms()
    put("env.spin_ms_before", spin_before)
    put("env.spin_ms_after", spin_after)
    put("env.nproc", os.cpu_count() or 1)
    put("env.loadavg", os.getloadavg()[0])
    if abs(spin_after - spin_before) / spin_before > 0.15:
        result.flags.append(
            f"disturbed: env spin {spin_before:.0f} -> {spin_after:.0f} ms")
