"""One workload run: the phases, the end-to-end metrics, the verdict.

Phases (the same for all four workloads): ``cold_start`` x3, alternating
``solo`` and ``capacity`` blocks on one server, then — in the traced run
— a ``paced`` open-loop pass and, on the WAL workload, the ``recovery``
tail; ``verify`` runs after the server is gone and is not timed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import layers, procs, workloads
from .loadgen import MuxClient, PhaseResult, Reply
from .stats import median

SERVER_SCRIPT = str(workloads.PERFBENCH_DIR / "server.py")
COLD_STARTS = 3
#: Share of the solo phase discarded as warm-up.
SOLO_DISCARD = 0.2
#: Hard cap on any one child (the driver's own cap is 180 s per run).
CHILD_LIFETIME_S = 150
CONNECTIONS = min(2, os.cpu_count() or 1)
#: Replies per stream checked against the stateful reference fleet when
#: no adaptation shows up earlier (adaptive workload).
ADAPTIVE_VERIFY_MIN = 8

#: Every end-to-end metric: name -> (unit, better).  ``BENCHMARK.json``
#: lists exactly these, with their bounds (perfbench/tests checks it).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "capacity_wps": ("windows/s", "higher"),
    "solo_p50_ms": ("ms", "lower"),
    "cpu_ms_per_window": ("ms", "lower"),
    "rss_peak_mb": ("MB", "lower"),
}



@dataclass
class RunResult:
    workload: str
    seed: int
    seconds: float
    end_to_end: dict = field(default_factory=dict)   # name -> (value, unit)
    per_layer: dict = field(default_factory=dict)    # name -> (value, unit)
    phases: dict = field(default_factory=dict)       # phase -> {attempted, failed}
    counters: dict = field(default_factory=dict)     # must repeat exactly
    problems: list = field(default_factory=list)     # correctness failures
    flags: list = field(default_factory=list)        # validity warnings

    @property
    def attempted(self) -> int:
        return sum(phase["attempted"] for phase in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(phase["failed"] for phase in self.phases.values())

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def count(self, phase: str, result: PhaseResult) -> None:
        self.phases[phase] = {"attempted": result.attempted,
                              "failed": result.failed}


# ---------------------------------------------------------------------
# CPU placement
# ---------------------------------------------------------------------
def cpu_layout(workload: workloads.Workload) -> tuple[set[int], set[int]]:
    """``(load generator's CPUs, server tree's CPUs)``.

    Left to the scheduler, the generator and the server's three threads
    migrate between the two cores and every request pays a different
    number of cross-core wake-ups: identical back-to-back runs read solo
    p50 2.5 to 3.9 ms.  So the generator owns the first CPU and an inline
    server the others; the sharded server keeps every CPU, because its
    workers are the one place where work runs in parallel.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    if workload.shards:
        return {cpus[0]}, set(cpus)
    return {cpus[0]}, set(cpus[1:])


# ---------------------------------------------------------------------
# The server child
# ---------------------------------------------------------------------
class Server:
    """A ``perfbench/server.py serve`` child and a client attached to it."""

    def __init__(self, workload: workloads.Workload, windows,
                 wal_dir: Path | None = None, snapshots: bool = True):
        _loadgen_cpus, server_cpus = cpu_layout(workload)
        argv = [SERVER_SCRIPT, "serve", "--workload", workload.name,
                "--lifetime", str(CHILD_LIFETIME_S)]
        if wal_dir is not None:
            argv += ["--wal-dir", str(wal_dir)]
            if not snapshots:
                argv.append("--no-snapshots")
        self.spawned = time.perf_counter()
        self.child = procs.Child(argv, CHILD_LIFETIME_S, cpus=server_cpus)
        try:
            port = int(self.child.read_tagged("READY"))
            self.client = MuxClient(("127.0.0.1", port),
                                    workload.stream_names(), windows,
                                    connections=CONNECTIONS)
            self.client.attach_all()
        except BaseException:
            self.child.kill()
            raise
        self.attached = time.perf_counter()

    @property
    def session(self) -> int:
        return self.child.session

    def stop(self) -> dict:
        """Drain, collect the server's parting ``STATS`` and reap it."""
        try:
            self.client.shutdown()
            stats = json.loads(self.child.read_tagged("STATS"))
            code = self.child.wait()
        finally:
            self.client.close()
            self.child.kill()
        if code != 0:
            raise procs.ChildError(f"server exited with code {code}")
        return stats

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.client.close()
        self.child.kill()


# ---------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------
def ensure_prepared() -> float:
    """Train the served models if the registry lacks them; seconds spent."""
    started = time.perf_counter()
    workloads.prepare()
    return time.perf_counter() - started


def run_workload(workload: workloads.Workload, seed: int, seconds: float,
                 traced: bool = False, log=print) -> RunResult:
    """Run every phase of one workload; ``traced`` adds the stats
    snapshots, the paced pass, the recovery tail and the layer replay
    (and makes one cold start instead of three)."""
    result = RunResult(workload.name, seed, seconds)
    all_cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpu_layout(workload)[0])
    log(f"[{workload.name}] prepare {ensure_prepared():.2f} s "
        f"(models in {workloads.REGISTRY_DIR.relative_to(workloads.PERFBENCH_DIR.parent)})")

    sizes = workload.sizes(seconds)
    pipeline = workloads.make_pipeline(workload)
    source = workloads.WindowSource(pipeline, workload, seed, sizes.steps)

    shm_before = procs.shm_segments()
    leftovers = 0
    spin_before = layers.spin_ms() if traced else 0.0
    with workloads.WorkDir() as work:
        def wal_dir():
            return work.wal() if workload.wal else None

        cold = []
        for _ in range(1 if traced else COLD_STARTS):
            with Server(workload, source.request, wal_dir()) as server:
                cold.append(server.attached - server.spawned)
                server.stop()
                leftovers += server.child.leftover
        log(f"[{workload.name}] cold_start x{len(cold)}: "
            + ", ".join(f"{value:.3f}" for value in cold) + " s")

        with Server(workload, source.request, wal_dir()) as server:
            served = serve_blocks(server, workload, sizes, traced)
            leftovers += server.child.leftover

        windows = sizes.measured * workload.streams * workload.windows
        wps = [windows / block.wall for block in served.capacity]
        for name, value in {
                "setup_s": median(cold),
                "capacity_wps": median(wps),
                "solo_p50_ms": median(served.solo_p50s()) * 1e3,
                "cpu_ms_per_window": median(
                    cpu / windows * 1e3 for cpu in served.server_cpu),
                "rss_peak_mb": served.rss_peak_mb}.items():
            result.end_to_end[name] = (value, END_TO_END[name][0])
        for phase, results in (("solo", served.solo),
                               ("capacity", served.capacity)):
            result.phases[phase] = {
                "attempted": sum(r.attempted for r in results),
                "failed": sum(r.failed for r in results)}
        if served.paced is not None:
            result.count("paced", served.paced)
        if served.loadgen_share > 0.6:
            result.flags.append(
                f"loadgen.cpu_share {served.loadgen_share:.2f} > 0.6")
        replies = served.replies()
        result.counters.update({
            "gateway.requests": len(replies),
            "adapt.updates": sum(reply.adapted for reply in replies),
            "adapt.pruned": sum(reply.pruned for reply in replies),
        })
        log(f"[{workload.name}] {sizes.blocks} block(s) of {sizes.solo} solo "
            f"requests + {workload.streams} streams x ({sizes.warm} warm + "
            f"{sizes.measured} measured + {sizes.cool} cool) x "
            f"{workload.windows} windows; loadgen cpu share "
            f"{served.loadgen_share:.2f}")
        log(f"[{workload.name}] per block: capacity_wps "
            + " ".join(f"{value:.0f}" for value in wps) + "; solo_p50_ms "
            + " ".join(f"{value * 1e3:.3f}" for value in served.solo_p50s()))

        recovery = None
        if traced and workload.wal:
            recovery = recovery_tail(workload, pipeline, seed, sizes.recover,
                                     work, result, log)
            leftovers += recovery.pop("leftover")

    # The in-process work below (reference fleet, layer replay and its
    # shard workers) is not tied to the generator's CPU.
    os.sched_setaffinity(0, all_cpus)
    verify(workload, pipeline, source, replies, result, log)
    leaked = procs.reap_shm(shm_before)
    if leaked:
        result.flags.append(f"{leaked} /dev/shm segment(s) left behind")
    if leftovers:
        result.flags.append(f"{leftovers} server process(es) outlived a "
                            "clean shutdown")

    if traced:
        layers.fill_per_layer(result, workload, pipeline, source, served,
                              recovery=recovery, spin_before=spin_before,
                              log=log)
    return result


@dataclass
class Served:
    """What the main server's phases produced, block by block."""

    solo: list = field(default_factory=list)        # PhaseResult per block
    capacity: list = field(default_factory=list)    # PhaseResult per block
    server_cpu: list = field(default_factory=list)  # tree CPU-s per capacity block
    loadgen_cpu: float = 0.0                        # own CPU-s over those
    rss_peak_mb: float = 0.0
    paced: PhaseResult | None = None
    solo_stats: dict | None = None   # stats op after the first solo block
    stats: dict | None = None        # the server's parting STATS

    @property
    def loadgen_share(self) -> float:
        return self.loadgen_cpu / sum(block.wall for block in self.capacity)

    def replies(self) -> list[Reply]:
        phases = [*self.solo, *self.capacity]
        if self.paced is not None:
            phases.append(self.paced)
        return [reply for phase in phases for reply in phase.replies]

    def quiet_solo(self) -> list[list[Reply]]:
        """Per block: solo replies with ``adapted=false``, without the
        block's warm-up fifth."""
        return [[reply for reply
                 in block.replies[int(len(block.replies) * SOLO_DISCARD):]
                 if reply.ok and not reply.adapted]
                for block in self.solo]

    def solo_p50s(self) -> list[float]:
        return [median(reply.latency for reply in block)
                for block in self.quiet_solo()]


def serve_blocks(server: Server, workload, sizes, traced: bool) -> Served:
    """Alternate a solo stretch and a closed-loop capacity stretch
    ``sizes.blocks`` times on one server, then (traced) the paced pass;
    drains and stops the server."""
    client = server.client
    served = Served()
    marks: list[tuple[float, float]] = []

    def boundary() -> None:
        marks.append((procs.tree_cpu_seconds(server.session),
                      procs.self_cpu_seconds()))

    for _ in range(sizes.blocks):
        served.solo.append(client.solo(sizes.solo))
        if traced and served.solo_stats is None:
            served.solo_stats = client.stats()
        served.capacity.append(client.closed_loop(
            sizes.warm, sizes.measured, cool=sizes.cool,
            on_boundary=boundary))
        (cpu0, own0), (cpu1, own1) = marks[-2:]
        served.server_cpu.append(cpu1 - cpu0)
        served.loadgen_cpu += own1 - own0
    served.rss_peak_mb = procs.tree_rss_peak_mb(server.session)
    if traced:
        served.paced = client.paced(workload.paced_rps, sizes.paced)
    served.stats = server.stop()
    return served


# ---------------------------------------------------------------------
# Recovery tail (WAL workload, traced run)
# ---------------------------------------------------------------------
def recovery_tail(workload, pipeline, seed, per_stream, work, result,
                  log) -> dict:
    """Fresh WAL with snapshots off, a fixed number of acked ingests,
    SIGKILL, then ``recover_fleet`` timed in a fresh child; the recovered
    step counts and one probe request's scores are verified."""
    source = workloads.WindowSource(pipeline, workload, seed, per_stream + 1)
    wal = work.wal()
    with Server(workload, source.request, wal, snapshots=False) as server:
        phase = server.client.closed_loop(0, per_stream)
        # Leaving the block SIGKILLs the server's session: no drain, no
        # parting snapshot, exactly the log a crash leaves behind.
    result.count("recovery", phase)
    argv = [SERVER_SCRIPT, "recover", "--workload", workload.name,
            "--wal-dir", str(wal), "--seed", str(seed),
            "--probe-index", str(per_stream),
            "--lifetime", str(CHILD_LIFETIME_S)]
    with procs.Child(argv, CHILD_LIFETIME_S,
                     cpus=cpu_layout(workload)[1]) as child:
        report = json.loads(child.read_tagged("RECOVERED"))
        code = child.wait()
        leftover = child.leftover
    if code != 0:
        result.problems.append(f"recovery child exited with code {code}")
    names = workload.stream_names()
    if report["replayed"] != per_stream * workload.streams:
        result.problems.append(
            f"recovery replayed {report['replayed']} of "
            f"{per_stream * workload.streams} acked ingests")
    wrong_steps = [name for name in names
                   if report["steps"].get(name) != per_stream]
    if wrong_steps:
        result.problems.append(
            f"recovered step count wrong on {len(wrong_steps)} stream(s)")
    reference = reference_fleet(workload, pipeline)
    for index, name in enumerate(names):
        expected = reference[name].scores(source.request(index, per_stream))
        if not np.array_equal(expected, np.asarray(report["probe"][name])):
            result.problems.append(f"post-recovery probe differs on {name}")
            break
    result.counters["wal.records"] = report["records"]
    windows = report["replayed"] * workload.windows
    log(f"[{workload.name}] recovery: {report['replayed']} ingests "
        f"({report['records']} records) replayed in {report['seconds']:.3f} s")
    return {"wps": windows / report["seconds"], "leftover": leftover}


# ---------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------
def reference_fleet(workload, pipeline) -> dict:
    """Stream name -> in-process ``Deployment`` built like the server's
    (always inline: sharding must not change a score)."""
    fleet = workloads.make_fleet(pipeline,
                                 dataclasses.replace(workload, shards=0))
    return {slot.name: slot.deployment for slot in fleet.slots}


def verify(workload, pipeline, source, replies, result, log) -> None:
    """Bit-for-bit comparison with ``Deployment.ingest`` on a reference
    fleet fed the same windows, plus per-stream FIFO (reply ``step`` ==
    request index).  Static workloads check *every* reply (one reference
    ingest per pool entry); the adaptive one checks each stream's first
    replies up to and past the first adaptation."""
    good = [reply for reply in replies if reply.ok]
    out_of_order = sum(1 for reply in good if reply.step != reply.index)
    if out_of_order:
        result.problems.append(
            f"{out_of_order} replies out of per-stream order")
    reference = reference_fleet(workload, pipeline)
    names = workload.stream_names()
    by_stream: dict[int, dict[int, Reply]] = {}
    for reply in good:
        by_stream.setdefault(reply.stream, {})[reply.index] = reply
    checked = mismatched = adaptations = 0
    if workload.adaptive:
        adapted_at = [reply.index for reply in good if reply.adapted]
        if not adapted_at:
            result.problems.append("no adaptation fired: nothing to verify")
        depth = max(ADAPTIVE_VERIFY_MIN, min(adapted_at, default=0) + 2)
        for stream, name in enumerate(names):
            for index in range(min(depth, source.steps)):
                log_entry = reference[name].ingest(source.request(stream, index))
                reply = by_stream.get(stream, {}).get(index)
                if reply is None:
                    continue
                checked += 1
                adaptations += bool(log_entry.updated)
                if not (np.array_equal(log_entry.scores, reply.scores)
                        and bool(log_entry.updated) == reply.adapted
                        and len(log_entry.pruned) == reply.pruned):
                    mismatched += 1
        if adapted_at and not adaptations:
            result.problems.append("verify covered no adaptation")
    else:
        pool = min(workload.pool, source.steps)
        for stream, name in enumerate(names):
            expected = [reference[name].ingest(source.request(stream, entry)).scores
                        for entry in range(pool)]
            for index, reply in by_stream.get(stream, {}).items():
                checked += 1
                if not np.array_equal(expected[index % pool], reply.scores):
                    mismatched += 1
    if mismatched:
        result.problems.append(f"{mismatched} of {checked} replies differ "
                               "from the reference fleet")
    log(f"[{workload.name}] verify: {checked} replies bit-identical to "
        f"Deployment.ingest" + (f" across {adaptations} adaptation(s)"
                                if workload.adaptive else "")
        if not mismatched and not out_of_order else
        f"[{workload.name}] verify FAILED: {result.problems}")


# ---------------------------------------------------------------------
# Watchdog
# ---------------------------------------------------------------------
def install_watchdog(seconds: int) -> None:
    """Fail the whole run (children included) instead of hanging."""
    def expire(_signum, _frame):
        raise TimeoutError(f"benchmark run exceeded {seconds} s")
    signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
