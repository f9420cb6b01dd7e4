"""The four workloads: their fixed sizes, their fleets and their windows.

Sizes are *work*, not time: every phase sends a fixed number of requests
per stream, scaled linearly from ``--seconds`` so that on the reference
box (2 cores) the capacity phase lasts about that long.  The same
``--seconds`` therefore means the same requests on every commit, which
is what makes adaptation counts, round counts and WAL records repeat and
CPU per window comparable.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.api import Pipeline, ReproConfig
from repro.serving import build_fleet, build_sharded_fleet

PERFBENCH_DIR = Path(__file__).resolve().parent
CACHE_DIR = PERFBENCH_DIR / ".cache"
REGISTRY_DIR = CACHE_DIR / "registry"

#: Scoring models served (round-robin over the streams, as ``build_fleet``
#: assigns them); ``Explosion`` only ever appears as shifted-to content.
MISSIONS = ("Stealing", "Robbery")
SHIFT_CYCLE = ("Stealing", "Robbery", "Explosion")
SHIFT_EVERY = 12

#: The adaptive workload's windows come from a fixed bank, and ``--seed``
#: only deals the bank's sequences out to the streams: how often the
#: monitor triggers is a function of window *content* (8 to 19 adaptation
#: phases per stream over 64 steps across content seeds, ~0.7 s each), so
#: content drawn from ``--seed`` would change the work itself by 2x from
#: one seed to the next.
BANK_SEED = 4242


#: Solo and capacity measurement alternate in this many blocks and every
#: metric is the median over them: a noisy neighbour's burst of a few
#: seconds then hits a minority of each metric's samples instead of all
#: of one metric's.
BLOCKS = 10
#: Unmeasured cool-down of a capacity stretch, as a share of its measured
#: requests per stream (the fastest stream runs ~10 % ahead of the mean).
COOL_SHARE = 0.15


@dataclass(frozen=True)
class Sizes:
    """Requests one run sends, all fixed by ``--seconds``."""

    blocks: int       # solo + capacity alternate this many times
    solo: int         # solo requests per block (round-robin over streams)
    warm: int         # per block and stream: unmeasured capacity warm-up,
    measured: int     # ... measured capacity requests,
    cool: int         # ... unmeasured cool-down
    paced: int        # traced run: open-loop requests in total
    recover: int      # traced run, WAL workload: ingests per stream
    steps: int        # most requests any one stream sends in the run


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    streams: int
    windows: int              # windows per request
    shards: int = 0           # 0 = inline fleet
    adaptive: bool = False
    shifting: int = 0         # adaptive: streams whose content cycles classes
    wal: bool = False         # serve over a WAL; adds the recovery tail
    pool: int = 0             # distinct requests per stream, cycled (0 = all distinct)
    solo_per_s: float = 0.0   # solo-phase requests (all streams) per --seconds
    warm: int = 0             # capacity warm-up requests per stream and block
    capacity_per_s: float = 0.0  # measured capacity requests per stream per --seconds
    paced_rps: float = 0.0    # open-loop pass: requests per second (~30 % of capacity)
    recover_per_s: float = 0.0   # recovery tail: ingests per stream per --seconds
    replay_rounds: int = 200  # layer replay: rounds pushed through the layers
    overrides: tuple = ()     # ReproConfig overrides, recorded in the README

    def sizes(self, seconds: float) -> "Sizes":
        """The fixed work of one run at ``--seconds``."""
        # Adaptations cluster and stall every stream alike, so the
        # adaptive workload runs as one block with no cool-down.
        blocks = 1 if self.adaptive else BLOCKS
        solo = max(self.streams, round(self.solo_per_s * seconds / blocks))
        measured = max(1, round(self.capacity_per_s * seconds / blocks))
        cool = 0 if self.adaptive else max(1, round(measured * COOL_SHARE))
        paced = int(self.paced_rps * seconds * 0.5)
        per_block = -(-solo // self.streams) + self.warm + measured + cool
        return Sizes(
            blocks=blocks, solo=solo, warm=self.warm, measured=measured,
            cool=cool, paced=paced,
            recover=max(4, round(self.recover_per_s * seconds)),
            steps=blocks * per_block + -(-paced // self.streams))

    def stream_names(self) -> list[str]:
        return [f"{MISSIONS[i % len(MISSIONS)].lower()}-{i}"
                for i in range(self.streams)]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="static_small",
        why="32 static streams x 1 window (12 KB frames): per-request "
            "overhead (gateway, protocol, runtime, batcher) has its "
            "largest share and the batcher coalesces most",
        streams=32, windows=1, pool=32,
        solo_per_s=120.0, warm=10, capacity_per_s=60.0, paced_rps=600.0),
    Workload(
        name="sharded_large",
        why="2 shard workers over shm rings, 8 streams x 32 windows "
            "(393 KB frames): bytes and GNN FLOPs dominate; the only "
            "workload where work runs in parallel",
        streams=8, windows=32, shards=2, pool=8,
        solo_per_s=25.0, warm=3, capacity_per_s=18.0, paced_rps=30.0),
    Workload(
        name="durable",
        why="16 static streams x 2 windows over a WAL with real fsync: "
            "append, group commit and committer on every request, "
            "recovery replay in the traced run",
        streams=16, windows=2, wal=True, pool=32,
        solo_per_s=120.0, warm=10, capacity_per_s=65.0, paced_rps=280.0,
        recover_per_s=10.0),
    Workload(
        name="adaptive_shift",
        why="8 adaptive streams x 8 windows, private model each, class "
            "shifts every 12 steps on two of them: the paper's subject; "
            "nothing coalesces and each adaptation stalls the round",
        streams=8, windows=8, adaptive=True, shifting=2,
        solo_per_s=16.0, warm=2, capacity_per_s=4.0, paced_rps=15.0,
        replay_rounds=24,
        # The paper-literal pruning rule: with the default patience=4 no
        # node was ever pruned in 130 steps, and structural adaptation is
        # half of what the paper adapts.
        overrides=("adaptation.convergence.patience=1",
                   "adaptation.convergence.tolerance=0")),
)}


class WorkDir:
    """Scratch space inside the checkout (WAL directories), removed on
    exit; every ``wal()`` call hands out a fresh empty directory."""

    def wal(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="wal-", dir=self.path))

    def __enter__(self) -> "WorkDir":
        root = CACHE_DIR / "work"
        root.mkdir(parents=True, exist_ok=True)
        self.path = Path(tempfile.mkdtemp(dir=root))
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


# ---------------------------------------------------------------------
# Pipeline and fleets (shared by the server child, the reference fleet
# and the layer replay, so all three are built the same way)
# ---------------------------------------------------------------------
def make_pipeline(workload: Workload) -> Pipeline:
    """The shipped default config over the benchmark's model registry."""
    config = ReproConfig()
    config.registry_dir = str(REGISTRY_DIR)
    config.apply_overrides(list(workload.overrides))
    return Pipeline.from_config(config)


def prepare() -> int:
    """Train (once) the models every workload serves into the registry;
    returns how many had to be trained.  Training is the paper's cloud
    side, not an edge cost, so it is timed but never gated."""
    REGISTRY_DIR.mkdir(parents=True, exist_ok=True)
    # No workload overrides anything the registry fingerprints (the
    # experiment, model and training sections), so one pipeline covers all.
    pipeline = make_pipeline(WORKLOADS["static_small"])
    for mission in MISSIONS:
        pipeline.train(mission)
    return pipeline.trained_count


def make_fleet(pipeline: Pipeline, workload: Workload):
    """The fleet a workload serves: inline or sharded, static (one shared
    model per mission) or adaptive (a private model per stream)."""
    kwargs = dict(adaptive=workload.adaptive,
                  windows_per_step=workload.windows)
    if workload.shards:
        return build_sharded_fleet(pipeline, list(MISSIONS), workload.streams,
                                   shards=workload.shards, **kwargs)
    return build_fleet(pipeline, list(MISSIONS), workload.streams, **kwargs)


# ---------------------------------------------------------------------
# Windows
# ---------------------------------------------------------------------
class WindowSource:
    """Every stream's request windows, derived from ``--seed``.

    ``request(stream, index)`` is the ``index``-th request's
    ``(windows, T, frame_dim)`` array of stream number ``stream``.  Static
    workloads cycle a pool of ``workload.pool`` distinct requests per
    stream (a static model keeps no state across requests, and the full
    sequence of the large workload would not fit in memory); the adaptive
    workload generates every step, because what the monitor does depends
    on the whole sequence.
    """

    def __init__(self, pipeline: Pipeline, workload: Workload, seed: int,
                 steps: int):
        self.workload = workload
        self.steps = steps
        if workload.adaptive:
            self._requests = self._adaptive(pipeline, workload, seed, steps)
        else:
            self._requests = self._static(pipeline, workload, seed,
                                          min(workload.pool, steps))

    def request(self, stream: int, index: int) -> np.ndarray:
        sequence = self._requests[stream]
        return sequence[index % len(sequence)]

    @staticmethod
    def _static(pipeline, workload, seed, count):
        rng = np.random.default_rng([seed, 1])
        requests = []
        for index in range(workload.streams):
            mission = MISSIONS[index % len(MISSIONS)]
            stream = pipeline.stream(
                mission, None, windows_per_step=workload.windows,
                seed=int(rng.integers(2**31)), steps_before_shift=count,
                steps_after_shift=0)
            requests.append([stream.batch(step).windows
                             for step in range(count)])
        return requests

    @staticmethod
    def _adaptive(pipeline, workload, seed, steps):
        # Sequence k of the bank belongs to mission k % 2; the seed deals
        # the sequences of each mission out to that mission's streams.
        rng = np.random.default_rng([seed, 2])
        order = list(range(workload.streams))
        for mission in range(len(MISSIONS)):
            slots = order[mission::len(MISSIONS)]
            order[mission::len(MISSIONS)] = rng.permutation(slots).tolist()
        bank = {}
        for k in sorted(order):
            home = MISSIONS[k % len(MISSIONS)]
            classes = SHIFT_CYCLE if k < workload.shifting else (home,)
            start = SHIFT_CYCLE.index(home) if k < workload.shifting else 0
            by_class = {
                cls: pipeline.stream(
                    cls, None, windows_per_step=workload.windows,
                    seed=BANK_SEED + k, steps_before_shift=steps,
                    steps_after_shift=0)
                for cls in classes}
            bank[k] = [
                by_class[classes[(start + step // SHIFT_EVERY)
                                 % len(classes)]].batch(step).windows
                for step in range(steps)]
        return [bank[k] for k in order]
