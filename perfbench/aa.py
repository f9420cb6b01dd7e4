"""A/A self-check: does the benchmark repeat within its own bounds?

Two interleaved sets of ``N`` end-to-end runs per workload (each run a
fresh ``run.py`` process with its own ``--seed``, as the driver runs
them), plus one traced run per workload and set for the counters only
the traced run has.  Prints, per workload x end-to-end metric, the two
medians, how much worse the second is than the first, each set's
interquartile spread and the bound.  Exits non-zero when a difference
exceeds its bound, when a counter that must repeat exactly does not, or
when any run was incorrect — and, from ``N = 10`` on (the driver's sample
size; quartiles of five runs are little more than their extremes), when a
spread exceeds its bound.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from .stats import median, rel_spread, rel_worsening

RUN = str(Path(__file__).resolve().parent / "run.py")
#: Fixed work, so these repeat exactly from run to run and seed to seed.
EXACT = ("gateway.requests", "adapt.updates", "adapt.pruned", "wal.records")
#: Spreads are held to the bounds from this many runs per set on.
SPREAD_RUNS = 10


def _one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``run.py`` process -> its result line plus its counters."""
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=200)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"with code {done.returncode}")
    result = json.loads(lines[-1])
    result["counters"] = {}
    for line in lines:
        if line.startswith("  count "):
            _tag, name, value = line.split()
            result["counters"][name] = int(value)
    return result


def report(spec: dict, sets, counters: dict, incorrect: int,
           out=print) -> list[str]:
    """Print the A/A table; returns what failed (empty = passed).

    ``sets`` is ``(A, B)``, each ``{workload: [metrics dict per run]}``;
    ``counters`` is ``{workload: {counter: set of values seen}}``.
    """
    failures = []
    out("| workload | metric | median A | median B | B worse by | "
        "spread A | spread B | bound | verdict |")
    out("|---|---|---|---|---|---|---|---|---|")
    for name in sets[0]:
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a = [run_[key]["value"] for run_ in sets[0][name]]
            b = [run_[key]["value"] for run_ in sets[1][name]]
            worse = rel_worsening(median(a), median(b), metric["better"])
            spreads = [rel_spread(values) if len(values) > 1 else 0.0
                       for values in (a, b)]
            # The driver holds setup_s to its bound on the medians only.
            over = abs(worse) > bound or (
                key != "setup_s" and min(len(a), len(b)) >= SPREAD_RUNS
                and max(spreads) > bound)
            verdict = "FAIL" if over else (
                "ok" if abs(worse) <= bound / 2 else "ok (> bound/2)")
            if over:
                failures.append(f"{name}/{key}")
            out(f"| {name} | {key} | {median(a):.4g} | {median(b):.4g} | "
                f"{worse:+.1%} | {spreads[0]:.1%} | {spreads[1]:.1%} | "
                f"{bound:.0%} | {verdict} |")
    out("")
    for name, seen in counters.items():
        for counter, values in sorted(seen.items()):
            same = len(values) == 1
            out(f"count {name} {counter}: "
                + (f"{next(iter(values))} in every run" if same
                   else f"DIFFERS {sorted(values)}"))
            if not same:
                failures.append(f"{name}/{counter}")
    if incorrect:
        failures.append(f"{incorrect} incorrect run(s)")
    out("\nA/A " + ("FAILED: " + ", ".join(failures) if failures
                    else "passed: every difference is within its bound, "
                         "every counter repeats"))
    return failures


def run(spec: dict, n: int, seconds: float, first_seed: int,
        only: str | None = None) -> int:
    names = [w["name"] for w in spec["workloads"]
             if only is None or w["name"] == only]
    sets = ({name: [] for name in names}, {name: [] for name in names})
    counters: dict[str, dict[str, set]] = {name: {} for name in names}
    incorrect = 0

    def record(name: str, result: dict, traced: bool = False) -> None:
        nonlocal incorrect
        incorrect += not result["correct"]
        for counter, value in result["counters"].items():
            if counter in EXACT:
                key = counter + (" (traced run)" if traced else "")
                counters[name].setdefault(key, set()).add(value)

    for index in range(n):
        for which, runs in enumerate(sets):
            for name in names:
                seed = first_seed + 2 * index + which
                result = _one_run(name, seed, seconds, trace=0)
                record(name, result)
                runs[name].append(result["metrics"])
                print(f"set {'AB'[which]} run {index + 1}/{n} {name} seed "
                      f"{seed}: " + "  ".join(
                          f"{metric}={entry['value']:.4g}"
                          for metric, entry in result["metrics"].items()),
                      flush=True)
    for which in range(2):
        for name in names:
            # Traced counters (the recovery tail's wal.records) only.
            record(name, _one_run(name, first_seed + which, seconds, trace=1),
                   traced=True)

    print(f"\nA/A of the working tree: 2 x {n} runs per workload, "
          f"--seconds {seconds:g}\n")
    return 1 if report(spec, sets, counters, incorrect) else 0
