"""BENCHMARK.json, the code and the printed result agree on every name."""

import json
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import bench, layers, run, workloads
from perfbench.tests.conftest import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_benchmark_json_has_the_contracts_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_names_units_and_directions_are_the_codes():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    assert {e["name"]: (e["unit"], e["better"])
            for e in SPEC["end_to_end"]} == bench.END_TO_END
    assert {e["name"]: (e["unit"], e["better"])
            for e in SPEC["per_layer"]} == layers.PER_LAYER


def _result(traced: bool) -> bench.RunResult:
    result = bench.RunResult("static_small", seed=1, seconds=1.0)
    table = layers.PER_LAYER if traced else bench.END_TO_END
    target = result.per_layer if traced else result.end_to_end
    for index, (name, (unit, _better)) in enumerate(table.items()):
        target[name] = (1.5 + index, unit)
    result.phases = {"solo": {"attempted": 7, "failed": 0},
                     "capacity": {"attempted": 5, "failed": 1}}
    return result


@pytest.mark.parametrize("traced", [False, True])
def test_result_line_is_the_contracts(traced):
    line = json.loads(run._result_line(_result(traced), traced, SPEC))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 12, 1)
    promised = SPEC["per_layer" if traced else "end_to_end"]
    assert set(line["metrics"]) == {entry["name"] for entry in promised}
    for entry in promised:
        metric = line["metrics"][entry["name"]]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], float)


def test_result_line_refuses_names_benchmark_json_does_not_promise():
    result = _result(False)
    result.end_to_end["surprise_ms"] = (1.0, "ms")
    with pytest.raises(RuntimeError, match="surprise_ms"):
        run._result_line(result, False, SPEC)


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    done = subprocess.run(
        [*SPEC["command"], "--workload", "static_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout


@pytest.mark.skipif(
    not any(workloads.REGISTRY_DIR.glob("*.json")),
    reason="models not prepared (python3 perfbench/run.py --prepare)")
def test_a_short_run_prints_every_end_to_end_metric():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "durable", "--seed", "5", "--seconds", "0.4", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == set(bench.END_TO_END)
    assert all(metric["value"] > 0 for metric in line["metrics"].values())
