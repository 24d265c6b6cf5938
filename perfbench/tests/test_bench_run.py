"""End-to-end runs of the benchmark at the tiny size, and its contract."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS, horizons, make_config  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_emits_every_named_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 100
    table = benchmark_json()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in table}
    for m in table:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
    if trace:
        metrics = result["metrics"]
        assert metrics["stepper.krylov_iters.total"]["value"] > 0
        assert metrics["stepper.matvecs.total"]["value"] > metrics[
            "stepper.krylov_iters.total"]["value"]
    else:
        assert all(e["value"] > 0 for e in result["metrics"].values())


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "bubble", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_harness():
    doc = benchmark_json()
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_seeds_perturb_but_keep_the_horizon(workload):
    canonical = make_config(workload, 0)
    assert make_config(workload, 7) == make_config(workload, 7)
    assert make_config(workload, 7) != canonical
    assert horizons(make_config(workload, 7)) == horizons(canonical)
