import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def test_workload_names_agree_with_the_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_end_to_end_counts_every_failed_attack():
    wall = {"wall_attack_ms": [1.0], "kernel_ms": [2.0], "wall_setup_s": 0.2}
    runs = [
        (0.1, {"attack_ms": [1.0, 3.0], "exchange_ms": [2.0, 2.0, 2.0], "attempted": 3, "failed": 1, "peak_rss_mb": 20.0, **wall}),
        (0.3, {"attack_ms": [2.0], "exchange_ms": [4.0, 6.0], "attempted": 2, "failed": 1, "peak_rss_mb": 30.0, **wall}),
    ]
    values = run.end_to_end(runs)
    assert values["attack_success_rate"] == pytest.approx(3 / 5)
    assert values["attack_ms_p50"] == 2.0
    assert values["attacks_per_s"] == pytest.approx(3 / 0.006)
    assert values["exchange_ms_p50"] == 2.0
    assert values["setup_s"] == pytest.approx(0.2)
    assert values["peak_rss_mb"] == 25.0
    assert set(values) == set(run.END_TO_END)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], capture_output=True, text=True, cwd=cwd, timeout=170
    )


@pytest.mark.parametrize("workload,trace", [("digital-n8", "0"), ("twisted-p2-wide", "1"), ("twisted-grid", "1")])
def test_run_prints_every_declared_metric(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    res = run_bench("--workload", workload, "--seed", "11", "--seconds", "0.5", "--trace", trace)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in out["metrics"].items()}


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    res = run_bench("--workload", "digital-n8", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert res.returncode != 0
    assert res.stdout.strip() == ""
