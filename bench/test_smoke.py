"""Smoke test of the benchmark: every workload at tiny size, untraced and traced.

Run from the repository root (it takes a few seconds):

    python3 -m pytest bench/test_smoke.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def run_bench(cwd, workload, trace, size="tiny"):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", size],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def result_of(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def record_of(workload, trace):
    path = BENCH_DIR / "out" / "results" / f"{workload}-tiny-seed{SEED}-trace{trace}.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_and_tracing_keeps_fingerprints(workload):
    untraced = result_of(run_bench(ROOT, workload, trace=0))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in untraced["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in untraced["metrics"].values())

    traced = result_of(run_bench(ROOT, workload, trace=1))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == expected
    assert traced["metrics"]["learners.fit_calls"]["value"] > 0
    assert traced["metrics"]["sac.update_calls"]["value"] > 0

    plain, spanned = record_of(workload, 0), record_of(workload, 1)
    assert plain["fingerprints"] == spanned["fingerprints"]
    assert spanned["repetitions"] == 3
    assert plain["environment"]["numpy"] and plain["environment"]["nproc"]
    assert plain["end_to_end"]["cascade_s"]["raw median"] > 0
    assert plain["end_to_end"]["calibration.tree_s"]["n"] > 1


@pytest.mark.parametrize("with_draw, draw_share", [(False, 0.0), (True, 0.0), (True, 0.8)])
def test_host_clock_scales_by_the_calibrations_around_an_operation(monkeypatch, with_draw, draw_share):
    sys.path.insert(0, str(BENCH_DIR))
    import numpy
    import run

    # the host runs each kernel at half the reference speed, so times halve
    slow = (2 * run.REFERENCE_TREE_S, 2 * run.REFERENCE_DRAW_S if with_draw else None)
    monkeypatch.setattr(run.HostClock, "calibrate", lambda self: slow)
    clock = run.HostClock(numpy, with_draw=with_draw)
    result, raw, adjusted = clock.time(lambda: sum(range(100_000)), draw_share=draw_share)
    assert result == sum(range(100_000))
    assert adjusted == pytest.approx(raw / 2, rel=1e-12)
    assert len(clock.calibrations) == 2


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench(tmp_path, "eval_long", trace=0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
