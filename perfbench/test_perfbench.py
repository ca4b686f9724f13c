"""Smoke test of the benchmark harness: every workload at a tiny size, untraced
and traced, must pass its checks and report every metric of BENCHMARK.json
with its unit.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = sorted(WORKLOADS)


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_reported_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    for name in ("wall_s", "setup_s", "peak_rss_mb", "failed_frac", "time_to_1pct_s",
                 "action_residual"):
        assert f"  {name} " in proc.stdout


def test_trace_counts_repeat_exactly():
    counts = ("lattice.calls", "noise.draws", "mild_solver.integrate_calls",
              "action.iterations", "action.forward_calls", "experiments.blown")
    runs = []
    for _ in range(2):
        proc = run_bench("tilted_scaling", 1)
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        runs.append({k: metrics[k]["value"] for k in counts})
    assert runs[0] == runs[1]
    assert runs[0]["action.forward_calls"] > 0 and runs[0]["noise.draws"] > 0


def test_fails_without_sources():
    """A directory holding only BENCHMARK.json and perfbench/ gives no result."""
    bare = ROOT / ".bench_work" / "no-sources"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        for f in HERE.iterdir():
            if f.is_file():
                shutil.copy(f, bare / "perfbench" / f.name)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
