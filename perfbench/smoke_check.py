"""Tiny-scale smoke test of the benchmark command.

Slow next to the unit tests and outside their file pattern, so the package's
own test run does not collect it. Run it explicitly:

    python3 -m pytest -q perfbench/smoke_check.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import WORKLOAD_NAMES  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, cwd: Path = ROOT,
              script: Path = BENCH / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_spec_matches_the_benchmark_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == PER_LAYER
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_runs_report_every_metric_and_pass_their_checks(workload):
    fingerprints, counts = [], []
    for trace in (0, 1, 1):
        proc = run_bench(workload, trace)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert set(result["metrics"]) == {m["name"] for m in expected}
        for m in expected:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
            if not trace:
                assert got["value"] > 0, m["name"]
        record = ROOT / ".perfbench" / "results" / f"{workload}-seed3-trace{trace}-tiny.json"
        fingerprints.append(json.loads(record.read_text(encoding="utf-8"))["fingerprint"])
        if trace:
            counts.append({k: v["value"] for k, v in result["metrics"].items()
                           if v["unit"] in ("count", "bytes-computed")})
    # other processes, traced or not, write byte-identical outputs
    assert len(set(fingerprints)) == 1
    # work counts repeat exactly between traced runs
    assert counts[0] == counts[1]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOAD_NAMES[0], 0, cwd=tmp_path,
                     script=tmp_path / BENCH.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
