"""Smoke test of the benchmark at tiny sizes, so the harness cannot rot.

    python -m pytest bench/test_smoke.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, *BENCH["command"][1:], *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    p = _bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--scale", "tiny")
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = BENCH["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in want})
    manifest = json.loads(lines[-2])["manifest"]
    for key in ("commit", "seed", "sizes", "cores", "cpu_model", "l3_cache",
                "python", "numpy"):
        assert key in manifest
    assert manifest["absent_boundaries"] == []


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    p = _bench(tmp_path, "--workload", BENCH["workloads"][0]["name"],
               "--seed", "1", "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert p.stdout == ""


def test_self_time_excludes_traced_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()
        inner()

    tracer.wrap("outer", outer_body)()
    calls, total, self_s = tracer.spans["outer"]
    assert calls == 1 and tracer.spans["inner"][0] == 2
    assert self_s == pytest.approx(total - tracer.spans["inner"][1])
    assert 0.01 <= self_s < total
