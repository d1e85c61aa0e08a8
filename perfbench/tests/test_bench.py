"""Tests of the benchmark itself, kept out of the package's test suite.

    python3 -m pytest -q perfbench/tests

Each workload runs once untraced and once traced, at the shortest length
(one pass), which takes a few minutes in all.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
METRIC_LINE = re.compile(r"^  (\S+)\s+\S+ (\S+)$")


def _run(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.splitlines()
    return proc.stdout, json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs() -> dict:
    return {(w, t): _run(w, t) for w in WORKLOADS for t in (0, 1)}


def _digests(stdout: str) -> list[str]:
    return [line.split(": ")[1].split()[0] for line in stdout.splitlines()
            if line.startswith("report_digest ")]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_gives_the_untraced_report(runs, workload):
    untraced, _ = runs[(workload, 0)]
    traced, _ = runs[(workload, 1)]
    assert _digests(untraced) and _digests(untraced) == _digests(traced)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_printed_metric_is_named_in_benchmark_json(runs, workload,
                                                         trace, kind):
    stdout, result = runs[(workload, trace)]
    named = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    printed = {m.group(1): m.group(2) for line in stdout.splitlines()
               if (m := METRIC_LINE.match(line))}
    assert printed == named
    assert {k: v["unit"] for k, v in result["metrics"].items()} == named


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_error_rate_is_zero(runs, workload, trace):
    _, result = runs[(workload, trace)]
    assert result["correct"] is True
    assert result["attempted"] > 0
    assert result["failed"] == 0


def test_fails_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
