"""The benchmark's own tests: every workload path and every check, at smoke size.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from checks import BUNDLE_CHECKS, CHECKS  # perfbench/ is on sys.path under pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--seed", "3", "--seconds", "0.5", "--smoke", *args],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=cwd,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("checks ")
    return json.loads(lines[-1]), json.loads(lines[-2][len("checks "):])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_passes_every_check(name, trace):
    result, checks = parse(bench("--workload", name, "--trace", str(trace)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and math.isfinite(value["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    run = CHECKS if trace else BUNDLE_CHECKS
    assert all(checks[c]["passed"] > 0 and checks[c]["failed"] == 0 for c in run)


def test_negative_control_fails_every_check():
    result, checks = parse(bench("--workload", "pair-sweep", "--trace", "1", "--negative-control"))
    assert not result["correct"] and result["failed"] == result["attempted"]
    for name in CHECKS:
        assert checks[name]["passed"] == 0 and checks[name]["failed"] > 0, name


def test_same_seed_gives_same_counts():
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    first, second = (
        parse(bench("--workload", "paper-table", "--trace", "1"))[0]["metrics"] for _ in range(2)
    )
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    assert first["ingest.rows_flagged"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "paper-table", "--trace", "0", cwd=tmp_path,
                 script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
