"""The benchmark's own test: every workload at smoke size, in both modes.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def smoke(workload: str, trace: int, *extra: str) -> tuple[dict, list[str]]:
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--smoke", *extra)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines


def printed(lines: list[str], name: str) -> float:
    (line,) = [line for line in lines if line.startswith(f"metric {name} ")]
    return float(line.split()[2])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    result, lines = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert printed(lines, "fail_frac") == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
    assert any(line.startswith("env ") and "rational_backend" in line for line in lines)
    assert any(line.startswith("counts ") for line in lines)
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(v for k, v in values.items() if k.endswith(".self_s"))
        assert layers + values["unaccounted_s"] == pytest.approx(values["trace.wall_s"], abs=1e-9)
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_pinned_value_makes_fail_frac_positive(tmp_path):
    pinned = json.loads((HERE / "pinned.json").read_text())
    wrong = pinned["ac10/K3"]
    wrong["p"] += 100 * wrong["q"]  # K3's expectation plus 100 draws
    path = tmp_path / "pinned.json"
    path.write_text(json.dumps(pinned))
    for workload in ("mc-uniform", "exact"):
        result, lines = smoke(workload, 0, "--pinned", str(path))
        assert not result["correct"] and result["failed"] > 0, workload
        assert printed(lines, "fail_frac") > 0, workload


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "mc-uniform", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
