"""Golden outputs: the exact bytes `decolor run` writes under stream version 2.

Any change to the random-stream layout, its consumption order or the output
format fails here. Such a change must bump ``STREAM_VERSION`` in
``decolor.rng`` (which also changes every config hash) and then re-pin the
files with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from decolor.cli import main
from decolor.experiments import OUTPUT_DIR_ENV, _json_dumps

GOLDEN = Path(__file__).with_name("golden")
CASES = {
    "k8-dc-random": ["--graph", "clique:8", "--seed", "8"],
    "badbip4-persistent-construction": [
        "--graph", "badbip:4", "--algorithm", "persistent", "--start", "construction",
        "--counters", "total_draws,step3_draws,per_vertex", "--seed", "4",
    ],
    "badbip3-dc-mimic": [
        "--graph", "badbip:3", "--start", "construction", "--order", "mimic", "--seed", "3",
    ],
    "erdos12-dc-min-drift": ["--graph", "erdos:12,0.4,5", "--order", "min-drift", "--seed", "12"],
    # many small components: the drift state's local updates carry most picks
    "erdos60-dc-min-drift": ["--graph", "erdos:60,0.1,7", "--order", "min-drift", "--seed", "60"],
    "badbip4-dc-max-conflicted": [
        "--graph", "badbip:4", "--start", "construction", "--order", "max-conflicted", "--seed", "5",
    ],
    # step caps at which some trials, but not all, stop short
    "erdos12-persistent-max-conflicted-cap8": [
        "--graph", "erdos:12,0.4,5", "--algorithm", "persistent", "--order", "max-conflicted",
        "--step-cap", "8", "--counters", "total_draws,step3_draws,per_vertex", "--seed", "6",
    ],
    "erdos12-persistent-min-drift-cap8": [
        "--graph", "erdos:12,0.4,5", "--algorithm", "persistent", "--order", "min-drift",
        "--step-cap", "8", "--counters", "total_draws,step3_draws,per_vertex", "--seed", "9",
    ],
    "erdos12-dc-mimic-cap10": [
        "--graph", "erdos:12,0.4,5", "--order", "mimic", "--step-cap", "10", "--seed", "7",
    ],
    # a one-draw mimic run redraws until clear in one loop step; 76 of the
    # 300 trials stop at the cap
    "badbip16-dc-mimic-cap200": [
        "--graph", "badbip:16", "--start", "construction", "--order", "mimic",
        "--step-cap", "200", "--seed", "16",
    ],
}


def _run(name: str, out_dir: Path, workers: int = 1) -> dict[str, bytes]:
    argv = ["run", *CASES[name], "--trials", "300", "--per-trial",
            "--workers", str(workers), "--out", name]
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(OUTPUT_DIR_ENV, str(out_dir))
        assert main(argv) == 0
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.name.startswith(name + ".")}


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_outputs_match_golden_bytes(tmp_path, capsys, name):
    got = _run(name, tmp_path)
    want = {p.name: p.read_bytes() for p in sorted(GOLDEN.glob(name + ".*"))}
    assert sorted(got) == sorted(want)
    for fname in want:
        assert got[fname] == want[fname], f"{fname} differs from tests/golden/{fname}"


def _assert_pool_bytes(name: str, out_dir: Path) -> None:
    got = _run(name, out_dir, workers=2)
    for fname, data in got.items():
        if fname.endswith(".json"):
            doc = json.loads(data)
            assert doc["config"]["workers"] == 2
            doc["config"]["workers"] = 1  # the one field that records the layout
            data = _json_dumps(doc).encode()
        assert data == (GOLDEN / fname).read_bytes(), fname


def test_worker_pool_writes_the_same_bytes(tmp_path, capsys):
    _assert_pool_bytes("k8-dc-random", tmp_path)


def test_min_drift_worker_pool_writes_the_same_bytes(tmp_path, capsys):
    # each worker's min-drift order keeps its own drift state, from empty
    _assert_pool_bytes("erdos60-dc-min-drift", tmp_path)


if __name__ == "__main__":
    for old in GOLDEN.glob("*"):
        old.unlink()
    for case in sorted(CASES):
        for fname, data in _run(case, GOLDEN).items():
            print(f"wrote tests/golden/{fname} ({len(data)} bytes)")
    sys.exit(0)
