"""End-to-end CLI coverage: parsing, subcommands, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from decolor.cli import main, parse_graph_spec, parse_order_spec, parse_start_spec


def test_parse_graph_specs():
    assert parse_graph_spec("clique:8") == {"kind": "clique", "n": 8}
    assert parse_graph_spec("bipartite:3,4") == {"kind": "bipartite", "a": 3, "b": 4}
    assert parse_graph_spec("erdos:50,0.1,7") == {"kind": "erdos", "n": 50, "p": 0.1, "seed": 7}
    assert parse_graph_spec("badbip:4") == {"kind": "badbip", "delta": 4}
    assert parse_graph_spec("fig2") == {"kind": "fig2"}
    assert parse_graph_spec("file:/tmp/g.txt") == {"kind": "file", "path": "/tmp/g.txt"}
    with pytest.raises(ValueError):
        parse_graph_spec("clique")
    with pytest.raises(ValueError):
        parse_graph_spec("hypercube:3")


def test_parse_order_specs(tmp_path):
    assert parse_order_spec("uniform") == "uniform"
    assert parse_order_spec("min-drift") == "min-drift"
    assert parse_order_spec("mimic") == "mimic"
    assert parse_order_spec("mimic:lowest") == {"kind": "mimic", "mode": "lowest"}
    perm = tmp_path / "perm.txt"
    perm.write_text("2 0 1\n")
    assert parse_order_spec(f"perm:{perm}") == {"kind": "perm", "order": [2, 0, 1]}
    script = tmp_path / "s.txt"
    script.write_text("0\n0 1\n")
    assert parse_order_spec(f"script:{script}") == {"kind": "script", "picks": [0, 0, 1]}
    with pytest.raises(ValueError):
        parse_order_spec("random")


def test_parse_start_specs():
    assert parse_start_spec("random") == "random"
    assert parse_start_spec("construction") == "construction"
    assert parse_start_spec("mono:2") == {"kind": "mono", "color": 2}
    assert parse_start_spec("file:c.txt") == {"kind": "file", "path": "c.txt"}
    with pytest.raises(ValueError):
        parse_start_spec("zeros")


def test_gen_stdout_and_files(tmp_path, capsys):
    assert main(["gen", "clique:3"]) == 0
    assert capsys.readouterr().out == "3 3\n0 1\n0 2\n1 2\n"

    gpath = tmp_path / "bb.txt"
    spath = tmp_path / "bb.start.txt"
    assert main(["gen", "badbip:2", "--out", str(gpath), "--start-out", str(spath)]) == 0
    assert gpath.read_text().splitlines()[0] == "4 4"
    assert spath.read_text() == "D=3\n1 1 1 2\n"

    # asking for a bundled start from a generator that has none is a usage error
    assert main(["gen", "clique:3", "--start-out", str(tmp_path / "x")]) == 2


def test_run_end_to_end(tmp_path, capsys):
    out = tmp_path / "k3"
    code = main([
        "run", "--graph", "clique:3", "--colors", "3", "--trials", "2000",
        "--seed", "7", "--out", str(out), "--trace", str(tmp_path / "t.txt"),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "total_draws" in stdout and "step3_draws" in stdout
    doc = json.loads((tmp_path / "k3.json").read_text())
    assert doc["config"]["trials"] == 2000
    header = (tmp_path / "k3.csv").read_text().splitlines()[0]
    assert header.startswith("config_hash,master_seed,algorithm")
    trace_lines = (tmp_path / "t.txt").read_text().splitlines()
    assert all(len(line.split()) >= 3 for line in trace_lines)


def test_run_respects_config_file_with_flag_overrides(tmp_path, capsys):
    cfg = {
        "graph": {"kind": "cycle", "n": 4},
        "D": 3,
        "start": {"kind": "fixed", "colors": [1, 2, 1, 2]},
        "trials": 10,
        "master_seed": 3,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "mean=0" in out  # proper start does nothing

    # a flag beats the file
    assert main(["run", "--config", str(path), "--start", "mono:1"]) == 0
    assert "mean=0 " not in capsys.readouterr().out.split("step3_draws")[1]


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["run", "--graph", "clique:3", "--start", "mono:9"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["run", "--graph", "nope:1"]) == 2
    capsys.readouterr()
    assert main(["oracle", "--graph", "cycle:30", "--colors", "3"]) == 2
    assert "guard" in capsys.readouterr().err


def test_bad_step_cap_and_workers_exit_2(capsys):
    assert main(["run", "--graph", "clique:3", "--trials", "5", "--step-cap", "-1"]) == 2
    assert "step_cap" in capsys.readouterr().err
    assert main(["run", "--graph", "clique:3", "--trials", "5", "--workers", "-3"]) == 2
    assert "workers" in capsys.readouterr().err
    assert main(["run", "--graph", "clique:3", "--trials", "5", "--workers", "0"]) == 2
    capsys.readouterr()


CLIQUE3 = {"kind": "clique", "n": 3}


@pytest.mark.parametrize("config", [
    pytest.param({"graph": {"kind": "clique"}}, id="graph-no-n"),
    pytest.param({"graph": {"kind": "clique", "n": 1.5}}, id="graph-float-n"),
    pytest.param({"graph": {"kind": "clique", "n": True}}, id="graph-bool-n"),
    pytest.param({"graph": {"kind": "erdos", "n": 5, "p": 0.5, "seed": 1.5}}, id="graph-float-seed"),
    pytest.param({"graph": {"kind": "edges", "n": 3, "edges": [[0, 1.5]]}}, id="graph-float-edge"),
    pytest.param({"graph": {"kind": "erdos", "n": 5, "p": [0.5], "seed": 1}}, id="graph-list-p"),
    pytest.param({"graph": {"kind": "edges", "n": 3, "edges": [0, 1]}}, id="graph-flat-edges"),
    pytest.param({"graph": CLIQUE3, "start": {"kind": "fixed"}}, id="start-no-colors"),
    pytest.param({"graph": CLIQUE3, "start": {"kind": "fixed", "colors": 7}}, id="start-int-colors"),
    pytest.param({"graph": CLIQUE3, "start": {"kind": "mono", "color": None}}, id="start-null-color"),
    pytest.param({"graph": CLIQUE3, "start": {"kind": "mono", "color": 1.5}}, id="start-float-color"),
    pytest.param({"graph": CLIQUE3, "start": {"kind": "mono", "color": True}}, id="start-bool-color"),
    pytest.param({"graph": CLIQUE3, "start": {"kind": "fixed", "colors": [1, 2, 2.5]}}, id="start-float-colors"),
    pytest.param({"graph": CLIQUE3, "order": {"kind": "perm", "order": [0, 1, 2.0]}}, id="order-float-perm"),
    pytest.param({"graph": CLIQUE3, "order": {"kind": "perm"}}, id="order-no-order"),
    pytest.param({"graph": CLIQUE3, "order": {"kind": "script", "picks": [[0]]}}, id="order-nested-picks"),
    pytest.param({"graph": CLIQUE3, "D": "x"}, id="D-string"),
    pytest.param({"graph": CLIQUE3, "trials": None}, id="trials-null"),
    pytest.param({"graph": CLIQUE3, "trials": True}, id="trials-bool"),
    pytest.param([CLIQUE3], id="top-level-list"),
])
def test_malformed_config_files_exit_2_without_traceback(tmp_path, capsys, config):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-m", "decolor", "--help"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert "usage: decolor" in out.stdout


@pytest.mark.parametrize("algorithm", ["dc", "persistent"])
@pytest.mark.parametrize("graph,start", [("clique:6", "random"), ("badbip:4", "construction")])
def test_trace_replays_trial_zero_of_the_run(tmp_path, capsys, algorithm, graph, start):
    """--trace builds trial 0's stream itself; it must match the run's row 0."""
    code = main([
        "run", "--graph", graph, "--start", start, "--algorithm", algorithm,
        "--trials", "4", "--seed", "29", "--workers", "1", "--per-trial",
        "--out", str(tmp_path / "r"), "--trace", str(tmp_path / "t.txt"),
    ])
    assert code == 0
    n = json.loads((tmp_path / "r.json").read_text())["graph"]["n"]
    row0 = (tmp_path / "r.trials.csv").read_text().splitlines()[1].split(",")
    _, trial, total, step3, selections, _ = row0
    assert trial == "0"
    lines = (tmp_path / "t.txt").read_text().splitlines()
    assert len(lines) == int(selections)
    assert sum(len(line.split()) - 2 for line in lines) == int(step3)
    assert int(total) == n + int(step3)


def test_oracle_prints_exact_rationals(capsys):
    assert main(["oracle", "--graph", "clique:3", "--colors", "3"]) == 0
    assert capsys.readouterr().out.strip() == "5/2 (≈ 2.5)"

    assert main([
        "oracle", "--graph", "badbip:3", "--algorithm", "persistent",
        "--start", "construction",
    ]) == 0
    assert capsys.readouterr().out.strip() == "22/3 (≈ 7.33333333333)"

    assert main([
        "oracle", "--graph", "fig2", "--quantity", "drift",
        "--start", "construction", "--vertex", "0",
    ]) == 0
    out = capsys.readouterr().out
    assert "component-count drift: 1/4" in out
    assert "conflicted-edge drift: -1/4" in out


@pytest.mark.parametrize("vertex", ["7", "-1"])
def test_oracle_drift_rejects_out_of_range_vertices(capsys, vertex):
    assert main([
        "oracle", "--graph", "clique:3", "--start", "mono:1", "--quantity", "drift",
        "--vertex", vertex,
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "out of range" in err and "Traceback" not in err


def test_oracle_rejects_orders_its_chain_does_not_model(capsys):
    assert main(["oracle", "--graph", "clique:3", "--order", "mimic:lowest"]) == 0
    assert capsys.readouterr().out.strip() == "5/2 (≈ 2.5)"
    for order in ("min-drift", "max-conflicted"):
        assert main(["oracle", "--graph", "clique:3", "--order", order]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err


def test_oracle_verbose_prints_diagnostics_on_stderr_only(capsys):
    args = ["oracle", "--graph", "cycle:5", "--colors", "3"]
    assert main(args) == 0
    quiet = capsys.readouterr()
    assert quiet.err == ""
    assert main(args + ["-v"]) == 0
    loud = capsys.readouterr()
    assert loud.out == quiet.out
    lines = loud.err.splitlines()
    assert lines[:2] == ["method: markov-exact", "transient states: 36"]
    assert [line.split(":")[0] for line in lines[2:]] == ["nonzeros of I - Q", "fill-in", "rationals"]
    assert lines[-1] in ("rationals: gmpy2.mpq", "rationals: fractions.Fraction")

    assert main(args + ["--method", "iterative", "--verbose"]) == 0
    assert capsys.readouterr().err.splitlines()[:2] == [
        "method: markov-certified", "transient states: 36"]


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "sw"
    code = main([
        "sweep", "--graph", "clique:3", "--trials", "200", "--seed", "2",
        "--axis", "graph.n", "--values", "3,4", "--out", str(out),
    ])
    assert code == 0
    lines = (tmp_path / "sw.csv").read_text().splitlines()
    assert len(lines) == 3
    assert capsys.readouterr().out.splitlines()[0].startswith("axis,value")


def test_drift_check_exit_codes(tmp_path, capsys):
    code = main(["drift-check", "--samples", "10", "--seed", "3",
                 "--out", str(tmp_path / "rep")])
    assert code == 0
    doc = json.loads((tmp_path / "rep.json").read_text())
    assert doc["ok"] and doc["violations"] == []
    capsys.readouterr()


def test_accept_fast_suites(tmp_path, capsys):
    assert main(["accept", "gadget", "--out", str(tmp_path / "acc")]) == 0
    out = capsys.readouterr().out
    assert "AC-9 PASS" in out and "RESULT: PASS" in out
    doc = json.loads((tmp_path / "acc.json").read_text())
    assert doc["passed"] is True

    assert main(["accept", "nonsense"]) == 2
