"""End-to-end CLI coverage: parsing, subcommands, exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from decolor import acceptance
from decolor.cli import main, parse_spec
from decolor.experiments import (
    OUTPUT_DIR_ENV,
    SPEC_KINDS,
    SPEC_PARAMS,
    SPEC_WORDS,
    build_graph,
    build_order,
    build_start,
)


def test_parse_graph_specs():
    assert parse_spec("graph", "clique:8") == {"kind": "clique", "n": 8}
    assert parse_spec("graph", "bipartite:3,4") == {"kind": "bipartite", "a": 3, "b": 4}
    assert parse_spec("graph", "erdos:50,0.1,7") == {"kind": "erdos", "n": 50, "p": 0.1, "seed": 7}
    assert parse_spec("graph", "badbip:4") == {"kind": "badbip", "delta": 4}
    assert parse_spec("graph", "fig2") == {"kind": "fig2"}
    assert parse_spec("graph", "file:/tmp/g.txt") == {"kind": "file", "path": "/tmp/g.txt"}
    with pytest.raises(ValueError):
        parse_spec("graph", "clique")
    with pytest.raises(ValueError):
        parse_spec("graph", "hypercube:3")


def test_parse_order_specs(tmp_path):
    assert parse_spec("order", "uniform") == "uniform"
    assert parse_spec("order", "min-drift") == "min-drift"
    assert parse_spec("order", "mimic") == "mimic"
    assert parse_spec("order", "mimic:lowest") == {"kind": "mimic", "mode": "lowest"}
    perm = tmp_path / "perm.txt"
    perm.write_text("2 0 1\n")
    assert parse_spec("order", f"perm:{perm}") == {"kind": "perm", "order": [2, 0, 1]}
    script = tmp_path / "s.txt"
    script.write_text("0\n0 1\n")
    assert parse_spec("order", f"script:{script}") == {"kind": "script", "picks": [0, 0, 1]}
    with pytest.raises(ValueError):
        parse_spec("order", "random")


def test_parse_start_specs():
    assert parse_spec("start", "random") == "random"
    assert parse_spec("start", "construction") == "construction"
    assert parse_spec("start", "mono:2") == {"kind": "mono", "color": 2}
    assert parse_spec("start", "file:c.txt") == {"kind": "file", "path": "c.txt"}
    with pytest.raises(ValueError):
        parse_spec("start", "zeros")


def test_the_readme_cli_table_lists_every_compact_spec(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (tmp_path / "g.txt").write_text("3 2\n0 1\n1 2\n")
    (tmp_path / "c.txt").write_text("D=4\n1 1 1 1 2 3\n")
    (tmp_path / "p.txt").write_text("5 4 3 2 1 0\n")
    # what the README's placeholders stand for, by README spelling
    values = {"n": "4", "a": "2", "b": "3", "p": "0.5", "seed": "1", "d": "3",
              "PATH": str(tmp_path / "g.txt"), "<color>": "2", "<path>": str(tmp_path / "c.txt"),
              "<file>": str(tmp_path / "p.txt"), "lowest": "lowest"}
    g, bundled = build_graph({"kind": "badbip", "delta": 3})  # n = 6, D = 4, bundles a start
    build = {
        "graph": build_graph,
        "start": lambda spec: build_start(spec, g, 4, bundled),
        "order": lambda spec: build_order(spec, g),
    }
    for family in SPEC_KINDS:
        row = next(line for line in readme.splitlines() if line.startswith(f"| `--{family}` |"))
        items = [t for t in re.findall(r"`([^`]+)`", row.split("|")[2]) if not t.startswith("--")]
        # `mimic[:lowest]` is both `mimic` and `mimic:lowest`
        items = {form for t in items for form in (re.sub(r"\[.*?\]", "", t), re.sub(r"[][]", "", t))}
        seen = set()
        for item in items:
            kind, _, placeholders = item.partition(":")
            text = kind + (":" + ",".join(values[p] for p in placeholders.split(",")) if placeholders else "")
            build[family](parse_spec(family, text))
            seen.add(kind)
        compact = [kind for kind, names in SPEC_KINDS[family].items()
                   if all(SPEC_PARAMS[name][1] for name in names)]
        assert set(compact) | set(SPEC_WORDS[family]) <= seen, (family, row)
        for kind in set(SPEC_KINDS[family]) - set(compact):  # config files only
            with pytest.raises(ValueError):
                parse_spec(family, f"{kind}:{values['<file>']}")


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


@pytest.mark.parametrize("out", ["results/r.csv", "results/r.json", "results/r"])
def test_run_prints_the_stem_it_writes(tmp_path, capsys, monkeypatch, out):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    assert main(["run", "--graph", "clique:3", "--trials", "5", "--workers", "1", "--out", out]) == 0
    line = next(line for line in capsys.readouterr().out.splitlines() if "wrote" in line)
    stem = line.split("wrote ", 1)[1].removesuffix(".{csv,json}")
    assert stem == str(tmp_path / "results" / "r")
    assert os.path.isfile(stem + ".csv") and os.path.isfile(stem + ".json")


@pytest.mark.parametrize("command,help_text", [
    ("run", "output stem; writes <stem>.csv and <stem>.json"),
    ("sweep", "output stem; writes <stem>.csv"),
])
def test_out_help_names_the_files_each_subcommand_writes(capsys, command, help_text):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert text.rsplit("--out OUT ", 1)[1].split(" --", 1)[0] == help_text


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
    assert "over the state budget of 300000" in capsys.readouterr().err
    assert main(["sweep", "--graph", "clique:3", "--axis", "graph.n", "--values", "3,,4"]) == 2
    assert capsys.readouterr().err == "error: --values: '' is not a number\n"
    # oracle flags that the chosen oracle does not read
    assert main(["oracle", "--graph", "clique:3", "--algorithm", "persistent",
                 "--method", "iterative", "-v"]) == 2
    assert capsys.readouterr().err == (
        "error: --method is read only by the one-draw recolorings oracle (--algorithm dc)\n")
    assert main(["oracle", "--graph", "clique:3", "--vertex", "1"]) == 2
    assert capsys.readouterr().err == "error: --vertex is read only by --quantity drift\n"
    drift = ["oracle", "--graph", "fig2", "--quantity", "drift", "--start", "construction", "--vertex", "0"]
    for flags in (["--order", "min-drift", "--algorithm", "persistent", "-v"], ["--algorithm", "dc"], ["-v"]):
        assert main(drift + flags) == 2
        assert capsys.readouterr().err == f"error: {flags[0]} is read only by --quantity recolorings\n"


def test_malformed_graph_file_exits_2_with_one_error_line(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("2 1\n0 1 7\n")
    assert main(["run", "--graph", f"file:{path}", "--trials", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "line 2" in err and "Traceback" not in err


def test_a_start_file_must_use_the_run_palette(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("D=9\n1 1 2\n")
    run = ["run", "--graph", "clique:3", "--start", f"file:{path}", "--trials", "5", "--workers", "1"]
    assert main(run) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "D=9" in err and "D=3" in err and "--colors 9" in err
    assert main(run + ["--colors", "9"]) == 0


@pytest.mark.parametrize("entries", [3, 6])
def test_a_perm_order_of_the_wrong_length_exits_2(tmp_path, capsys, entries):
    path = tmp_path / "p.txt"
    path.write_text(" ".join(map(str, range(entries))) + "\n")
    assert main(["run", "--graph", "clique:4", "--order", f"perm:{path}", "--trials", "5",
                 "--workers", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"{entries} entries" in err and "n=4" in err and "Traceback" not in err


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
    pytest.param({"graph": {"kind": "erdos", "n": 5, "p": True, "seed": 1}}, id="graph-bool-p"),
    pytest.param({"graph": {"kind": "erdos", "n": 5, "p": "0.5", "seed": 1}}, id="graph-string-p"),
    pytest.param({"graph": {"kind": "file", "path": 5}}, id="graph-int-path"),
    pytest.param({"graph": CLIQUE3, "start": {"kind": "fixed"}}, id="start-no-colors"),
    pytest.param({"graph": CLIQUE3, "start": {"kind": "fixed", "colors": 7}}, id="start-int-colors"),
    pytest.param({"graph": CLIQUE3, "start": {"kind": "mono", "color": None}}, id="start-null-color"),
    pytest.param({"graph": CLIQUE3, "start": {"kind": "mono", "color": 1.5}}, id="start-float-color"),
    pytest.param({"graph": CLIQUE3, "start": {"kind": "mono", "color": True}}, id="start-bool-color"),
    pytest.param({"graph": CLIQUE3, "start": {"kind": "fixed", "colors": [1, 2, 2.5]}}, id="start-float-colors"),
    pytest.param({"graph": CLIQUE3, "order": {"kind": "perm", "order": [0, 1, 2.0]}}, id="order-float-perm"),
    pytest.param({"graph": CLIQUE3, "order": {"kind": "perm"}}, id="order-no-order"),
    pytest.param({"graph": CLIQUE3, "order": {"kind": "script", "picks": [[0]]}}, id="order-nested-picks"),
    pytest.param({"graph": CLIQUE3, "start": {"kind": "mono", "colour": 2}}, id="start-unknown-param"),
    pytest.param({"graph": CLIQUE3, "order": {"kind": "mimic", "mdoe": "lowest"}}, id="order-unknown-param"),
    pytest.param({"graph": CLIQUE3, "order": {"kind": "mimic", "mode": 7}}, id="order-int-mode"),
    pytest.param({"graph": CLIQUE3, "order": {"kind": "perm", "order": [0, 1, 2], "seed": 1}},
                 id="order-perm-extra-param"),
    pytest.param({"graph": CLIQUE3, "D": "x"}, id="D-string"),
    pytest.param({"graph": CLIQUE3, "trials": None}, id="trials-null"),
    pytest.param({"graph": CLIQUE3, "trials": True}, id="trials-bool"),
    pytest.param([CLIQUE3], id="top-level-list"),
    pytest.param({"graph": CLIQUE3, "exclude_cap_hits": "false"}, id="exclude-cap-hits-string"),
    pytest.param({"graph": CLIQUE3, "per_trial": "no"}, id="per-trial-string"),
    pytest.param({"graph": CLIQUE3, "counters": "per_vertex"}, id="counters-string"),
])
def test_malformed_config_files_exit_2_without_traceback(tmp_path, capsys, config):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("data", [b"", b"{", b'{"graph": }', b"\xff{"])
def test_a_config_file_that_is_not_json_is_named_in_the_error(tmp_path, capsys, data):
    path = tmp_path / "c.json"
    path.write_bytes(data)
    assert main(["run", "--graph", "clique:3", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {path}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("text, message", [
    ("D=x\n1 2 3\n", "line 1: 'x' is not an integer"),
    ("D=3\n1 a 3\n", "line 2: 'a' is not an integer"),
])
def test_a_bad_start_file_token_names_its_line(tmp_path, capsys, text, message):
    path = tmp_path / "start.txt"
    path.write_text(text)
    args = ["run", "--graph", "clique:3", "--start-file", str(path), "--trials", "1"]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# short texts: both formats with small, possibly bad numbers; lines of small
# numbers and near-misses; free text without digits (so no graph gets large)
_small = st.integers(-1, 6)
_TOKENS = st.one_of(
    st.integers(-2, 9).map(str),
    st.sampled_from(["D=", "D=0", "D=2", "D=x", "x", "1.5", "0x1", "+1", "1_0", "-", "\u0663"]),
)
_TEXTS = st.one_of(
    st.builds(lambda n, edges, miscount: f"{n} {len(edges) + miscount}\n"
              + "".join(f"{u} {v}\n" for u, v in edges),
              _small, st.lists(st.tuples(_small, _small), max_size=6), st.sampled_from([0, 1, -1])),
    st.builds(lambda D, colors: f"D={D}\n" + " ".join(map(str, colors)) + "\n",
              _small, st.lists(_small, min_size=2, max_size=4)),
    st.lists(st.lists(_TOKENS, max_size=4).map(" ".join), max_size=6).map("\n".join),
    st.text(st.characters(blacklist_categories=("Nd",)), max_size=20),
)


@given(text=_TEXTS, as_graph=st.booleans())
@settings(max_examples=300, deadline=None)
def test_graph_and_coloring_files_fail_with_one_error_line(text, as_graph):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.txt")
        # a lone surrogate becomes bytes that are not UTF-8, which must fail cleanly too
        with open(path, "w", encoding="utf-8", errors="surrogatepass") as fh:
            fh.write(text)
        where = [f"file:{path}"] if as_graph else ["clique:3", "--start", f"file:{path}"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", "--graph", *where, "--trials", "1", "--workers", "1"])
    message = err.getvalue()
    assert code in (0, 2)
    if code == 2:
        assert message.startswith("error: ") and message.count("\n") == 1, message


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


def test_oracle_prints_exact_rationals(tmp_path, capsys):
    assert main(["oracle", "--graph", "clique:3", "--colors", "3"]) == 0
    assert capsys.readouterr().out.strip() == "5/2 (≈ 2.5)"

    # both oracles take fixed and mimic orders; the persistent one reads
    # mimic as uniform order
    badbip = ["oracle", "--graph", "badbip:3", "--start", "construction"]
    for order in ([], ["--order", "all"], ["--order", "mimic"]):
        assert main(badbip + ["--algorithm", "persistent"] + order) == 0
        assert capsys.readouterr().out.strip() == "22/3 (≈ 7.33333333333)"
    perm = tmp_path / "p.txt"
    perm.write_text("5 0 1 2 3 4\n")
    assert main(badbip + ["--order", f"perm:{perm}"]) == 0
    assert capsys.readouterr().out.strip() == "21/2 (≈ 10.5)"

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


def test_oracle_rejects_orders_its_chain_does_not_model(tmp_path, capsys):
    assert main(["oracle", "--graph", "clique:3", "--order", "mimic:lowest"]) == 0
    assert capsys.readouterr().out.strip() == "5/2 (≈ 2.5)"
    script = tmp_path / "s.txt"
    script.write_text("0 1\n")
    for algorithm in ("dc", "persistent"):
        for order in ("min-drift", "max-conflicted", f"script:{script}"):
            assert main(["oracle", "--graph", "clique:3", "--algorithm", algorithm,
                         "--order", order]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "the exact oracles model uniform, fixed-permutation and mimic orders" in err


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
    assert [line.split(":")[0] for line in lines[2:]] == ["nonzeros of I - Q", "fill-in"]

    assert main(args + ["--method", "iterative", "--verbose"]) == 0
    assert capsys.readouterr().err.splitlines()[:2] == [
        "method: markov-certified", "transient states: 36"]

    assert main(["oracle", "--graph", "badbip:5", "--algorithm", "persistent",
                 "--start", "construction", "-v"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "method: persistent-recursion", "transient states: 31"]


def test_oracle_verbose_prints_the_certified_refinement(capsys):
    args = ["oracle", "--graph", "cycle:5", "--colors", "3", "--method", "iterative", "-v"]
    assert main(args) == 0
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "method: markov-certified"
    rounds = [line for line in lines if line.startswith("refinement rounds: ")]
    residual = [line for line in lines if line.startswith("max residual: ")]
    assert len(rounds) == 1 and int(rounds[0].split(": ")[1]) >= 0
    assert len(residual) == 1 and 0 <= float(residual[0].split(": ")[1]) <= 1e-12


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
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0].startswith("AC-9 PASS (") and lines[1] == "RESULT: PASS"
    doc = json.loads((tmp_path / "acc.json").read_text())
    assert doc["passed"] is True

    assert main(["accept", "nonsense"]) == 2


def test_accept_failing_criterion_exits_1(monkeypatch, capsys):
    monkeypatch.setitem(acceptance._CRITERIA, "AC-9",
                        lambda: acceptance.CriterionResult("AC-9", False, "forced"))
    assert main(["accept", "gadget"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("AC-9 FAIL (") and lines[1] == "RESULT: FAIL (AC-9)"


def test_every_run_flag_lands_on_its_config_field(tmp_path):
    start = tmp_path / "c.txt"
    start.write_text("D=4\n1 1 2\n")
    perm = tmp_path / "p.txt"
    perm.write_text("2 0 1\n")
    out = tmp_path / "r"
    assert main([
        "run", "--graph", "clique:3", "--trials", "3", "--colors", "4", "--seed", "11",
        "--out", str(out), "--step-cap", "50", "--workers", "1",
        "--counters", "step3_draws, per_vertex", "--per-trial", "--exclude-cap-hits",
        "--order", f"perm:{perm}", "--start", "mono:1", "--start-file", str(start),
    ]) == 0
    assert json.loads((tmp_path / "r.json").read_text())["config"] == {
        "graph": {"kind": "clique", "n": 3},
        "algorithm": "dc",
        "D": 4,
        "start": {"kind": "file", "path": str(start)},  # --start-file beats --start
        "order": {"kind": "perm", "order": [2, 0, 1]},
        "trials": 3,
        "master_seed": 11,
        "step_cap": 50,
        "output": str(out),
        "counters": ["step3_draws", "per_vertex"],
        "exclude_cap_hits": True,
        "per_trial": True,
        "workers": 1,
    }
    assert (tmp_path / "r.trials.csv").exists() and (tmp_path / "r.vertices.csv").exists()


def test_absent_switch_flags_keep_the_config_file_values(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "graph": {"kind": "clique", "n": 3}, "trials": 3, "counters": ["step3_draws"],
        "per_trial": True, "exclude_cap_hits": True,
    }))
    # an empty --counters sets nothing either
    assert main(["run", "--config", str(path), "--workers", "1", "--counters", "",
                 "--out", str(tmp_path / "r")]) == 0
    config = json.loads((tmp_path / "r.json").read_text())["config"]
    assert config["per_trial"] is True and config["exclude_cap_hits"] is True
    assert config["counters"] == ["step3_draws"]
    assert (tmp_path / "r.trials.csv").exists()


def test_oracle_drift_reads_a_bundled_start_under_the_run_palette(capsys):
    assert main([
        "oracle", "--graph", "fig2", "--quantity", "drift", "--start", "construction",
        "--vertex", "0", "--colors", "5",
    ]) == 0
    out = capsys.readouterr().out
    assert "component-count drift: 2/5 (≈ 0.4)" in out
    assert "conflicted-edge drift: -2/5 (≈ -0.4)" in out


def test_oracle_order_all_names_uniform_order_for_the_persistent_oracle_only(tmp_path, capsys):
    persistent = ["oracle", "--graph", "clique:3", "--algorithm", "persistent"]
    assert main(persistent + ["--order", "all"]) == 0
    assert capsys.readouterr().out.strip() == "5/2 (≈ 2.5)"

    perm = tmp_path / "p.txt"
    perm.write_text("1 0\n")
    assert main(persistent + ["--order", f"perm:{perm}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err

    assert main(["oracle", "--graph", "clique:3", "--order", "all"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv,written", [
    pytest.param(["gen", "clique:3", "--out", "{d}/g.txt"], "g.txt", id="gen-out"),
    pytest.param(["gen", "badbip:2", "--start-out", "{d}/s.txt"], "s.txt", id="gen-start-out"),
    pytest.param(["run", "--graph", "clique:3", "--trials", "2", "--workers", "1",
                  "--trace", "{d}/t.txt"], "t.txt", id="run-trace"),
    pytest.param(["sweep", "--graph", "clique:3", "--trials", "20", "--workers", "1",
                  "--axis", "graph.n", "--values", "3", "--out", "{d}/sw"], "sw.csv",
                 id="sweep-out"),
    pytest.param(["sweep", "--graph", "clique:3", "--trials", "20", "--workers", "1",
                  "--axis", "graph.n", "--values", "3", "--out", "{d}/sw.json"], "sw.csv",
                 id="sweep-out-json"),
    pytest.param(["drift-check", "--samples", "2", "--out", "{d}/rep"], "rep.json",
                 id="drift-check-out"),
    pytest.param(["accept", "gadget", "--out", "{d}/acc"], "acc.json", id="accept-out"),
    pytest.param(["drift-check", "--samples", "2", "--out", "{d}/rep.csv"], "rep.json",
                 id="drift-check-out-csv"),
    pytest.param(["accept", "gadget", "--out", "{d}/acc.csv"], "acc.json", id="accept-out-csv"),
])
def test_every_output_path_gets_its_parent_directory(tmp_path, capsys, argv, written):
    d = tmp_path / "missing" / "nested"
    assert main([a.format(d=d) for a in argv]) == 0, capsys.readouterr().err
    assert (d / written).is_file()


def test_a_counter_with_no_trial_behind_it_writes_nan_statistics(tmp_path, capsys):
    assert main([
        "run", "--graph", "clique:4", "--colors", "2", "--step-cap", "3", "--exclude-cap-hits",
        "--trials", "20", "--workers", "1", "--out", str(tmp_path / "capped"),
    ]) == 0
    assert "min=nan max=nan" in capsys.readouterr().out
    header, *rows = (tmp_path / "capped.csv").read_text().splitlines()
    columns = header.split(",")
    stats = slice(columns.index("mean"), columns.index("max") + 1)
    assert len(rows) == 2
    for row in rows:
        cells = dict(zip(columns, row.split(",")))
        assert cells["trials"] == "0" and cells["cap_hits"] == "20"
        assert row.split(",")[stats] == ["nan"] * 7, row
    results = json.loads((tmp_path / "capped.json").read_text())["results"]
    assert all(r["std"] is None and r["min"] is None and r["max"] is None for r in results.values())


def test_drift_check_rejects_a_negative_sample_count(tmp_path, capsys):
    assert main(["drift-check", "--samples", "-3", "--out", str(tmp_path / "rep")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "-3" in err and "Traceback" not in err
    assert not (tmp_path / "rep.json").exists()
