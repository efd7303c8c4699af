"""Trial runner, statistics, sweeps, drift checks, and output files."""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decolor import experiments
from decolor.experiments import (
    ExperimentConfig,
    SummaryStats,
    build_graph,
    config_hash,
    drift_check,
    random_invalid_state,
    resolve_output_path,
    resolve_palette,
    run_trials,
    sweep,
    sweep_to_csv,
)
from decolor.coloring import conflicted_vertices


def cfg(**kw) -> ExperimentConfig:
    base = dict(graph={"kind": "clique", "n": 3}, D=3, trials=500, master_seed=1)
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# configuration and hashing


def test_config_validation():
    with pytest.raises(ValueError, match="algorithm"):
        cfg(algorithm="greedy")
    with pytest.raises(ValueError, match="trials"):
        cfg(trials=0)
    with pytest.raises(ValueError, match="step_cap"):
        cfg(step_cap=-1)
    assert cfg(step_cap=0).step_cap == 0
    with pytest.raises(ValueError, match="workers"):
        cfg(workers=0)
    with pytest.raises(ValueError, match="workers"):
        cfg(workers=-3)
    assert cfg(workers=1).workers == 1
    with pytest.raises(ValueError, match="counter"):
        cfg(counters=("total_draws", "steps"))
    with pytest.raises(ValueError):
        cfg(counters=("per_vertex",))  # needs at least one scalar counter
    clique = {"kind": "clique", "n": 3}
    with pytest.raises(ValueError, match="counters must be a list"):
        ExperimentConfig.from_dict({"graph": clique, "counters": "per_vertex"})
    assert ExperimentConfig.from_dict({"graph": clique, "counters": ["step3_draws"]}).counters == (
        "step3_draws",)
    for name in ("exclude_cap_hits", "per_trial"):
        for value in ("false", "no", 0, 1, None):
            with pytest.raises(ValueError, match=name):
                cfg(**{name: value})
        assert getattr(cfg(**{name: True}), name) is True
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"graph": {"kind": "clique", "n": 3}, "bogus": 1})
    with pytest.raises(ValueError, match="graph"):
        ExperimentConfig.from_dict({"trials": 5})


def test_config_hash_tracks_results_not_destinations():
    a = cfg()
    assert config_hash(a) == config_hash(cfg(output="x", workers=4, per_trial=True))
    assert config_hash(a) != config_hash(cfg(trials=501))
    assert config_hash(a) != config_hash(cfg(master_seed=2))
    assert config_hash(a) != config_hash(cfg(order="min-drift"))
    assert len(config_hash(a)) == 12


def test_build_graph_kinds():
    g, bundled = build_graph({"kind": "badbip", "delta": 2})
    assert g.n == 4 and bundled is not None and bundled.palette_size == 3
    g, bundled = build_graph({"kind": "edges", "n": 3, "edges": [[0, 2]]})
    assert g.edge_count() == 1 and bundled is None
    with pytest.raises(ValueError, match="unknown graph kind"):
        build_graph({"kind": "torus"})
    with pytest.raises(ValueError, match="unknown parameters"):
        build_graph({"kind": "clique", "n": 3, "p": 0.5})


def test_resolve_palette_defaults_to_max_degree_plus_one():
    g, _ = build_graph({"kind": "cycle", "n": 5})
    assert resolve_palette(None, g, None) == 3
    assert resolve_palette(7, g, None) == 7
    with pytest.raises(ValueError):
        resolve_palette(0, g, None)


# ---------------------------------------------------------------------------
# statistics


def test_summary_stats_of_constant_data():
    s = SummaryStats.from_values(np.array([4, 4, 4, 4]), cap_hits=0)
    assert s.mean == 4 and s.std == 0 and s.se == 0
    assert s.ci99_low == s.ci99_high == 4
    assert s.min == s.max == 4


@given(st.lists(st.integers(0, 1000), min_size=2, max_size=200))
@settings(max_examples=60)
def test_summary_stats_invariants(values):
    s = SummaryStats.from_values(np.array(values), cap_hits=0)
    assert s.ci99_low <= s.mean <= s.ci99_high
    assert s.min <= s.mean <= s.max
    assert math.isclose(s.mean, sum(values) / len(values))


# ---------------------------------------------------------------------------
# trial running


def test_proper_fixed_start_means_zero():
    c = cfg(
        graph={"kind": "cycle", "n": 4},
        D=3,
        start={"kind": "fixed", "colors": [1, 2, 1, 2]},
        trials=50,
    )
    r = run_trials(c)
    s = r.stats["step3_draws"]
    assert s.mean == 0 and s.se == 0 and s.max == 0


def test_single_edge_mean_near_two():
    c = cfg(
        graph={"kind": "edges", "n": 2, "edges": [[0, 1]]},
        D=2,
        start={"kind": "fixed", "colors": [1, 1]},
        trials=20_000,
        master_seed=17,
    )
    s = run_trials(c).stats["step3_draws"]
    assert abs(s.mean - 2.0) <= 4 * s.se


def test_outputs_are_byte_identical(tmp_path):
    out = str(tmp_path / "runA")
    c = cfg(trials=400, output=out, per_trial=True, counters=("total_draws", "per_vertex"))
    run_trials(c)
    first = {p: (tmp_path / p).read_bytes() for p in os.listdir(tmp_path)}
    assert set(first) == {"runA.csv", "runA.json", "runA.vertices.csv", "runA.trials.csv"}
    run_trials(c)
    second = {p: (tmp_path / p).read_bytes() for p in os.listdir(tmp_path)}
    assert first == second
    doc = json.loads(first["runA.json"])
    assert doc["config_hash"] == config_hash(c)
    assert doc["results"]["total_draws"]["trials"] == 400


def test_worker_pool_reduces_in_trial_order():
    base = cfg(trials=400, master_seed=23)
    seq = run_trials(base)
    par = run_trials(cfg(trials=400, master_seed=23, workers=2))
    assert (seq.total_draws == par.total_draws).all()
    assert seq.stats == par.stats
    # policy orders go to the workers pickled, the min-drift order with its state;
    # vertex 3 is badbip(3)'s one conflicted right vertex, and clearing it ends a run
    orders = ["min-drift", "max-conflicted", {"kind": "mimic", "mode": "uniform"},
              {"kind": "mimic", "mode": "lowest"}, {"kind": "perm", "order": [5, 3, 1, 0, 2, 4]},
              {"kind": "script", "picks": [3] * 40}]
    for algorithm in ("dc", "persistent"):
        for order in orders:
            spec = dict(graph={"kind": "badbip", "delta": 3}, D=None, start="construction",
                        order=order, algorithm=algorithm, trials=300, master_seed=23)
            one, two = run_trials(cfg(**spec, workers=1)), run_trials(cfg(**spec, workers=2))
            assert (one.step3_draws == two.step3_draws).all(), (algorithm, order)
            assert (one.selections == two.selections).all(), (algorithm, order)


@pytest.mark.parametrize("trials", [256, 300, 511, 700, 2049, 5000, 100_000])
@pytest.mark.parametrize("workers", [2, 3, 8])
@pytest.mark.parametrize("kernel", [False, True])
def test_pool_chunks_cover_the_run_and_kernel_chunks_are_long(trials, workers, kernel):
    bounds = experiments._chunks(trials, workers, kernel)
    assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
    assert bounds[-1][1] == trials
    sizes = [hi - lo for lo, hi in bounds]
    least = 512 if kernel else 64
    assert all(size >= least for size in sizes[:-1]) and 0 < sizes[-1] <= sizes[0]
    assert sizes[0] == min(trials, max(least, -(-trials // (4 * workers))))


def test_kernel_runs_take_long_chunks_and_keep_their_results(monkeypatch):
    seen = []
    monkeypatch.setattr(experiments, "_chunks",
                        lambda *a, _f=experiments._chunks: seen.append(a) or _f(*a))
    for algorithm in ("dc", "persistent"):
        spec = dict(graph={"kind": "clique", "n": 5}, D=5, trials=1100, master_seed=29,
                    algorithm=algorithm)
        one, two = run_trials(cfg(**spec, workers=1)), run_trials(cfg(**spec, workers=2))
        assert (one.total_draws == two.total_draws).all() and (one.selections == two.selections).all()
    assert seen == [(1100, 2, True), (1100, 2, True)]


def test_one_worker_builds_the_graph_once(monkeypatch):
    calls = []

    def counting_build_graph(spec):
        calls.append(spec)
        return build_graph(spec)

    monkeypatch.setattr(experiments, "build_graph", counting_build_graph)
    res = run_trials(cfg(graph={"kind": "badbip", "delta": 3}, D=None, start="construction",
                         trials=300, workers=1))
    assert len(calls) == 1
    assert res.D == 4 and res.cap_hits == 0


def test_the_pool_reads_file_inputs_once_in_the_parent(monkeypatch, tmp_path):
    graph, start, log = tmp_path / "c6.txt", tmp_path / "start.txt", tmp_path / "reads.log"
    graph.write_text("6 6\n0 1\n0 5\n1 2\n2 3\n3 4\n4 5\n")
    start.write_text("D=3\n1 1 1 2 2 2\n")
    for name in ("read_graph_file", "read_coloring_file"):
        def logging(path, _real=getattr(experiments, name), _name=name):
            with open(log, "a", encoding="ascii") as fh:
                fh.write(f"{_name} {os.getpid()}\n")
            return _real(path)

        monkeypatch.setattr(experiments, name, logging)
    c = cfg(graph={"kind": "file", "path": str(graph)}, start={"kind": "file", "path": str(start)},
            trials=2100, workers=2)
    assert len(experiments._chunks(c.trials, 2, kernel=True)) > 2
    pooled = run_trials(c)
    assert sorted(log.read_text().splitlines()) == [
        f"read_coloring_file {os.getpid()}", f"read_graph_file {os.getpid()}"]
    c.workers = 1
    assert (run_trials(c).total_draws == pooled.total_draws).all()


def test_one_worker_builds_start_and_order_once(monkeypatch, tmp_path):
    path = tmp_path / "start.txt"
    path.write_text("D=3\n1 1 2\n")
    calls = []
    for name in ("build_start", "build_order"):
        def counting(*args, _real=getattr(experiments, name), _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(experiments, name, counting)
    run_trials(cfg(start={"kind": "file", "path": str(path)}, trials=300, workers=1))
    assert sorted(calls) == ["build_order", "build_start"]


def test_cap_hits_warn_and_optionally_drop():
    raw = dict(
        graph={"kind": "clique", "n": 4},
        D=4,
        start={"kind": "mono", "color": 1},
        trials=200,
        step_cap=1,
        master_seed=5,
    )
    kept = run_trials(ExperimentConfig(**raw))
    assert kept.cap_hits > 0
    assert any("included" in w for w in kept.warnings)
    dropped = run_trials(ExperimentConfig(**raw, exclude_cap_hits=True))
    assert any("excluded" in w for w in dropped.warnings)
    assert dropped.stats["step3_draws"].trials == 200 - dropped.cap_hits


def test_a_run_with_every_trial_excluded_writes_strict_json(tmp_path):
    # K4 has no proper 2-coloring, so every trial hits the cap
    c = cfg(graph={"kind": "clique", "n": 4}, D=2, step_cap=3, trials=50, exclude_cap_hits=True,
            output=str(tmp_path / "capped"))
    assert run_trials(c).cap_hits == 50

    def no_constant(name):
        raise ValueError(f"not strict JSON: {name}")

    doc = json.loads((tmp_path / "capped.json").read_text(), parse_constant=no_constant)
    for stats in doc["results"].values():
        assert stats["trials"] == 0 and stats["mean"] is None and stats["ci99"] is None


def test_an_unknown_mimic_mode_fails_before_any_trial_runs(monkeypatch):
    calls = []
    real = experiments.run_decentralized
    monkeypatch.setattr(experiments, "run_decentralized",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    with pytest.raises(ValueError, match="mimic mode 'bogus'"):
        run_trials(cfg(order={"kind": "mimic", "mode": "bogus"}, workers=1))
    assert not calls


def test_per_vertex_table_matches_scalar_total():
    c = cfg(trials=2000, counters=("step3_draws", "per_vertex"), master_seed=9)
    r = run_trials(c)
    total_from_vertices = sum(row.mean for row in r.per_vertex)
    assert math.isclose(total_from_vertices, r.stats["step3_draws"].mean, rel_tol=1e-9)
    assert [row.degree for row in r.per_vertex] == [2, 2, 2]


def test_env_var_redirects_relative_outputs(tmp_path, monkeypatch):
    monkeypatch.setenv("DECOLOR_OUTPUT_DIR", str(tmp_path))
    assert resolve_output_path("x/y.csv") == str(tmp_path / "x" / "y.csv")
    assert resolve_output_path("/abs/y.csv") == "/abs/y.csv"
    monkeypatch.delenv("DECOLOR_OUTPUT_DIR")
    assert resolve_output_path("x/y.csv") == "x/y.csv"


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_rows_and_normalizations():
    rows = sweep(cfg(trials=300), "graph.n", [3, 4])
    assert [r.value for r in rows] == [3, 4]
    assert rows[0].counter == "total_draws"
    for r in rows:
        assert r.mean_over_n_delta == pytest.approx(r.mean / (r.n * r.max_degree))
        assert r.mean_over_n_log_delta == pytest.approx(
            r.mean / (r.n * math.log(r.max_degree))
        )
    text = sweep_to_csv(rows)
    assert text.splitlines()[0].startswith("axis,value,config_hash")
    assert len(text.splitlines()) == 3


def test_sweep_unknown_axis():
    with pytest.raises(ValueError, match="axis"):
        sweep(cfg(trials=10), "colors", [3])
    with pytest.raises(ValueError, match="no parameter"):
        sweep(cfg(trials=10), "graph.p", [0.1])


def test_sweep_d_axis_changes_palette():
    rows = sweep(cfg(trials=200), "D", [3, 5])
    assert [r.D for r in rows] == [3, 5]


# ---------------------------------------------------------------------------
# drift check


@given(seed=st.integers(0, 5000))
@settings(max_examples=60, deadline=None)
def test_random_invalid_state_always_conflicts_and_caps_degree(seed):
    g, c = random_invalid_state(np.random.default_rng(seed), n_max=9, d_max=5)
    assert conflicted_vertices(g, c)
    assert g.max_degree <= c.palette_size - 1


def test_drift_check_small_sample_is_clean():
    rep = drift_check(40, n_max=8, d_max=5, seed=4)
    assert rep.ok
    assert rep.vertices_checked > 40
    assert rep.min_phi_drift >= Fraction(1, 6)
    assert rep.max_edge_drift <= Fraction(-1, 6)
    assert rep.gadget_tight and rep.gadget_drift == Fraction(1, 4)


def test_drift_check_empty_is_vacuous_with_warning():
    rep = drift_check(0, seed=1)
    assert rep.ok
    assert any("vacuous" in w for w in rep.warnings)
    # the fixed gadget sample is still present
    assert rep.vertices_checked >= 1
    doc = rep.to_json_dict()
    assert doc["ok"] and doc["gadget_drift"]["p"] == 1 and doc["gadget_drift"]["q"] == 4


def test_drift_check_makes_one_oracle_call_per_checked_vertex(monkeypatch):
    # the gadget is sample 0, so its drift comes from the same pass
    from decolor import oracle

    calls = {"exact_expected_phi_delta": 0, "exact_expected_conflict_deltas": 0}
    for name in calls:
        def counted(*args, _fn=getattr(oracle, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(oracle, name, counted)
    rep = drift_check(20, seed=3)
    assert calls == {"exact_expected_phi_delta": 0,
                     "exact_expected_conflict_deltas": rep.vertices_checked}
    assert rep.gadget_tight and rep.gadget_drift == Fraction(1, 4)


@pytest.mark.parametrize("samples", [0, 3])
def test_drift_check_rejects_n_max_below_two_with_or_without_samples(samples):
    with pytest.raises(ValueError, match="n_max >= 2"):
        drift_check(samples, n_max=1)
