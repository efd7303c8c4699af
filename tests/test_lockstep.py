"""The lockstep kernel gives every trial exactly the scalar engine's result,
wherever it hands a trial back, and run_trials does not depend on the engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from decolor import lockstep
from decolor.coloring import Coloring
from decolor.engine import (
    ConflictTracker,
    FixedStart,
    RANDOM_START,
    UNIFORM_ORDER,
    default_step_cap,
    run_decentralized,
)
from decolor.experiments import ExperimentConfig, run_trials, write_outputs
from decolor.graphs import from_edge_list, gen_clique, gen_cycle
from decolor.rng import stream_rows, trial_rng


def _scalar(g, D, start, seed, lo, hi, cap):
    rows = []
    for i in range(lo, hi):
        r = run_decentralized(g, D, start, UNIFORM_ORDER, trial_rng(seed, i), step_cap=cap)
        rows.append((r.step3_draws, r.selections, r.terminated, r.per_vertex_draws))
    return rows


def _kernel(g, D, start, seed, lo, hi, cap):
    step3, terminated, per_vertex = lockstep.run_range(g, D, start, seed, lo, hi, cap)
    return [(s, s, t, pv) for s, t, pv in zip(step3.tolist(), terminated.tolist(), per_vertex.tolist())]


@st.composite
def kernel_ranges(draw):
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = from_edge_list(n, edges)
    # palettes that may never finish, and one that rejects about half of all values
    D = draw(st.one_of(st.integers(1, g.max_degree + 2), st.just(2**52 + 1)))
    if draw(st.booleans()):
        start = RANDOM_START
    else:
        start = FixedStart(Coloring(draw(st.lists(st.integers(1, D), min_size=n, max_size=n)), D))
    cap = draw(st.sampled_from([0, 1, 2, 5, 12, default_step_cap(n, D)]))
    block = draw(st.integers(0, lockstep.kernel_block(n)))
    lo = draw(st.integers(0, 2**40))
    return g, D, start, cap, block, draw(st.integers(0, 2**64 - 1)), lo, lo + draw(st.integers(1, 40))


@given(kernel_ranges())
@settings(max_examples=150, deadline=None)
def test_kernel_equals_the_scalar_engine_trial_by_trial(case):
    g, D, start, cap, block, seed, lo, hi = case
    want = _scalar(g, D, start, seed, lo, hi, cap)
    assert _kernel(g, D, start, seed, lo, hi, cap) == want
    with pytest.MonkeyPatch.context() as mp:  # a short block hands trials back at position `block`
        mp.setattr(lockstep, "kernel_block", lambda n: block)
        assert _kernel(g, D, start, seed, lo, hi, cap) == want


@pytest.mark.parametrize(
    "g, D, start",
    [
        (gen_clique(5), 5, RANDOM_START),
        (gen_cycle(6), 3, FixedStart(Coloring([1] * 6, 3))),
        (from_edge_list(4, [(0, 1), (0, 2), (0, 3)]), 4, FixedStart(Coloring([1] * 4, 4))),
    ],
)
def test_every_hand_off_position_gives_the_same_trials(monkeypatch, g, D, start):
    cap = default_step_cap(g.n, D)
    want = _scalar(g, D, start, 77, 0, 60, cap)
    # values the longest trial reads: its initial colors, then two per step
    longest = (g.n if start is RANDOM_START else 0) + 2 * max(s for s, *_ in want)
    for block in range(longest + 2):
        monkeypatch.setattr(lockstep, "kernel_block", lambda n, block=block: block)
        assert _kernel(g, D, start, 77, 0, 60, cap) == want, block


def test_rejected_values_leave_the_kernel(monkeypatch):
    # with D = 2^52 + 1 about half of all values are rejected; a rejection
    # changes colors but rarely a count, so count the trials that leave
    D, T = 2**52 + 1, 200
    lim = 2**53 - 2**53 % D
    calls = {"resume": 0, "scratch": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(lockstep, "resume_uniform_dc", counting("resume", lockstep.resume_uniform_dc))
    monkeypatch.setattr(lockstep, "run_decentralized", counting("scratch", lockstep.run_decentralized))
    g = gen_clique(2)
    rows = stream_rows(5, 0, T)
    first = [next(rows) for _ in range(2)]
    lockstep.run_range(g, D, FixedStart(Coloring([1, 1], D)), 5, 0, T, 100)
    assert calls == {"resume": int((first[1] >= lim).sum()), "scratch": 0}  # the first color value
    calls.update(resume=0)
    lockstep.run_range(g, D, RANDOM_START, 5, 0, T, 100)
    assert calls["scratch"] == int(((first[0] >= lim) | (first[1] >= lim)).sum())  # an initial color


def test_ranges_longer_than_one_lockstep_pass(monkeypatch):
    g = gen_clique(4)
    monkeypatch.setattr(lockstep, "PASS_ENTRIES", 7 * (g.n + 1))
    assert _kernel(g, 4, RANDOM_START, 3, 5, 30, 100) == _scalar(g, 4, RANDOM_START, 3, 5, 30, 100)


def _outputs(tmp_path, name, cfg):
    paths = write_outputs(run_trials(cfg), str(tmp_path / name))
    return {p.rsplit("/", 1)[-1].split(".", 1)[1]: open(p, "rb").read() for p in paths}


@pytest.mark.parametrize(
    "spec",
    [
        dict(graph={"kind": "clique", "n": 6}, D=6),
        dict(graph={"kind": "cycle", "n": 8}, D=3, start={"kind": "mono", "color": 1}),
        dict(graph={"kind": "clique", "n": 4}, D=3, step_cap=4),
    ],
)
def test_run_trials_does_not_depend_on_the_engine(monkeypatch, tmp_path, spec):
    routed = []
    monkeypatch.setattr(lockstep, "run_range", lambda *a, _f=lockstep.run_range: routed.append(1) or _f(*a))
    base = dict(trials=700, master_seed=41, per_trial=True,
                counters=("total_draws", "step3_draws", "per_vertex"), **spec)
    kernel = _outputs(tmp_path, "kernel", ExperimentConfig(**base, workers=1))
    assert routed
    pooled = _outputs(tmp_path, "pooled", ExperimentConfig(**base, workers=2))
    monkeypatch.setattr(lockstep, "fits", lambda g: False)
    scalar = _outputs(tmp_path, "scalar", ExperimentConfig(**base, workers=1))
    assert kernel == scalar
    assert {k: v for k, v in pooled.items() if k != "json"} == {
        k: v for k, v in scalar.items() if k != "json"
    }


def test_a_bad_fixed_start_fails_as_in_the_scalar_engine():
    cfg = ExperimentConfig(graph={"kind": "clique", "n": 4}, D=4, trials=50, workers=1,
                           start={"kind": "fixed", "colors": [1, 1, 2]})
    with pytest.raises(ValueError, match="fixed start has 3 colors for n=4"):
        run_trials(cfg)


def test_routing_uses_only_the_graph_size():
    assert lockstep.fits(gen_clique(8)) and lockstep.fits(gen_cycle(16))
    assert lockstep.fits(gen_clique(32)) and not lockstep.fits(gen_cycle(33))
    assert not lockstep.fits(gen_clique(64)) and not lockstep.fits(gen_cycle(1000))


def test_tracker_resumes_a_given_member_order():
    g = gen_clique(4)
    colors = [1, 1, 2, 2]
    tracker = ConflictTracker(g, colors, members=[3, 0, 2, 1])
    assert tracker.members == [3, 0, 2, 1]
    assert [tracker.pos[v] for v in range(4)] == [1, 3, 2, 0]
    with pytest.raises(ValueError, match="conflicted"):
        ConflictTracker(g, colors, members=[0, 1, 2])
