"""The lockstep kernels, both reached through `run_pass` from the one pass
loop `experiments.trial_passes`, which reruns in the scalar engine the
trials a pass hands back, give every trial exactly the scalar engine's
result, however long it runs, and run_trials does not depend on the engine."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decolor import experiments, lockstep
from decolor.coloring import Coloring
from decolor.engine import (
    UNIFORM_ORDER,
    default_step_cap,
    run_decentralized,
    run_persistent,
)
from decolor.experiments import (
    ExperimentConfig,
    build_graph,
    build_start,
    run_trials,
    trial_passes,
    write_outputs,
)
from decolor.graphs import from_edge_list, gen_clique, gen_cycle
from decolor.rng import trial_rng


def _scalar(g, D, start, seed, lo, hi, cap):
    rows = []
    for i in range(lo, hi):
        r = run_decentralized(g, D, start, UNIFORM_ORDER, trial_rng(seed, i), step_cap=cap)
        rows.append((r.step3_draws, r.selections, r.terminated, r.per_vertex_draws))
    return rows


def _kernel(g, D, start, seed, lo, hi, cap, persistent=False):
    """Trials lo..hi-1 through the kernel's pass loop, with the kernel made
    to take ranges of any length (see `lockstep.MIN_RANGE`)."""
    assert lockstep.fits(g, D, persistent)
    cfg = ExperimentConfig(graph={}, algorithm="persistent" if persistent else "dc",
                           master_seed=seed, step_cap=cap, counters=("step3_draws", "per_vertex"))
    rows = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lockstep, "MIN_RANGE", 1)
        passes = _counting(mp, "run_pass")
        for columns in trial_passes(cfg, (g, D, start, UNIFORM_ORDER), lo, hi):
            rows += zip(*(a.tolist() for a in columns))
    assert passes
    return rows


@st.composite
def kernel_ranges(draw):
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = from_edge_list(n, edges)
    # palettes that may never finish, and one that rejects about half of all values
    D = draw(st.one_of(st.integers(1, g.max_degree + 2), st.just(2**52 + 1)))
    if draw(st.booleans()):
        start = None
    else:
        start = Coloring(draw(st.lists(st.integers(1, D), min_size=n, max_size=n)), D)
    cap = draw(st.sampled_from([0, 1, 2, 5, 12, default_step_cap(n, D)]))
    lo = draw(st.integers(0, 2**40))
    return g, D, start, cap, draw(st.integers(0, 2**64 - 1)), lo, lo + draw(st.integers(1, 40))


@given(kernel_ranges())
@settings(max_examples=150, deadline=None)
def test_kernel_equals_the_scalar_engine_trial_by_trial(case):
    g, D, start, cap, seed, lo, hi = case
    assert _kernel(g, D, start, seed, lo, hi, cap) == _scalar(g, D, start, seed, lo, hi, cap)


def _counting(monkeypatch, name, module=lockstep):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(a) or real(*a, **kw))
    return calls


@pytest.mark.parametrize(
    "g, D, start",
    [
        (gen_clique(5), 5, None),
        (gen_cycle(6), 3, Coloring([1] * 6, 3)),
        (from_edge_list(4, [(0, 1), (0, 2), (0, 3)]), 4, Coloring([1] * 4, 4)),
    ],
)
def test_kernel_equals_the_scalar_engine_on_small_graphs(g, D, start):
    cap = default_step_cap(g.n, D)
    assert _kernel(g, D, start, 77, 0, 60, cap) == _scalar(g, D, start, 77, 0, 60, cap)


def _reruns(monkeypatch, seed, T):
    """The trials a lockstep pass hands back to run_decentralized, as a list
    that fills while the kernel runs. A rerun's generator is the trial's,
    fresh, so its state names the trial."""
    states = {trial_rng(seed, i).bit_generator.state["state"]["state"]: i for i in range(T)}
    reruns = []
    real = experiments.run_decentralized
    monkeypatch.setattr(experiments, "run_decentralized", lambda g, D, start, order, rng, **kw: reruns.append(
        states[rng.bit_generator.state["state"]["state"]]) or real(g, D, start, order, rng, **kw))
    return reruns


def test_long_trials_finish_in_the_kernel(monkeypatch):
    g, D, T = gen_clique(16), 16, 300
    cap = default_step_cap(g.n, D)
    want = _scalar(g, D, None, 19, 0, T, cap)
    reruns = _reruns(monkeypatch, 19, T)
    assert _kernel(g, D, None, 19, 0, T, cap) == want
    # values a trial reads: its initial colors, then two per step
    longest = max(s for i, (s, *_) in enumerate(want) if i not in reruns)
    assert g.n + 2 * longest > 4 * g.n + 16
    assert len(reruns) <= T // lockstep.TAIL_SHARE
    # with no tail rule every trial, the longest too, finishes in the kernel
    reruns.clear()
    monkeypatch.setattr(lockstep, "TAIL_SHARE", T + 1)
    assert _kernel(g, D, None, 19, 0, T, cap) == want
    assert not reruns


def test_the_longest_trials_of_a_pass_rerun_from_the_start(monkeypatch):
    g, D, T = gen_clique(8), 8, 1000
    cap = default_step_cap(g.n, D)
    want = [s for s, *_ in _scalar(g, D, None, 23, 0, T, cap)]
    reruns = _reruns(monkeypatch, 23, T)
    assert [s for s, *_ in _kernel(g, D, None, 23, 0, T, cap)] == want
    assert 0 < len(reruns) <= T // lockstep.TAIL_SHARE
    assert min(want[i] for i in reruns) > max(s for i, s in enumerate(want) if i not in reruns)


def test_rejected_values_leave_the_kernel(monkeypatch):
    # with D = 2^52 + 1 about half of all values are rejected; the trials
    # that rerun in run_decentralized must be exactly those that meet a
    # rejected value among the values they read (with the tail rule off)
    g, D, T, cap = gen_clique(2), 2**52 + 1, 200, 100
    lim = 2**53 - 2**53 % D
    reruns = _reruns(monkeypatch, 5, T)
    monkeypatch.setattr(lockstep, "TAIL_SHARE", T + 1)
    for start in (Coloring([1, 1], D), None):
        want = _scalar(g, D, start, 5, 0, T, cap)
        reruns.clear()
        assert _kernel(g, D, start, 5, 0, T, cap) == want
        rejected = set()
        for i, (steps, *_) in enumerate(want):
            # the random initial colors, then per step a pick value (never
            # rejected) and a color value; the values agree with the scalar
            # run's up to the first rejection
            head = g.n if start is None else 0
            values = trial_rng(5, i).random(head + 2 * steps) * 2.0**53
            if (values[:head] >= lim).any() or (values[head + 1 :: 2] >= lim).any():
                rejected.add(i)
        assert 0 < len(rejected) < T
        assert sorted(reruns) == sorted(rejected)


def test_ranges_longer_than_one_lockstep_pass(monkeypatch):
    g = gen_clique(4)
    monkeypatch.setattr(lockstep, "PASS_ENTRIES", 7 * (g.n + 1))
    assert _kernel(g, 4, None, 3, 5, 30, 100) == _scalar(g, 4, None, 3, 5, 30, 100)


def _outputs(tmp_path, name, cfg):
    paths = write_outputs(run_trials(cfg), str(tmp_path / name))
    return {p.rsplit("/", 1)[-1].split(".", 1)[1]: open(p, "rb").read() for p in paths}


@pytest.mark.parametrize(
    "spec",
    [
        dict(graph={"kind": "clique", "n": 6}, D=6),
        dict(graph={"kind": "cycle", "n": 8}, D=3, start={"kind": "mono", "color": 1}),
        dict(graph={"kind": "clique", "n": 4}, D=3, step_cap=4),
        # a policy order: no kernel, scalar passes only
        dict(graph={"kind": "erdos", "n": 12, "p": 0.3, "seed": 7}, order="min-drift"),
        # the largest graphs the one-draw kernel takes; pooled, the 188-trial
        # range after the first 512 runs scalar
        dict(graph={"kind": "clique", "n": 64}, D=64),
        dict(graph={"kind": "erdos", "n": 64, "p": 0.15, "seed": 6415}),
    ],
)
def test_run_trials_does_not_depend_on_the_engine(monkeypatch, tmp_path, spec):
    routed = _counting(monkeypatch, "run_pass")
    base = dict(trials=700, master_seed=41, per_trial=True,
                counters=("total_draws", "step3_draws", "per_vertex"), **spec)
    kernel = _outputs(tmp_path, "kernel", ExperimentConfig(**base, workers=1))
    assert bool(routed) == ("order" not in spec)
    pooled = _outputs(tmp_path, "pooled", ExperimentConfig(**base, workers=2))
    monkeypatch.setattr(lockstep, "fits", lambda g, D, persistent: False)
    scalar = _outputs(tmp_path, "scalar", ExperimentConfig(**base, workers=1))
    # passes of at most 50 // (n + 1) trials split the range
    monkeypatch.setattr(lockstep, "PASS_ENTRIES", 50)
    split = _outputs(tmp_path, "split", ExperimentConfig(**base, workers=1))
    assert kernel == scalar == split
    assert {k: v for k, v in pooled.items() if k != "json"} == {
        k: v for k, v in scalar.items() if k != "json"
    }


@pytest.mark.parametrize("trials", [1, "below", "at"])
def test_one_draw_ranges_shorter_than_the_minimum_run_scalar(monkeypatch, tmp_path, trials):
    trials = {"below": lockstep.MIN_RANGE - 1, "at": lockstep.MIN_RANGE}.get(trials, trials)
    routed = _counting(monkeypatch, "run_pass")
    base = dict(graph={"kind": "clique", "n": 32}, D=32, trials=trials, master_seed=17,
                per_trial=True, counters=("total_draws", "step3_draws", "per_vertex"), workers=1)
    got = _outputs(tmp_path, "got", ExperimentConfig(**base))
    assert len(routed) == (trials >= lockstep.MIN_RANGE)
    monkeypatch.setattr(lockstep, "fits", lambda g, D, persistent: False)
    assert got == _outputs(tmp_path, "scalar", ExperimentConfig(**base))


def _traced_peak(cfg):
    tracemalloc.start()
    try:
        run_trials(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_runs_hold_one_pass_in_memory():
    # C64 persistent: 1039-trial passes, each with a 532 KB per-vertex array;
    # both runs fill a whole pass, and memory for the whole range would grow
    # by 2 MB from 1100 to 5100 trials
    def cfg(trials):
        return ExperimentConfig(graph={"kind": "cycle", "n": 64}, algorithm="persistent", D=3,
                                trials=trials, workers=1)

    run_trials(cfg(50))
    few, many = _traced_peak(cfg(1100)), _traced_peak(cfg(5100))
    assert many - few < 1_000_000


def test_a_bad_fixed_start_fails_as_in_the_scalar_engine():
    cfg = ExperimentConfig(graph={"kind": "clique", "n": 4}, D=4, trials=50, workers=1,
                           start={"kind": "fixed", "colors": [1, 1, 2]})
    with pytest.raises(ValueError, match="fixed start has 3 colors for n=4"):
        run_trials(cfg)


@pytest.mark.parametrize(
    "g, D, persistent, expected",
    [
        # one-draw: the graph size alone
        pytest.param(gen_clique(8), 8, False, True, id="dc-K8"),
        pytest.param(gen_cycle(16), 3, False, True, id="dc-C16"),
        pytest.param(gen_clique(32), 32, False, True, id="dc-K32"),
        pytest.param(gen_cycle(33), 3, False, True, id="dc-C33"),
        pytest.param(gen_clique(64), 64, False, True, id="dc-K64"),
        pytest.param(gen_cycle(65), 3, False, False, id="dc-C65"),
        pytest.param(gen_clique(65), 65, False, False, id="dc-K65"),
        pytest.param(gen_cycle(1000), 3, False, False, id="dc-C1000"),
        # persistent: the graph size and the palette
        pytest.param(gen_cycle(4), 2, True, True, id="persistent-C4-D2"),
        pytest.param(gen_cycle(512), 3, True, True, id="persistent-C512-D3"),
        pytest.param(gen_cycle(513), 3, True, False, id="persistent-C513-D3"),
        pytest.param(gen_clique(64), 63, True, True, id="persistent-K64-D63"),
        pytest.param(gen_clique(64), 64, True, False, id="persistent-K64-D64"),
    ],
)
def test_routing(g, D, persistent, expected):
    assert lockstep.fits(g, D, persistent) is expected


# ---------------------------------------------------------------------------
# the persistent kernel


def _scalar_persistent(g, D, start, seed, lo, hi, cap):
    rows = []
    for i in range(lo, hi):
        r = run_persistent(g, D, start, UNIFORM_ORDER, trial_rng(seed, i), step_cap=cap)
        rows.append((r.step3_draws, r.selections, r.terminated, r.per_vertex_draws))
    return rows


def _persistent_kernel(g, D, start, seed, lo, hi, cap):
    return _kernel(g, D, start, seed, lo, hi, cap, persistent=True)


@st.composite
def persistent_ranges(draw):
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = from_edge_list(n, edges)
    # mostly palettes with a free color at every vertex, some without
    D = draw(st.one_of(st.integers(g.max_degree + 1, 63), st.integers(1, g.max_degree + 1)))
    kind = draw(st.sampled_from(["random", "fixed", "mono"]))
    if kind == "random":
        start = None
    elif kind == "mono":
        start = Coloring([draw(st.integers(1, D))] * n, D)
    else:
        start = Coloring(draw(st.lists(st.integers(1, D), min_size=n, max_size=n)), D)
    cap = draw(st.sampled_from([0, 1, 2, 5, 12, default_step_cap(n, D)]))
    block = draw(st.sampled_from([1, 2, 3, 5, 8, 40, None]))
    lo = draw(st.integers(0, 2**40))
    return g, D, start, cap, block, draw(st.integers(0, 2**64 - 1)), lo, lo + draw(st.integers(1, 40))


@given(persistent_ranges())
@settings(max_examples=150, deadline=None)
def test_persistent_kernel_equals_the_scalar_engine_trial_by_trial(case):
    g, D, start, cap, block, seed, lo, hi = case
    want = _scalar_persistent(g, D, start, seed, lo, hi, cap)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:  # a short block makes trials refill their rows
            mp.setattr(lockstep, "walk_block", lambda T: block)
        assert _persistent_kernel(g, D, start, seed, lo, hi, cap) == want


@pytest.mark.parametrize(
    "spec, D, start, trials",
    [
        # AC-3's graph: 1039-trial passes, rows up to the max degree wide
        ({"kind": "erdos", "n": 64, "p": 0.15, "seed": 6415}, None, "random", 300),
        ({"kind": "erdos", "n": 64, "p": 0.15, "seed": 6415}, 63, "random", 300),
        ({"kind": "badbip", "delta": 32}, None, "construction", 300),
        # vertices past 255 take 2-byte permutation entries
        ({"kind": "cycle", "n": 300}, 3, "random", 100),
    ],
)
def test_persistent_kernel_equals_the_scalar_engine_on_larger_graphs(spec, D, start, trials):
    g, bundled = build_graph(spec)
    D = D or g.max_degree + 1
    policy = build_start(start, g, D, bundled)
    cap = default_step_cap(g.n, D)
    assert lockstep.fits(g, D, persistent=True)
    assert _persistent_kernel(g, D, policy, 21, 0, trials, cap) == _scalar_persistent(
        g, D, policy, 21, 0, trials, cap)


@pytest.mark.parametrize("block", [3, 64])
def test_rejected_values_rerun_their_trials(monkeypatch, block):
    # the kernel alone gets a lower rejection limit, so about one value in
    # 256 counts as rejected; the trials that rerun in run_persistent must be
    # exactly those with such a value among the values the kernel filled for
    # them (with blocks of 3 walk values, most trials refill)
    g, D, T = gen_clique(5), 6, 200
    two53 = 2**53 - 2**45
    want = _scalar_persistent(g, D, None, 9, 0, T, 10**6)
    fills = _counting(monkeypatch, "_values")
    reruns = []
    real = experiments.run_persistent
    monkeypatch.setattr(experiments, "run_persistent", lambda g, D, start, order, rng, **kw: reruns.append(
        rng.bit_generator.state["state"]["state"]) or real(g, D, start, order, rng, **kw))
    monkeypatch.setattr(lockstep, "walk_block", lambda T: block)
    monkeypatch.setattr(lockstep, "_TWO53", two53)
    assert _persistent_kernel(g, D, None, 9, 0, T, 10**6) == want
    # the moduli of a stream's values: n colors, n - 1 Fisher-Yates values, then walk colors
    head = [D] * g.n + list(range(g.n, 1, -1))
    rejected = set()
    for master, trials, skips, width, _ in fills:
        for i, skip in zip(trials.tolist(), skips.tolist()):
            mods = (head + [D] * (skip + width))[skip : skip + width]
            values = trial_rng(master, i).random(skip + width)[skip:] * 2.0**53
            if any(j >= two53 - two53 % k for j, k in zip(values, mods)):
                rejected.add(i)
    assert 0 < len(rejected) < T and (block > 3 or len(fills) > 1)
    # a rerun's generator is the trial's, fresh: its state names the trial
    states = {trial_rng(9, i).bit_generator.state["state"]["state"]: i for i in range(T)}
    assert sorted(states[state] for state in reruns) == sorted(rejected)


def test_capped_trials_rerun_in_the_scalar_engine(monkeypatch):
    g, D = gen_clique(6), 6
    want = _scalar_persistent(g, D, None, 4, 0, 200, 6)
    capped = sum(not t for _, _, t, _ in want)
    reruns = _counting(monkeypatch, "run_persistent", experiments)
    assert _persistent_kernel(g, D, None, 4, 0, 200, 6) == want
    assert 0 < capped <= len(reruns) < 200


def test_a_vertex_with_no_free_color_reruns_its_trial(monkeypatch):
    # K4 with D = 3: a vertex whose three neighbors hold every color can
    # never clear, so its trial runs into the cap in the scalar engine
    g, D = gen_clique(4), 3
    cap = default_step_cap(g.n, D)
    want = _scalar_persistent(g, D, None, 8, 0, 200, cap)
    stuck = sum(not t for _, _, t, _ in want)
    reruns = _counting(monkeypatch, "run_persistent", experiments)
    assert _persistent_kernel(g, D, None, 8, 0, 200, cap) == want
    assert stuck > 0 and len(reruns) == stuck


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_trials_that_outgrow_their_first_fill_refill_their_rows(monkeypatch, block):
    g, D = gen_clique(8), 8
    start = Coloring([1] * 8, D)
    want = _scalar_persistent(g, D, start, 12, 0, 100, 10**6)
    fills = _counting(monkeypatch, "_values")
    reruns = _counting(monkeypatch, "run_persistent", experiments)
    monkeypatch.setattr(lockstep, "walk_block", lambda T: block)
    assert _persistent_kernel(g, D, start, 12, 0, 100, 10**6) == want
    assert len(fills) > 1 and not reruns


def test_persistent_ranges_longer_than_one_pass(monkeypatch):
    g = gen_clique(4)
    monkeypatch.setattr(lockstep, "PERSISTENT_PASS_ENTRIES", 7 * (g.n + 1))
    assert _persistent_kernel(g, 5, None, 3, 5, 40, 100) == _scalar_persistent(
        g, 5, None, 3, 5, 40, 100)


def test_the_persistent_kernel_rejects_palettes_above_63():
    with pytest.raises(ValueError, match="D <= 63"):
        lockstep.run_pass(gen_clique(4), 64, None, 1, 0, 100, True, np.random.default_rng(), None)


def test_run_pass_fills_the_callers_arrays():
    # with a cap of 6 on K6 some trials stop at the cap in the one-draw
    # kernel, and some persistent ones rerun
    g, D, a, T, cap = gen_clique(6), 6, 3, 40, 6
    for persistent, runner in ((False, run_decentralized), (True, run_persistent)):
        out = (np.zeros(T, dtype=np.int64), np.zeros(T, dtype=np.int64), np.ones(T, dtype=bool),
               np.zeros((T, g.n), dtype=np.int64))
        rerun = lockstep.run_pass(g, D, None, 5, a, cap, persistent, np.random.default_rng(), out)
        kept = sorted(set(range(T)) - set(rerun.tolist()))
        assert kept and (rerun.size > 0) == persistent
        for k in kept:
            r = runner(g, D, None, UNIFORM_ORDER, trial_rng(5, a + k), step_cap=cap)
            assert [arr[k].tolist() for arr in out] == [
                r.step3_draws, r.selections, r.terminated, r.per_vertex_draws]
        if not persistent:
            assert not out[2].all()  # capped trials finish in the kernel
            assert (out[1] == out[0]).all() and not np.shares_memory(out[0], out[1])


@pytest.mark.parametrize(
    "spec",
    [
        dict(graph={"kind": "clique", "n": 6}, D=6),
        dict(graph={"kind": "badbip", "delta": 4}, start="construction"),
        dict(graph={"kind": "cycle", "n": 8}, D=3, start={"kind": "mono", "color": 1}, step_cap=5),
    ],
)
def test_persistent_run_trials_does_not_depend_on_the_engine(monkeypatch, tmp_path, spec):
    routed = _counting(monkeypatch, "run_pass")
    base = dict(trials=700, master_seed=43, per_trial=True, algorithm="persistent",
                counters=("total_draws", "step3_draws", "per_vertex"), **spec)
    kernel = _outputs(tmp_path, "kernel", ExperimentConfig(**base, workers=1))
    assert routed
    pooled = _outputs(tmp_path, "pooled", ExperimentConfig(**base, workers=2))
    monkeypatch.setattr(lockstep, "fits", lambda g, D, persistent: False)
    scalar = _outputs(tmp_path, "scalar", ExperimentConfig(**base, workers=1))
    assert len(routed) == 1 and set(kernel) == {"csv", "json", "trials.csv", "vertices.csv"}
    assert kernel == scalar
    assert {k: v for k, v in pooled.items() if k != "json"} == {
        k: v for k, v in scalar.items() if k != "json"
    }
