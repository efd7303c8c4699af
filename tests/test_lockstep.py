"""The lockstep kernels give every trial exactly the scalar engine's result,
wherever they hand a trial back, and run_trials does not depend on the engine."""

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
    run_persistent,
)
from decolor.experiments import ExperimentConfig, build_graph, build_start, run_trials, write_outputs
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


# ---------------------------------------------------------------------------
# the persistent kernel


def _scalar_persistent(g, D, start, seed, lo, hi, cap):
    rows = []
    for i in range(lo, hi):
        r = run_persistent(g, D, start, UNIFORM_ORDER, trial_rng(seed, i), step_cap=cap)
        rows.append((r.step3_draws, r.selections, r.terminated, r.per_vertex_draws))
    return rows


def _persistent_kernel(g, D, start, seed, lo, hi, cap):
    return list(zip(*(a.tolist() for a in lockstep.run_persistent_range(g, D, start, seed, lo, hi, cap))))


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
        start = RANDOM_START
    elif kind == "mono":
        start = FixedStart(Coloring([draw(st.integers(1, D))] * n, D))
    else:
        start = FixedStart(Coloring(draw(st.lists(st.integers(1, D), min_size=n, max_size=n)), D))
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
    assert lockstep.persistent_fits(g, D)
    assert _persistent_kernel(g, D, policy, 21, 0, trials, cap) == _scalar_persistent(
        g, D, policy, 21, 0, trials, cap)


def _counting(monkeypatch, name):
    calls = []
    real = getattr(lockstep, name)
    monkeypatch.setattr(lockstep, name, lambda *a, **kw: calls.append(a) or real(*a, **kw))
    return calls


@pytest.mark.parametrize("block", [3, 64])
def test_rejected_values_rerun_their_trials(monkeypatch, block):
    # the kernel alone gets a lower rejection limit, so about one value in
    # 256 counts as rejected; the trials that rerun in run_persistent must be
    # exactly those with such a value among the values the kernel filled for
    # them (with blocks of 3 walk values, most trials refill)
    g, D, T = gen_clique(5), 6, 200
    two53 = 2**53 - 2**45
    want = _scalar_persistent(g, D, RANDOM_START, 9, 0, T, 10**6)
    fills = _counting(monkeypatch, "_values")
    reruns = []
    real = lockstep.run_persistent
    monkeypatch.setattr(lockstep, "run_persistent", lambda g, D, start, order, rng, **kw: reruns.append(
        rng.bit_generator.state["state"]["state"]) or real(g, D, start, order, rng, **kw))
    monkeypatch.setattr(lockstep, "walk_block", lambda T: block)
    monkeypatch.setattr(lockstep, "_TWO53", two53)
    assert _persistent_kernel(g, D, RANDOM_START, 9, 0, T, 10**6) == want
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
    want = _scalar_persistent(g, D, RANDOM_START, 4, 0, 200, 6)
    capped = sum(not t for _, _, t, _ in want)
    reruns = _counting(monkeypatch, "run_persistent")
    assert _persistent_kernel(g, D, RANDOM_START, 4, 0, 200, 6) == want
    assert 0 < capped <= len(reruns) < 200


def test_a_vertex_with_no_free_color_reruns_its_trial(monkeypatch):
    # K4 with D = 3: a vertex whose three neighbors hold every color can
    # never clear, so its trial runs into the cap in the scalar engine
    g, D = gen_clique(4), 3
    cap = default_step_cap(g.n, D)
    want = _scalar_persistent(g, D, RANDOM_START, 8, 0, 200, cap)
    stuck = sum(not t for _, _, t, _ in want)
    reruns = _counting(monkeypatch, "run_persistent")
    assert _persistent_kernel(g, D, RANDOM_START, 8, 0, 200, cap) == want
    assert stuck > 0 and len(reruns) == stuck


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_trials_that_outgrow_their_first_fill_refill_their_rows(monkeypatch, block):
    g, D = gen_clique(8), 8
    start = FixedStart(Coloring([1] * 8, D))
    want = _scalar_persistent(g, D, start, 12, 0, 100, 10**6)
    fills = _counting(monkeypatch, "_values")
    reruns = _counting(monkeypatch, "run_persistent")
    monkeypatch.setattr(lockstep, "walk_block", lambda T: block)
    assert _persistent_kernel(g, D, start, 12, 0, 100, 10**6) == want
    assert len(fills) > 1 and not reruns


def test_persistent_ranges_longer_than_one_pass(monkeypatch):
    g = gen_clique(4)
    monkeypatch.setattr(lockstep, "PERSISTENT_PASS_ENTRIES", 7 * (g.n + 1))
    assert _persistent_kernel(g, 5, RANDOM_START, 3, 5, 40, 100) == _scalar_persistent(
        g, 5, RANDOM_START, 3, 5, 40, 100)


def test_persistent_routing_and_the_palette_limit():
    assert lockstep.persistent_fits(gen_clique(64), 63) and lockstep.persistent_fits(gen_cycle(4), 2)
    assert not lockstep.persistent_fits(gen_clique(64), 64)
    assert lockstep.persistent_fits(gen_cycle(512), 3) and not lockstep.persistent_fits(gen_cycle(513), 3)
    with pytest.raises(ValueError, match="D <= 63"):
        lockstep.run_persistent_range(gen_clique(4), 64, RANDOM_START, 1, 0, 10, 100)


@pytest.mark.parametrize(
    "spec",
    [
        dict(graph={"kind": "clique", "n": 6}, D=6),
        dict(graph={"kind": "badbip", "delta": 4}, start="construction"),
        dict(graph={"kind": "cycle", "n": 8}, D=3, start={"kind": "mono", "color": 1}, step_cap=5),
    ],
)
def test_persistent_run_trials_does_not_depend_on_the_engine(monkeypatch, tmp_path, spec):
    routed = _counting(monkeypatch, "run_persistent_range")
    base = dict(trials=700, master_seed=43, per_trial=True, algorithm="persistent",
                counters=("total_draws", "step3_draws", "per_vertex"), **spec)
    kernel = _outputs(tmp_path, "kernel", ExperimentConfig(**base, workers=1))
    assert routed
    pooled = _outputs(tmp_path, "pooled", ExperimentConfig(**base, workers=2))
    monkeypatch.setattr(lockstep, "persistent_fits", lambda g, D: False)
    scalar = _outputs(tmp_path, "scalar", ExperimentConfig(**base, workers=1))
    assert len(routed) == 1 and set(kernel) == {"csv", "json", "trials.csv", "vertices.csv"}
    assert kernel == scalar
    assert {k: v for k, v in pooled.items() if k != "json"} == {
        k: v for k, v in scalar.items() if k != "json"
    }
