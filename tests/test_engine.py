"""Run loop semantics: counting, termination, caps, and schedulers."""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decolor import engine
from decolor.adversary import (
    AdversaryStrategy,
    max_conflicted_pick,
    mimic_persistent_pick,
    min_phi_drift_pick,
    scripted_pick,
)
from decolor.coloring import Coloring, conflicted_vertices, is_proper
from decolor.engine import (
    AdversaryOrder,
    ConflictTracker,
    FixedPermutationOrder,
    UNIFORM_ORDER,
    default_step_cap,
    run_decentralized,
    run_persistent,
    trace_to_text,
)
from decolor.graphs import from_edge_list, gen_clique, gen_cycle, gen_erdos_renyi
from decolor.rng import trial_rng

RUNNERS = [run_decentralized, run_persistent]


@pytest.mark.parametrize("runner", RUNNERS)
def test_total_draws_counts_the_initial_coloring(runner):
    g = gen_clique(4)
    for start in (None, Coloring([1, 1, 2, 3], 4)):
        r = runner(g, 4, start, UNIFORM_ORDER, trial_rng(1, 0))
        assert r.total_draws == g.n + r.step3_draws
        assert r.terminated
        assert is_proper(g, r.final_coloring)


@pytest.mark.parametrize("runner", RUNNERS)
def test_proper_start_is_a_no_op(runner):
    g = gen_cycle(5)
    r = runner(g, 3, Coloring([1, 2, 1, 2, 3], 3), UNIFORM_ORDER, trial_rng(0, 0))
    assert r.step3_draws == 0
    assert r.selections == 0
    assert r.total_draws == 5


def test_one_draw_selections_equal_step3():
    g = gen_clique(6)
    r = run_decentralized(g, 6, None, UNIFORM_ORDER, trial_rng(3, 1))
    assert r.selections == r.step3_draws
    assert sum(r.per_vertex_draws) == r.step3_draws


def test_persistent_selects_each_vertex_at_most_once():
    g = gen_erdos_renyi(12, 0.4, 5)
    for i in range(20):
        r = run_persistent(g, g.max_degree + 1, None, UNIFORM_ORDER, trial_rng(9, i))
        assert r.selections <= g.n
        assert r.step3_draws >= r.selections  # every selection draws at least once
        assert sum(r.per_vertex_draws) == r.step3_draws


@pytest.mark.parametrize("runner", RUNNERS)
def test_step_cap_reports_instead_of_raising(runner):
    g = gen_clique(3)
    bad = Coloring([1, 1, 1], 3)
    r = runner(g, 3, bad, UNIFORM_ORDER, trial_rng(0, 0), step_cap=0)
    assert not r.terminated
    assert r.step3_draws == 0
    assert r.total_draws == 3
    assert not is_proper(g, r.final_coloring)


def test_cap_bounds_step3_draws():
    g = gen_clique(4)
    bad = Coloring([1, 1, 1, 1], 4)
    for cap in (1, 2, 5):
        r = run_decentralized(g, 4, bad, UNIFORM_ORDER, trial_rng(2, 0), step_cap=cap)
        assert r.step3_draws <= cap
        r = run_persistent(g, 4, bad, UNIFORM_ORDER, trial_rng(2, 0), step_cap=cap)
        assert r.step3_draws <= cap


def test_default_step_cap_formula():
    assert default_step_cap(10, 4) == 10 * 10 * 16


def test_fixed_permutation_takes_first_conflicted_in_order():
    g = from_edge_list(4, [(0, 1), (2, 3)])
    start = Coloring([1, 1, 2, 2], 3)
    sched = FixedPermutationOrder([2, 0, 3, 1])
    r = run_decentralized(g, 3, start, sched, trial_rng(4, 0), trace=True)
    assert r.trace[0][0] == 2  # vertex 2 precedes 0 in the permutation
    assert r.terminated


@pytest.mark.parametrize("runner", RUNNERS)
@pytest.mark.parametrize("order", [[1, 0], [1, 0, 2, 3, 4, 5, 6]])
def test_fixed_permutation_of_the_wrong_length_is_rejected(runner, order):
    # a valid permutation of 0..len-1, but not of the graph's 0..n-1
    with pytest.raises(ValueError, match=r"order must be a permutation of 0\.\.n-1"):
        runner(gen_cycle(5), 3, None, FixedPermutationOrder(order), trial_rng(1, 0))


@pytest.mark.parametrize("bad", [[1, 1, 2], "random"])
def test_a_start_that_is_neither_none_nor_a_coloring_is_a_type_error(bad):
    # the colors without their palette, or a start spec instead of its build
    from decolor import lockstep
    from decolor.oracle import exact_expected_recolorings_dc, exact_expected_recolorings_persistent

    g = gen_clique(3)
    out = (np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64), np.ones(4, dtype=bool),
           np.zeros((4, 3), dtype=np.int64))
    calls = [
        lambda: run_decentralized(g, 3, bad, UNIFORM_ORDER, trial_rng(0, 0)),
        lambda: run_persistent(g, 3, bad, UNIFORM_ORDER, trial_rng(0, 0)),
        lambda: lockstep.run_pass(g, 3, bad, 0, 0, 100, False, np.random.default_rng(), out),
        lambda: lockstep.run_pass(g, 3, bad, 0, 0, 100, True, np.random.default_rng(), out),
        lambda: exact_expected_recolorings_dc(g, 3, bad),
        lambda: exact_expected_recolorings_persistent(g, 3, bad),
    ]
    for call in calls:
        with pytest.raises(TypeError, match=re.escape(f"a start is a Coloring or None, not {bad!r}")):
            call()


@pytest.mark.parametrize("runner", RUNNERS)
def test_a_fixed_start_is_checked_against_the_graph_and_palette(runner):
    with pytest.raises(ValueError, match="fixed start has 2 colors for n=3"):
        runner(gen_clique(3), 3, Coloring([1, 2], 3), UNIFORM_ORDER, trial_rng(0, 0))
    with pytest.raises(ValueError, match="fixed start uses color 4 > D=3"):
        runner(gen_clique(3), 3, Coloring([1, 2, 4], 4), UNIFORM_ORDER, trial_rng(0, 0))


def test_scripted_scheduler_rejects_unconflicted_vertex():
    g = from_edge_list(3, [(0, 1)])
    start = Coloring([1, 1, 2], 3)
    sched = AdversaryOrder(AdversaryStrategy.Scripted, script=[2, 0])
    with pytest.raises(ValueError, match="not conflicted"):
        run_decentralized(g, 3, start, sched, trial_rng(0, 0))


def test_trace_does_not_change_draw_consumption():
    g = gen_clique(5)
    plain = run_decentralized(g, 5, None, UNIFORM_ORDER, trial_rng(11, 2))
    traced = run_decentralized(g, 5, None, UNIFORM_ORDER, trial_rng(11, 2), trace=True)
    assert plain.step3_draws == traced.step3_draws
    assert plain.final_coloring.colors == traced.final_coloring.colors
    assert sum(len(d) for _, d in traced.trace) == traced.step3_draws

    p = run_persistent(g, 5, None, UNIFORM_ORDER, trial_rng(11, 3))
    t = run_persistent(g, 5, None, UNIFORM_ORDER, trial_rng(11, 3), trace=True)
    assert p.step3_draws == t.step3_draws
    assert p.final_coloring.colors == t.final_coloring.colors


def test_trace_text_format():
    g = from_edge_list(2, [(0, 1)])
    r = run_persistent(g, 2, Coloring([1, 1], 2), UNIFORM_ORDER,
                       trial_rng(0, 0), trace=True)
    text = trace_to_text(r.trace)
    lines = text.strip().splitlines()
    assert len(lines) == 1
    step, vertex, *draws = lines[0].split()
    assert step == "1" and vertex in ("0", "1")
    assert draws[-1] == "2"  # the landing color must be the one free color


@pytest.mark.parametrize("runner", RUNNERS)
def test_identical_seeds_reproduce_runs(runner):
    g = gen_erdos_renyi(10, 0.3, 77)
    a = runner(g, g.max_degree + 1, None, UNIFORM_ORDER, trial_rng(5, 0))
    b = runner(g, g.max_degree + 1, None, UNIFORM_ORDER, trial_rng(5, 0))
    assert a.total_draws == b.total_draws
    assert a.final_coloring.colors == b.final_coloring.colors


@given(seed=st.integers(0, 10_000), n=st.integers(2, 10))
@settings(max_examples=60, deadline=None)
def test_runs_terminate_proper_with_enough_colors(seed, n):
    g = gen_erdos_renyi(n, 0.5, seed)
    D = g.max_degree + 1
    rng = trial_rng(seed, 0)
    r = run_decentralized(g, D, None, UNIFORM_ORDER, rng)
    assert r.terminated and is_proper(g, r.final_coloring)
    r = run_persistent(g, D, None, UNIFORM_ORDER, trial_rng(seed, 1))
    assert r.terminated and is_proper(g, r.final_coloring)
    assert all(c <= D for c in r.final_coloring.colors)


def test_adversary_orders_run_to_completion():
    g = gen_clique(4)
    start = Coloring([1, 1, 1, 1], 4)
    for sched in (
        AdversaryOrder(AdversaryStrategy.MinPhiDrift),
        AdversaryOrder(AdversaryStrategy.MaxConflicted),
        AdversaryOrder(AdversaryStrategy.MimicPersistent, mode="lowest"),
        AdversaryOrder(AdversaryStrategy.MimicPersistent, mode="uniform"),
    ):
        r = run_decentralized(g, 4, start, sched, trial_rng(8, 0))
        assert r.terminated and is_proper(g, r.final_coloring)


def _outcome(r):
    return r.trace, r.final_coloring.colors, r.per_vertex_draws, r.terminated


@pytest.mark.parametrize("runner", RUNNERS)
@pytest.mark.parametrize("order", ["uniform", "min-drift"])
def test_a_changed_start_or_another_graph_runs_as_a_fresh_start(runner, order):
    # a fixed start's tracker is built once per graph object and start object
    # and copied for later runs; a start recolored in place, or the same start
    # on a second graph, must not run on that copy
    sched = UNIFORM_ORDER if order == "uniform" else AdversaryOrder(AdversaryStrategy.MinPhiDrift)
    D = 3

    def run(g, start, fresh=False):
        start = Coloring(list(start.colors), D) if fresh else start  # a start no run has seen
        return _outcome(runner(g, D, start, sched, trial_rng(6, 0), trace=True))

    cycle, matching = gen_cycle(8), from_edge_list(8, [(v, v + 4) for v in range(4)])
    start = Coloring([1] * 8, D)
    first = run(cycle, start)
    start.colors[2] = 2
    assert run(cycle, start) == run(cycle, start, fresh=True) != first
    on_cycle = run(cycle, start)  # the run just before, on the same start
    assert run(matching, start) == run(matching, start, fresh=True) != on_cycle


def test_a_fixed_starts_tracker_is_built_once_per_graph_and_start(monkeypatch):
    builds = []

    class Counting(ConflictTracker):
        __slots__ = ()

        def __init__(self, g, colors):
            builds.append(g)
            super().__init__(g, colors)

    monkeypatch.setattr(engine, "ConflictTracker", Counting)
    g, start = gen_cycle(8), Coloring([1] * 8, 3)
    sched = AdversaryOrder(AdversaryStrategy.MinPhiDrift)
    runs = [_outcome(run_decentralized(g, 3, start, order, trial_rng(2, i), trace=True))
            for order in (UNIFORM_ORDER, sched) for i in range(4)]
    assert len(builds) == 1
    fresh = [_outcome(run_decentralized(g, 3, Coloring([1] * 8, 3), order, trial_rng(2, i), trace=True))
             for order in (UNIFORM_ORDER, sched) for i in range(4)]
    assert runs == fresh and len(builds) == 9
    run_decentralized(g, 3, None, UNIFORM_ORDER, trial_rng(2, 0))  # a random start builds its own
    assert len(builds) == 10


def _uniform_below(draw, k):
    """An exactly uniform value in [0, k) from the stream, by the engine
    module doc's rule: j mod k, rejecting j >= 2^53 - 2^53 mod k."""
    lim = 2**53 - 2**53 % k
    j = draw()
    while j >= lim:
        j = draw()
    return j % k


@st.composite
def clearing_walks(draw):
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = from_edge_list(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    D = draw(st.integers(g.max_degree + 1, g.max_degree + 3))
    if draw(st.booleans()):
        start = None
    else:
        colors = draw(st.lists(st.integers(1, min(2, D)), min_size=n, max_size=n))
        start = Coloring(colors, D)
    return g, D, start, draw(st.integers(0, 2**64 - 1))


@given(clearing_walks())
@settings(max_examples=150, deadline=None)
def test_persistent_walk_never_reconflicts_a_passed_vertex(walk):
    # with D >= max degree + 1 every redraw ends on a color no neighbor
    # holds, so a vertex the walk has passed or cleared stays clear; the
    # walk (and the lockstep kernel) can therefore test each position once
    g, D, start, seed = walk
    r = run_persistent(g, D, start, UNIFORM_ORDER, trial_rng(seed, 0), trace=True)
    draw = engine._stream(trial_rng(seed, 0), g.n)
    colors = engine._initial_colors(g, D, start, draw)
    perm = list(range(g.n))
    for k in range(g.n, 1, -1):
        j = _uniform_below(draw, k)
        perm[k - 1], perm[j] = perm[j], perm[k - 1]
    selections = iter(r.trace)
    for s, v in enumerate(perm):
        if any(colors[u] == colors[v] for u in g.adjacency[v]):
            u, draws = next(selections)
            assert u == v
            colors[v] = draws[-1]
        assert not any(colors[u] == colors[w] for w in perm[: s + 1] for u in g.adjacency[w])
    assert next(selections, None) is None
    assert r.terminated and colors == r.final_coloring.colors


class _UniformPolicy:
    """Uniform pick as a policy object, so `_run` sends it down the policy
    loop instead of the persistent permutation walk."""

    def pick(self, g, c, conflicted, counts, history, draw):
        return conflicted[draw() * len(conflicted) >> 53]


def _pooled_histograms(a, b, least=20):
    """Two histograms over the values of a and b, as (bins, 2) counts, with
    adjacent bins merged until each holds at least `least` trials in all."""
    ha, hb = Counter(a), Counter(b)
    rows = [[0, 0]]
    for x in sorted(ha.keys() | hb.keys()):
        if sum(rows[-1]) >= least:
            rows.append([0, 0])
        rows[-1][0] += ha[x]
        rows[-1][1] += hb[x]
    if len(rows) > 1 and sum(rows[-1]) < least:
        last = rows.pop()
        rows[-1] = [rows[-1][0] + last[0], rows[-1][1] + last[1]]
    return np.array(rows)


@pytest.mark.parametrize("label", ["K5-random", "badbip3-construction"])
def test_persistent_uniform_walk_matches_the_policy_loop_in_distribution(label):
    # the walk tests each position of one random permutation once; the
    # policy loop picks uniformly among the conflicted vertices after every
    # clear. Cleared vertices stay clear, so both give one distribution.
    from scipy.stats import chi2_contingency

    from decolor.adversary import bad_bipartite_start
    from decolor.oracle import exact_expected_recolorings_persistent

    if label == "K5-random":
        g, D, start = gen_clique(5), 5, None
    else:
        g, c = bad_bipartite_start(3)
        D, start = c.palette_size, c
    trials = 10_000
    walk = [run_persistent(g, D, start, UNIFORM_ORDER, trial_rng(21, t)).step3_draws
            for t in range(trials)]
    policy = [run_persistent(g, D, start, _UniformPolicy(), trial_rng(22, t)).step3_draws
              for t in range(trials)]
    assert chi2_contingency(_pooled_histograms(walk, policy)).pvalue > 1e-4
    exact = exact_expected_recolorings_persistent(g, D, start).as_float()
    for sample in (walk, policy):
        se = np.std(sample, ddof=1) / np.sqrt(trials)
        assert abs(np.mean(sample) - exact) <= 4 * se


@st.composite
def recolor_walks(draw):
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = from_edge_list(n, edges)
    D = draw(st.integers(1, g.max_degree + 2))  # includes D <= max_degree
    colors = draw(st.lists(st.integers(1, D), min_size=n, max_size=n))
    steps = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, D)), max_size=40))
    return g, D, colors, steps


@given(recolor_walks())
@settings(max_examples=200, deadline=None)
def test_conflict_tracker_matches_full_recomputation(walk):
    g, D, colors, steps = walk
    tracker = ConflictTracker(g, list(colors))

    def check():
        assert tracker.colors == colors
        for v in range(g.n):
            same = sum(1 for u in g.adjacency[v] if colors[u] == colors[v])
            assert tracker.counts[v] == same
        assert sorted(tracker.members) == conflicted_vertices(g, Coloring(colors, D))
        assert len(set(tracker.members)) == len(tracker.members)
        for v in range(g.n):
            i = tracker.pos[v]
            assert (tracker.members[i] == v) if i >= 0 else (v not in tracker.members)

    check()
    for v, x in steps:
        tracker.recolor(v, x)
        colors[v] = x
        check()


def _reference_run(g, D, start, pick, rng, persistent, cap=None):
    """The policy path spelled out: recompute the conflicted set at every
    step, hand the sorted list to a public picker, read the same stream,
    and stop once `cap` post-start draws are made (None: no cap)."""
    draw = engine._stream(rng, g.n)
    colors = [_uniform_below(draw, D) + 1 for _ in range(g.n)] if start is None else list(start)
    history, trace = [], []
    per_vertex = [0] * g.n
    step3 = 0
    for _ in range(10_000):
        c = Coloring(colors, D)
        conflicted = conflicted_vertices(g, c)
        if not conflicted or step3 == cap:
            return trace, colors, not conflicted, per_vertex
        v = pick(g, c, conflicted, history, draw)
        history.append(v)
        used = {colors[u] for u in g.adjacency[v]}
        draws = [_uniform_below(draw, D) + 1]
        while persistent and draws[-1] in used and step3 + len(draws) != cap:
            draws.append(_uniform_below(draw, D) + 1)
        step3 += len(draws)
        per_vertex[v] += len(draws)
        colors[v] = draws[-1]
        trace.append((v, draws))
    raise AssertionError("reference run did not finish")


@st.composite
def policy_runs(draw):
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = from_edge_list(n, edges)
    D = g.max_degree + draw(st.integers(1, 2))
    start = draw(st.sampled_from([None, [1] * n]))  # random or monochromatic
    order = draw(st.permutations(range(n)))
    cap = draw(st.one_of(st.none(), st.integers(0, 6)))  # None: the default cap
    return g, D, start, order, draw(st.integers(0, 2**32)), draw(st.booleans()), cap


@given(policy_runs())
@settings(max_examples=60, deadline=None)
def test_policy_path_matches_a_recomputing_reference(run):
    g, D, start, order, seed, persistent, cap = run
    mimic = AdversaryStrategy.MimicPersistent
    cases = {
        "min-drift": (AdversaryOrder(AdversaryStrategy.MinPhiDrift),
                      lambda g, c, C, h, d: min_phi_drift_pick(g, c, C)),
        "max-conflicted": (AdversaryOrder(AdversaryStrategy.MaxConflicted),
                           lambda g, c, C, h, d: max_conflicted_pick(g, c, C)),
        "mimic-uniform": (AdversaryOrder(mimic, mode="uniform"),
                          lambda g, c, C, h, d: mimic_persistent_pick(g, c, C, h, d, "uniform")),
        "mimic-lowest": (AdversaryOrder(mimic, mode="lowest"),
                         lambda g, c, C, h, d: mimic_persistent_pick(g, c, C, h, d, "lowest")),
        "perm": (FixedPermutationOrder(order),
                 lambda g, c, C, h, d: next(v for v in order if v in C)),
    }
    # a valid script: the vertices another policy picks from the same stream
    script = [v for v, _ in _reference_run(g, D, start, cases["max-conflicted"][1],
                                           trial_rng(seed, 0), persistent)[0]]
    cases["script"] = (AdversaryOrder(AdversaryStrategy.Scripted, script=script),
                       lambda g, c, C, h, d: scripted_pick(script, C, h))
    runner = run_persistent if persistent else run_decentralized
    fixed = None if start is None else Coloring(start, D)
    for name, (sched, pick) in cases.items():
        want_trace, want_colors, want_terminated, want_per_vertex = _reference_run(
            g, D, start, pick, trial_rng(seed, 0), persistent, cap)
        r = runner(g, D, fixed, sched, trial_rng(seed, 0), step_cap=cap, trace=True)
        assert r.trace == want_trace, name
        assert r.final_coloring.colors == want_colors, name
        assert r.terminated == want_terminated, name
        assert r.terminated or cap is not None, name
        assert r.selections == len(want_trace), name
        assert r.per_vertex_draws == want_per_vertex, name
        assert r.step3_draws == sum(want_per_vertex), name


def _mimic_cases():
    from decolor.adversary import bad_bipartite_start

    bip, construction = bad_bipartite_start(16)
    erdos = gen_erdos_renyi(12, 0.4, 5)
    # each cap stops some trials, and some of those mid-redraw
    return [(bip, 17, construction, 200), (erdos, erdos.max_degree + 1, None, 8)]


@pytest.mark.parametrize("mode", ["uniform", "lowest"])
@pytest.mark.parametrize("capped", [False, True])
def test_one_draw_mimic_runs_equal_persistent_mimic_runs(mode, capped):
    # a one-draw mimic run redraws until clear in one loop step; that is
    # exact only if it equals the persistent run, trial for trial
    sched = AdversaryOrder(AdversaryStrategy.MimicPersistent, mode=mode)
    for g, D, start, cap in _mimic_cases():
        cap = cap if capped else None
        mid_redraw = 0
        for t in range(40):
            dc = run_decentralized(g, D, start, sched, trial_rng(28, t), step_cap=cap, trace=True)
            p = run_persistent(g, D, start, sched, trial_rng(28, t), step_cap=cap, trace=True)
            assert (dc.step3_draws, dc.per_vertex_draws, dc.terminated, dc.final_coloring.colors) == (
                p.step3_draws, p.per_vertex_draws, p.terminated, p.final_coloring.colors)
            assert dc.selections == dc.step3_draws
            assert dc.trace == [(v, [x]) for v, draws in p.trace for x in draws]
            if not p.terminated:  # stopped mid-redraw iff its last vertex is still conflicted
                colors, (v, _) = p.final_coloring.colors, p.trace[-1]
                mid_redraw += any(colors[u] == colors[v] for u in g.adjacency[v])
        assert bool(mid_redraw) == capped


def test_a_one_draw_mimic_run_picks_once_per_selected_vertex(monkeypatch):
    from decolor import adversary

    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return mimic_persistent_pick(*args, **kwargs)

    # dispatch_pick reads the module attribute at call time
    monkeypatch.setattr(adversary, "mimic_persistent_pick", counting)
    g, D, start, _ = _mimic_cases()[0]
    sched = AdversaryOrder(AdversaryStrategy.MimicPersistent)
    r = run_decentralized(g, D, start, sched, trial_rng(5, 0), trace=True)
    runs = sum(1 for i, (v, _) in enumerate(r.trace) if i == 0 or r.trace[i - 1][0] != v)
    assert len(calls) == runs < r.step3_draws
