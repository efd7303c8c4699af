"""Adversary schedulers and the rigged bipartite start."""

from __future__ import annotations

import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decolor import adversary
from decolor.adversary import (
    AdversaryStrategy,
    DriftState,
    bad_bipartite_start,
    max_conflicted_pick,
    mimic_persistent_pick,
    min_phi_drift_pick,
    phi_drift_numerators,
    scripted_pick,
)
from decolor.coloring import Coloring, conflicted_vertices, is_conflicted, same_color_counts
from decolor.engine import (
    AdversaryOrder,
    run_decentralized,
    run_persistent,
)
from decolor.graphs import from_edge_list, gen_clique, gen_fig2_like
from decolor.oracle import exact_expected_phi_delta
from decolor.rng import trial_rng


def test_bad_bipartite_start_shape():
    g, c = bad_bipartite_start(3)
    assert g.n == 6
    assert g.max_degree == 3
    assert c.palette_size == 4
    assert c.colors == [1, 1, 1, 1, 2, 3]
    # every left vertex collides with the right vertex colored 1
    assert conflicted_vertices(g, c) == [0, 1, 2, 3]


def test_bad_bipartite_start_rejects_nonpositive_delta():
    with pytest.raises(ValueError):
        bad_bipartite_start(0)
    g, c = bad_bipartite_start(1)  # degenerate but legal: a single mono edge
    assert g.n == 2 and c.colors == [1, 1] and c.palette_size == 2


@st.composite
def invalid_states(draw):
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
    g = from_edge_list(n, edges)
    D = draw(st.integers(2, 5))
    colors = draw(st.lists(st.integers(1, D), min_size=n, max_size=n))
    u, v = edges[draw(st.integers(0, len(edges) - 1))]
    colors[v] = colors[u]  # force at least one conflict
    return g, Coloring(colors, D)


@given(invalid_states())
@settings(max_examples=100, deadline=None)
def test_drift_numerators_match_brute_force(state):
    """The articulation-count shortcut equals recomputing the potential D times."""
    g, c = state
    conflicted = conflicted_vertices(g, c)
    nums = phi_drift_numerators(g, c, conflicted)
    D = c.palette_size
    for v, num in zip(conflicted, nums):
        assert Fraction(num, D) == exact_expected_phi_delta(g, c, v).value


@given(invalid_states(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_min_phi_drift_is_the_brute_force_argmin_in_any_order(state, rnd):
    g, c = state
    conflicted = conflicted_vertices(g, c)
    drift = {v: exact_expected_phi_delta(g, c, v).value for v in conflicted}
    want = min(conflicted, key=lambda v: (drift[v], v))
    shuffled = rnd.sample(conflicted, len(conflicted))
    counts = same_color_counts(g, c.colors)
    assert min_phi_drift_pick(g, c, shuffled) == want
    assert min_phi_drift_pick(g, c, shuffled, counts) == want  # the engine's call


@given(invalid_states(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_picks_do_not_depend_on_list_order(state, rnd):
    g, c = state
    conflicted = conflicted_vertices(g, c)
    shuffled = rnd.sample(conflicted, len(conflicted))
    counts = same_color_counts(g, c.colors)
    most = max_conflicted_pick(g, c, conflicted)
    assert max_conflicted_pick(g, c, shuffled) == most
    assert max_conflicted_pick(g, c, shuffled, counts) == most
    lowest = mimic_persistent_pick(g, c, conflicted, [], None, "lowest")
    assert lowest == conflicted[0]
    assert mimic_persistent_pick(g, c, shuffled, [], None, "lowest", counts) == lowest
    for history in ([rnd.randrange(g.n)], [conflicted[-1]]):
        last = history[-1]
        want = last if is_conflicted(g, c, last) else lowest
        assert mimic_persistent_pick(g, c, shuffled, history, None, "lowest", counts) == want


@given(invalid_states(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_drift_numerators_of_a_subset_equal_the_full_set_values(state, rnd):
    g, c = state
    conflicted = conflicted_vertices(g, c)
    full = dict(zip(conflicted, phi_drift_numerators(g, c, conflicted)))
    subset = rnd.sample(conflicted, rnd.randint(1, len(conflicted)))
    assert phi_drift_numerators(g, c, subset) == [full[v] for v in subset]
    clear = [v for v in range(g.n) if v not in full]
    if clear:
        with pytest.raises(ValueError, match="not conflicted"):
            phi_drift_numerators(g, c, subset + [rnd.choice(clear)])


def test_min_phi_drift_breaks_ties_toward_low_ids():
    g = gen_clique(3)
    c = Coloring([1, 1, 1], 3)
    # symmetric state: every vertex has the same drift
    assert min_phi_drift_pick(g, c, [0, 1, 2]) == 0
    assert min_phi_drift_pick(g, c, [1, 2]) == 1


def test_min_phi_drift_prefers_the_gadget_focus():
    g, c, focus = gen_fig2_like()
    conflicted = conflicted_vertices(g, c)
    best = min_phi_drift_pick(g, c, conflicted)
    drifts = {v: exact_expected_phi_delta(g, c, v).value for v in conflicted}
    assert drifts[best] == min(drifts.values())


def test_max_conflicted_pick():
    g = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
    c = Coloring([1, 1, 1, 1], 4)
    # the hub has three same-colored neighbors, the leaves one each
    assert max_conflicted_pick(g, c, [0, 1, 2, 3]) == 0
    assert max_conflicted_pick(g, c, [1, 2, 3]) == 1


def test_mimic_sticks_until_cleared():
    g = gen_clique(3)
    c = Coloring([1, 1, 2], 3)
    rng = np.random.default_rng(0)
    assert mimic_persistent_pick(g, c, [0, 1], [1], rng, "lowest") == 1
    assert mimic_persistent_pick(g, c, [0, 1], [1], rng, "uniform") == 1
    with pytest.raises(ValueError, match="empty"):
        mimic_persistent_pick(g, c, [], [1], rng, "lowest")


def test_mimic_lowest_moves_to_next_conflicted():
    g = from_edge_list(4, [(0, 1), (2, 3)])
    c = Coloring([1, 2, 3, 3], 3)
    rng = np.random.default_rng(0)
    # history says 0 was worked on; it is clear now, so pick the lowest conflicted
    assert mimic_persistent_pick(g, c, [2, 3], [0, 0], rng, "lowest") == 2


def test_scripted_pick_follows_and_validates():
    assert scripted_pick([2, 0], [0, 2], []) == 2
    assert scripted_pick([2, 0], [0, 2], [2]) == 0
    with pytest.raises(ValueError, match="exhausted"):
        scripted_pick([2], [0, 2], [2])
    with pytest.raises(ValueError, match="not conflicted"):
        scripted_pick([1], [0, 2], [])


@st.composite
def drift_runs(draw):
    """A graph, a palette D from 1 to max degree + 3 and a list of runs of
    one min-drift order on it: (runner, start, step cap, seed)."""
    if draw(st.booleans()):
        g, c = bad_bipartite_start(draw(st.integers(1, 4)))
        construction = c.colors
    else:
        n = draw(st.integers(1, 12))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = from_edge_list(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
        construction = None
    D = draw(st.integers(max(construction or [1]), g.max_degree + 3))
    colors = draw(st.lists(st.integers(1, D), min_size=g.n, max_size=g.n))
    starts = [None, Coloring([1] * g.n, D), Coloring(colors, D)]
    if construction:
        starts.append(Coloring(construction, D))
    runs = st.tuples(st.sampled_from([run_decentralized, run_persistent]), st.sampled_from(starts),
                     st.sampled_from([0, 1, 5, None]), st.integers(0, 2**32))
    return g, D, draw(st.lists(runs, min_size=1, max_size=4))


@given(drift_runs())
@settings(max_examples=150, deadline=None)
def test_drift_state_matches_a_full_build_after_every_pick(case):
    # the engine's order keeps one DriftState across picks and runs; after
    # each pick its numerators must equal a fresh full build's
    g, D, runs = case
    order = AdversaryOrder(AdversaryStrategy.MinPhiDrift)
    picks = []

    def checked(g, c, conflicted, counts=None, state=None):
        v = min_phi_drift_pick(g, c, conflicted, counts, state)
        whole = sorted(conflicted)
        fresh = phi_drift_numerators(g, c, whole)
        assert [state.num[w] for w in whole] == fresh
        assert v == min(zip(fresh, whole))[1]
        picks.append(v)
        return v

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(adversary, "min_phi_drift_pick", checked)
        for runner, start, cap, seed in runs:
            runner(g, D, start, order, trial_rng(seed, 0), step_cap=cap)
    assert order.drift.graph is (g if picks else None)


def _state_after_one_pick(g, c):
    state = DriftState()
    counts = same_color_counts(g, c.colors)
    v = min_phi_drift_pick(g, c, conflicted_vertices(g, c), counts, state)
    return state, v


def _pick_with(state, g, colors, D):
    c = Coloring(colors, D)
    counts = same_color_counts(g, colors)
    conflicted = conflicted_vertices(g, c)
    got = min_phi_drift_pick(g, c, conflicted[::-1], counts, state)
    assert got == min_phi_drift_pick(g, c, conflicted)  # the full recompute
    assert [state.num[v] for v in conflicted] == phi_drift_numerators(g, c, conflicted)
    return got


@given(invalid_states(), st.data())
@settings(max_examples=150, deadline=None)
def test_drift_state_rebuilds_for_any_other_change(state, data):
    g, c = state
    D = c.palette_size
    drift, v = _state_after_one_pick(g, c)
    # a coloring that differs at a vertex other than the pick, and maybe at the pick too
    colors = list(c.colors)
    w = data.draw(st.sampled_from([u for u in range(g.n) if u != v]))
    colors[w] = data.draw(st.sampled_from([x for x in range(1, D + 1) if x != colors[w]]))
    if data.draw(st.booleans()):
        colors[v] = data.draw(st.integers(1, D))
    if conflicted_vertices(g, Coloring(colors, D)):
        _pick_with(drift, g, colors, D)
    # the same coloring on another graph object, and under another palette
    drift, _ = _state_after_one_pick(g, c)
    twin = from_edge_list(g.n, g.edges()[1:])
    if conflicted_vertices(twin, c):
        _pick_with(drift, twin, c.colors, D)
    drift, _ = _state_after_one_pick(g, c)
    _pick_with(drift, g, c.colors, D + data.draw(st.integers(1, 3)))


def test_drift_state_sees_a_recolor_of_a_vertex_it_did_not_pick():
    # on the path 0-1-2, all one color and D = 3, the leaf 0 is picked; if
    # vertex 2 recolors instead, 0 and 1 form a pair and 1, next to the
    # other-colored 2, has the lower numerator
    g = from_edge_list(3, [(0, 1), (1, 2)])
    drift, v = _state_after_one_pick(g, Coloring([2, 2, 2], 3))
    assert v == 0
    assert _pick_with(drift, g, [2, 2, 1], 3) == 1


def test_an_unpickled_drift_state_is_empty():
    g, c = bad_bipartite_start(3)
    drift, _ = _state_after_one_pick(g, c)
    assert drift.graph is g
    copy = pickle.loads(pickle.dumps(AdversaryOrder(AdversaryStrategy.MinPhiDrift)))
    assert copy.drift.graph is None
    assert pickle.loads(pickle.dumps(drift)).graph is None
