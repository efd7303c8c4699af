"""Exact oracles: closed forms, chain solves, and one-step drifts."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decolor import oracle
from decolor.adversary import AdversaryStrategy, bad_bipartite_start
from decolor.coloring import Coloring, conflicted_edge_count, conflicted_vertices
from decolor.engine import AdversaryOrder, FixedStart, RANDOM_START, UNIFORM_ORDER
from decolor.experiments import random_invalid_state
from decolor.graphs import (
    from_edge_list,
    gen_clique,
    gen_complete_bipartite,
    gen_cycle,
    gen_erdos_renyi,
    gen_fig2_like,
)
from decolor.oracle import (
    ExactValue,
    canonical_pattern,
    exact_expected_conflict_deltas,
    exact_expected_phi_delta,
    exact_expected_recolorings_dc,
    exact_expected_recolorings_persistent,
    expected_draws_to_collect,
    harmonic,
    verify_fig2_deltas,
)


def frac(p, q=1):
    return Fraction(p, q)


# ---------------------------------------------------------------------------
# closed forms


def test_harmonic_values():
    assert harmonic(0).value == 0
    assert harmonic(1).value == 1
    assert harmonic(3).value == frac(11, 6)
    assert 3 * harmonic(3).value == frac(11, 2)


def test_collect_draws():
    assert expected_draws_to_collect(7, 1).value == 1
    assert expected_draws_to_collect(4, 3).value == frac(13, 3)
    for n in (2, 5, 9):
        assert expected_draws_to_collect(n, n).value == n * harmonic(n).value
    with pytest.raises(ValueError):
        expected_draws_to_collect(3, 4)


@given(d=st.integers(1, 40), extra=st.integers(0, 40))
@settings(max_examples=60)
def test_collect_monotone_domination(d, extra):
    # collecting d+1 of D >= d+1 coupons never beats (d+1)H_d + 1
    D = d + 1 + extra
    assert expected_draws_to_collect(D, d + 1).value <= (d + 1) * harmonic(d).value + 1


def test_exact_value_formatting():
    assert str(ExactValue(frac(5, 2))) == "5/2 (≈ 2.5)"
    assert str(ExactValue(frac(4))) == "4 (≈ 4)"
    assert "certified" in str(ExactValue(frac(1, 3), error_bound=frac(1, 10**13)))


# ---------------------------------------------------------------------------
# one-draw chain oracle


def test_dc_single_edge_monochromatic():
    g = from_edge_list(2, [(0, 1)])
    v = exact_expected_recolorings_dc(g, 2, FixedStart(Coloring([1, 1], 2)))
    assert v.value == 2


def test_dc_clique_collect_identity():
    for n in (3, 4):
        got = exact_expected_recolorings_dc(gen_clique(n), n, RANDOM_START, UNIFORM_ORDER)
        assert got.value == n * harmonic(n).value - n


def test_dc_proper_start_is_zero():
    g = gen_cycle(4)
    v = exact_expected_recolorings_dc(g, 3, FixedStart(Coloring([1, 2, 1, 2], 3)))
    assert v.value == 0


def test_dc_state_guard():
    with pytest.raises(ValueError, match="guard"):
        exact_expected_recolorings_dc(gen_cycle(30), 3, RANDOM_START)


def test_dc_unreachable_absorption_is_an_error():
    # K3 has no proper 2-coloring, so the expectation diverges
    with pytest.raises(ValueError, match="infinite"):
        exact_expected_recolorings_dc(gen_clique(3), 2, FixedStart(Coloring([1, 1, 2], 2)))


@pytest.mark.parametrize(
    "g,D,start",
    [
        (from_edge_list(3, [(0, 1), (1, 2)]), 3, None),
        (gen_cycle(4), 3, [1, 1, 2, 2]),
        (gen_clique(3), 4, [2, 2, 2]),
    ],
)
def test_lumping_matches_raw_enumeration(g, D, start):
    """Color-relabeling quotient must not change the answer."""
    policy = RANDOM_START if start is None else FixedStart(Coloring(start, D))
    a = exact_expected_recolorings_dc(g, D, policy, lumped=True)
    b = exact_expected_recolorings_dc(g, D, policy, lumped=False)
    assert a.value == b.value


def test_iterative_solver_agrees_within_certificate():
    g = gen_cycle(6)
    start = FixedStart(Coloring([1] * 6, 3))
    exact = exact_expected_recolorings_dc(g, 3, start, method="exact")
    approx = exact_expected_recolorings_dc(g, 3, start, method="iterative")
    assert approx.method == "markov-certified"
    assert approx.error_bound <= Fraction(1, 10**12)
    assert abs(approx.value - exact.value) <= approx.error_bound


def test_iterative_needs_enough_colors():
    # C4 is 2-colorable, so the chain absorbs, but the certified bound
    # requires a palette beating the max degree
    g = gen_cycle(4)
    with pytest.raises(ValueError, match="iterative"):
        exact_expected_recolorings_dc(g, 2, FixedStart(Coloring([1, 1, 2, 2], 2)),
                                      method="iterative")


def _dense_reference(chain) -> dict:
    """Textbook dense Gaussian elimination of (I - Q) x = 1 over Fraction,
    row by row in chain order; the reference the sparse solve must match."""
    t = len(chain.transient)
    col_of = {i: r for r, i in enumerate(chain.transient)}
    a = [[Fraction(int(r == c)) for c in range(t)] for r in range(t)]
    b = [Fraction(1)] * t
    for r in range(t):
        for j, num in chain.row_entries[r]:
            c = col_of.get(j)
            if c is not None:
                a[r][c] -= Fraction(num, chain.row_den[r])
    for k in range(t):
        for i in range(k + 1, t):
            f = a[i][k] / a[k][k]
            if f:
                for j in range(k, t):
                    a[i][j] -= f * a[k][j]
                b[i] -= f * b[k]
    x = [Fraction(0)] * t
    for k in reversed(range(t)):
        x[k] = (b[k] - sum(a[k][j] * x[j] for j in range(k + 1, t))) / a[k][k]
    return {chain.transient[r]: x[r] for r in range(t)}


# (scheduler mode, lumped, largest n): the bounds keep every chain small
# enough for the dense reference
CHAIN_KINDS = [
    (None, True, 5),
    (None, False, 3),
    ("uniform", True, 4),
    ("uniform", False, 3),
    ("lowest", True, 5),
    ("lowest", False, 4),
]


@st.composite
def small_chains(draw):
    mode, lumped, n_max = draw(st.sampled_from(CHAIN_KINDS))
    n = draw(st.integers(3, n_max))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=n - 1, unique=True))
    g = from_edge_list(n, edges)
    D = g.max_degree + 1
    if mode is None and lumped:
        keys = list(oracle._patterns(n, D))  # the random start
    else:
        colors = draw(st.lists(st.integers(1, D), min_size=n, max_size=n))
        u, v = edges[0]
        colors[v] = colors[u]  # a conflicted start, so the chain is not empty
        keys = [canonical_pattern(colors) if lumped else tuple(colors)]
    if mode is not None:
        keys = [(key, -1) for key in keys]
    chain = oracle._build_dc_chain(g, D, keys, mode, lumped)
    oracle._check_absorbing_reachable(chain)
    return chain


@given(chain=small_chains())
@settings(max_examples=40, deadline=None)
def test_sparse_solve_matches_dense_reference(chain):
    solution, nonzeros, fill = oracle._solve_exact(chain)
    assert solution == _dense_reference(chain)
    assert nonzeros >= len(chain.transient) and fill >= 0


@pytest.fixture(scope="module")
def permutable_chains():
    out = []
    for g, D, keys, mode in (
        (gen_cycle(5), 3, list(oracle._patterns(5, 3)), None),
        (gen_clique(4), 4, [((1, 1, 1, 1), -1)], "lowest"),
    ):
        chain = oracle._build_dc_chain(g, D, keys, mode, True)
        out.append((chain, oracle._solve_exact(chain)[0]))
    return out


@given(which=st.integers(0, 1), data=st.data())
@settings(max_examples=20, deadline=None)
def test_sparse_solve_does_not_depend_on_the_state_order(permutable_chains, which, data):
    chain, expected = permutable_chains[which]
    perm = data.draw(st.permutations(range(len(chain.transient))))
    shuffled = oracle._Chain(
        chain.states,
        chain.index,
        [chain.transient[p] for p in perm],
        [chain.row_den[p] for p in perm],
        [chain.row_entries[p] for p in perm],
    )
    assert oracle._solve_exact(shuffled)[0] == expected


def test_exact_method_reproduces_the_pinned_ac10_values():
    # the exact p/q of ac10/G(6,0.4) and ac10/K33 in perfbench/pinned.json
    g = gen_erdos_renyi(6, 0.4, 901)
    got = exact_expected_recolorings_dc(g, g.max_degree + 1, RANDOM_START, method="exact")
    assert got.value == Fraction(
        2528840209003859334898215489293518256378450964519985151338889025085881667294692082430055252988156339135300105584925119028415234305735315898128050419551,
        680841509924335632925697713776556611148128428540735277499367247972362589405839176329919423097785704888310024106864490243019609422185890575651452436480,
    )
    assert (got.method, got.error_bound) == ("markov-exact", 0)
    got = exact_expected_recolorings_dc(gen_complete_bipartite(3, 3), 4, RANDOM_START, method="exact")
    assert got.value == Fraction(285089405, 53142144)
    assert (got.method, got.error_bound) == ("markov-exact", 0)


def test_chain_diagnostics_do_not_change_the_value():
    g = gen_cycle(5)
    exact = exact_expected_recolorings_dc(g, 3, RANDOM_START, method="exact")
    assert exact.transient == 36 and exact.nonzeros > 36 and exact.fill >= 0
    assert exact.backend == oracle.RATIONAL_BACKEND
    certified = exact_expected_recolorings_dc(g, 3, RANDOM_START, method="iterative")
    assert certified.transient == 36 and certified.fill is None
    assert ExactValue(exact.value, method="markov-exact") == exact
    assert str(ExactValue(exact.value, method="markov-exact")) == str(exact)


def test_canonical_pattern_first_occurrence_relabeling():
    assert canonical_pattern([3, 3, 1, 2]) == (1, 1, 2, 3)
    assert canonical_pattern([2, 4, 2]) == (1, 2, 1)


# ---------------------------------------------------------------------------
# persistent oracle


def test_persistent_single_edge():
    g = from_edge_list(2, [(0, 1)])
    start = FixedStart(Coloring([1, 1], 2))
    assert exact_expected_recolorings_persistent(g, 2, start, "all").value == 2
    assert exact_expected_recolorings_persistent(g, 2, start, [0, 1]).value == 2
    assert exact_expected_recolorings_persistent(g, 2, start, [1, 0]).value == 2


@pytest.mark.parametrize("delta,expect", [(2, frac(9, 2)), (3, frac(22, 3))])
def test_persistent_bad_bipartite_exact(delta, expect):
    g, c = bad_bipartite_start(delta)
    got = exact_expected_recolorings_persistent(g, delta + 1, FixedStart(c), "all")
    assert got.value == expect


def test_persistent_proper_start_zero():
    g = gen_cycle(4)
    start = FixedStart(Coloring([1, 2, 1, 2], 3))
    assert exact_expected_recolorings_persistent(g, 3, start, "all").value == 0


def test_persistent_size_guard():
    with pytest.raises(ValueError, match="n <= 8"):
        exact_expected_recolorings_persistent(gen_cycle(9), 3, RANDOM_START, "all")


def test_persistent_all_orders_is_the_permutation_average():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    start = FixedStart(Coloring([1, 1, 2, 2], 3))
    averaged = exact_expected_recolorings_persistent(g, 3, start, "all").value
    total = Fraction(0)
    perms = list(itertools.permutations(range(4)))
    for pi in perms:
        total += exact_expected_recolorings_persistent(g, 3, start, list(pi)).value
    assert averaged == total / len(perms)


def test_mimic_adversary_reproduces_persistent():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    start = FixedStart(Coloring([1, 1, 2, 2], 3))
    lowest = AdversaryOrder(AdversaryStrategy.MimicPersistent, mode="lowest")
    via_dc = exact_expected_recolorings_dc(g, 3, start, lowest, method="exact")
    via_persistent = exact_expected_recolorings_persistent(g, 3, start, [0, 1, 2, 3])
    assert via_dc.value == via_persistent.value == frac(9, 2)


# ---------------------------------------------------------------------------
# one-step drifts


def test_phi_delta_monochromatic_edge():
    g = from_edge_list(2, [(0, 1)])
    c = Coloring([1, 1], 2)
    assert exact_expected_phi_delta(g, c, 0).value == frac(1, 2)


def test_phi_delta_requires_conflict():
    g = from_edge_list(2, [(0, 1)])
    with pytest.raises(ValueError, match="not conflicted"):
        exact_expected_phi_delta(g, Coloring([1, 2], 2), 0)


@pytest.mark.parametrize("v", [3, 7, -1])
def test_drifts_reject_out_of_range_vertices(v):
    g, c = gen_clique(3), Coloring([1, 1, 1], 4)
    for drift in (exact_expected_phi_delta, exact_expected_conflict_deltas, verify_fig2_deltas):
        with pytest.raises(ValueError, match="out of range"):
            drift(g, c, v)


def test_gadget_deltas():
    g, c, v = gen_fig2_like()
    phi, vertices, edges = exact_expected_conflict_deltas(g, c, v)
    assert phi.value == frac(1, 4)
    assert vertices.value == frac(1, 4)
    assert edges.value == frac(-1, 4)
    assert verify_fig2_deltas(g, c, v)


def test_monochromatic_triangle_edge_delta():
    g = gen_clique(3)
    c = Coloring([1, 1, 1], 3)
    _, _, edges = exact_expected_conflict_deltas(g, c, 0)
    assert edges.value == frac(-4, 3)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_conflict_deltas_carry_the_phi_delta(seed):
    g, c = random_invalid_state(np.random.default_rng(seed), 8, 5)
    for v in conflicted_vertices(g, c):
        assert exact_expected_conflict_deltas(g, c, v)[0] == exact_expected_phi_delta(g, c, v)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_conflicted_vertex_delta_matches_full_recomputation(seed):
    g, c = random_invalid_state(np.random.default_rng(seed), 9, 5)
    D = c.palette_size
    base = len(conflicted_vertices(g, c))
    base_edges = conflicted_edge_count(g, c)
    for v in conflicted_vertices(g, c):
        probe = c.copy()
        total = edges = 0
        for x in range(1, D + 1):
            probe.colors[v] = x
            total += len(conflicted_vertices(g, probe)) - base
            edges += conflicted_edge_count(g, probe) - base_edges
        deltas = exact_expected_conflict_deltas(g, c, v)
        assert deltas[1].value == frac(total, D)
        assert deltas[2].value == frac(edges, D)


def test_verify_rejects_non_gadget():
    g = gen_clique(3)
    assert not verify_fig2_deltas(g, Coloring([1, 1, 1], 4), 0)
    with pytest.raises(ValueError):
        verify_fig2_deltas(g, Coloring([1, 2, 3], 4), 0)


# exact values of both oracles, so that a change to the start distribution,
# the persistent recursion or the chain cannot move them: (persistent "all",
# persistent with order [n-1, 0, 1, ..., n-2], dc uniform, dc mimic:uniform,
# dc mimic:lowest) per start, random first
PINNED_ORACLE_VALUES = [
    ("C5", gen_cycle(5), 3, [1, 1, 1, 1, 1],
     ("25/6", "9/2", "469/120", "25/6", "9/2"),
     ("15/2", "21/2", "36/5", "15/2", "21/2")),
    ("K4", gen_clique(4), 4, [1, 1, 1, 1],
     ("13/3", "13/3", "13/3", "13/3", "13/3"),
     ("22/3", "22/3", "22/3", "22/3", "22/3")),
    ("path4", from_edge_list(4, [(0, 1), (1, 2), (2, 3)]), 3, [1, 1, 2, 2],
     ("13/6", "2", "633/322", "13/6", "5/2"),
     ("9/2", "3", "636/161", "9/2", "9/2")),
    ("badbip:3", bad_bipartite_start(3)[0], 4, list(bad_bipartite_start(3)[1].colors),
     ("21539/3840", "35/6", "285089405/53142144", "21539/3840", "41/8"),
     ("22/3", "12", "4804/759", "22/3", "12")),
]


@pytest.mark.parametrize("label,g,D,colors,random_values,fixed_values", PINNED_ORACLE_VALUES,
                         ids=[row[0] for row in PINNED_ORACLE_VALUES])
def test_oracle_values_are_pinned(label, g, D, colors, random_values, fixed_values):
    perm = [g.n - 1] + list(range(g.n - 1))
    scheds = [UNIFORM_ORDER] + [
        AdversaryOrder(AdversaryStrategy.MimicPersistent, mode=mode) for mode in ("uniform", "lowest")
    ]
    for start, values in ((RANDOM_START, random_values), (FixedStart(Coloring(colors, D)), fixed_values)):
        got = [exact_expected_recolorings_persistent(g, D, start, order).value for order in ("all", perm)]
        got += [exact_expected_recolorings_dc(g, D, start, s, method="exact").value for s in scheds]
        assert got == [Fraction(v) for v in values]
