"""Exact oracles: closed forms, chain solves, and one-step drifts."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decolor import acceptance, oracle
from decolor.adversary import AdversaryStrategy, bad_bipartite_start
from decolor.coloring import Coloring, conflicted_edge_count, conflicted_vertices
from decolor.engine import (
    AdversaryOrder,
    FixedPermutationOrder,
    UNIFORM_ORDER,
    run_decentralized,
    run_persistent,
)
from decolor.experiments import ExperimentConfig, _build, random_invalid_state
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
from decolor.rng import trial_rng


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
    v = exact_expected_recolorings_dc(g, 2, Coloring([1, 1], 2))
    assert v.value == 2


def test_dc_clique_collect_identity():
    for n in (3, 4):
        got = exact_expected_recolorings_dc(gen_clique(n), n, None, UNIFORM_ORDER)
        assert got.value == n * harmonic(n).value - n


def test_dc_proper_start_is_zero():
    g = gen_cycle(4)
    v = exact_expected_recolorings_dc(g, 3, Coloring([1, 2, 1, 2], 3))
    assert v.value == 0


def test_dc_state_guard():
    # a random start is refused before enumeration, with its pattern count
    # sum over k <= 3 of S(30, k)
    message = "has 34315188682442 colorings up to renaming, over the state budget of 300000"
    with pytest.raises(ValueError, match=message):
        exact_expected_recolorings_dc(gen_cycle(30), 3, None)
    with pytest.raises(ValueError, match=message):
        exact_expected_recolorings_persistent(gen_cycle(30), 3, None)


def test_state_budget_admits_every_random_start_of_the_old_raw_coloring_limit():
    # the largest random start with D >= 3 and D^n <= 2 * 10^6 is n = 13, D = 3
    assert oracle._pattern_count(13, 3) == 265721 <= oracle.STATE_BUDGET
    assert oracle._pattern_count(10, 4) == 43947
    assert oracle._pattern_count(19, 2) <= oracle.STATE_BUDGET < oracle._pattern_count(20, 2)
    for n in range(1, 8):
        for D in range(1, 9):
            assert oracle._pattern_count(n, D) == len(list(oracle._patterns(n, D)))


def test_dc_unreachable_absorption_is_an_error():
    # K3 has no proper 2-coloring, so the expectation diverges
    with pytest.raises(ValueError, match="infinite"):
        exact_expected_recolorings_dc(gen_clique(3), 2, Coloring([1, 1, 2], 2))


def test_iterative_solver_agrees_within_certificate():
    g = gen_cycle(6)
    start = Coloring([1] * 6, 3)
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
        exact_expected_recolorings_dc(g, 2, Coloring([1, 1, 2, 2], 2),
                                      method="iterative")


def _dense_reference(rows) -> list:
    """Textbook dense Gaussian elimination of (I - Q) x = 1 over Fraction,
    row by row in chain order; the reference the sparse solve must match."""
    t = len(rows)
    a = [[Fraction(int(r == c)) for c in range(t)] for r in range(t)]
    b = [Fraction(1)] * t
    for r, (den, entries) in enumerate(rows):
        for c, num in entries:
            a[r][c] -= Fraction(num, den)
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
    return x


def _raw_chain(g, D, start_keys, position=None):
    """Breadth-first enumeration of the uniform-order one-draw chain over raw
    color tuples, with no lumping: each conflicted vertex, then each of the D
    colors, weighs 1. With a fixed order's position, only the conflicted
    vertex earliest in it is picked. Returns (index, rows) in the package's
    form: index maps each state to its row, or to None when it is proper.
    The reference the package's lumped chain must match."""
    index: dict = {}
    queue: list = []

    def intern(key):
        if key not in index:
            conflicted = [v for v in range(g.n) if any(key[u] == key[v] for u in g.adjacency[v])]
            if position is not None and conflicted:
                conflicted = [min(conflicted, key=position.__getitem__)]
            index[key] = len(queue) if conflicted else None
            if conflicted:
                queue.append((key, conflicted))
        return index[key]

    for key in start_keys:
        intern(key)
    rows = []
    while len(rows) < len(queue):
        colors, conflicted = queue[len(rows)]
        acc: dict = {}
        for v in conflicted:
            for x in range(1, D + 1):
                j = intern(colors[:v] + (x,) + colors[v + 1:])
                if j is not None:
                    acc[j] = acc.get(j, 0) + 1
        rows.append((len(conflicted) * D, sorted(acc.items())))
    return index, rows


@pytest.mark.parametrize(
    "g,D,start,order",
    [
        (from_edge_list(3, [(0, 1), (1, 2)]), 3, None, None),
        (gen_cycle(4), 3, [1, 1, 2, 2], None),
        (gen_clique(3), 4, [2, 2, 2], None),
        (from_edge_list(3, [(0, 1), (1, 2)]), 3, None, [2, 0, 1]),
        (gen_cycle(4), 3, [1, 1, 2, 2], [3, 1, 0, 2]),
    ],
    ids=["path3-random", "C4-fixed", "K3-D4-mono", "path3-random-perm", "C4-fixed-perm"],
)
def test_lumping_matches_raw_enumeration(g, D, start, order):
    """Color-relabeling quotient must not change the answer, under uniform
    order or a fixed one."""
    policy = None if start is None else Coloring(start, D)
    keys = list(itertools.product(range(1, D + 1), repeat=g.n)) if start is None else [tuple(start)]
    position = None if order is None else FixedPermutationOrder(order).position
    index, rows = _raw_chain(g, D, keys, position)
    solution = _dense_reference(rows)
    raw = sum(solution[index[key]] for key in keys if index[key] is not None) / len(keys)
    assert exact_expected_recolorings_dc(g, D, policy, order).value == raw


# (scheduler mode, lumped, largest n): the bounds keep every chain small
# enough for the dense reference; the raw chain is the test's own
CHAIN_KINDS = [
    (None, True, 5),
    (None, False, 3),
    ("uniform", True, 4),
    ("lowest", True, 5),
]


@st.composite
def small_chains(draw, any_palette=False):
    """The rows of a small chain, with D = max degree + 1 and a random start
    for the lumped uniform kind. With any_palette, D is any of 1..max degree
    + 1 and every kind is lumped and starts from a conflicted fixed coloring,
    so the chain may never reach a proper coloring."""
    kinds = [kind for kind in CHAIN_KINDS if kind[1]] if any_palette else CHAIN_KINDS
    mode, lumped, n_max = draw(st.sampled_from(kinds))
    n = draw(st.integers(3, n_max))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=n - 1, unique=True))
    g = from_edge_list(n, edges)
    D = draw(st.integers(1, g.max_degree + 1)) if any_palette else g.max_degree + 1
    if mode is None and lumped and not any_palette:
        start = None
    else:
        colors = draw(st.lists(st.integers(1, D), min_size=n, max_size=n))
        u, v = edges[0]
        colors[v] = colors[u]  # a conflicted start, so the chain is not empty
        start = Coloring(colors, D)
    if not lumped:
        return _raw_chain(g, D, [tuple(colors)])[1]
    sched = UNIFORM_ORDER if mode is None else AdversaryOrder(AdversaryStrategy.MimicPersistent, mode=mode)
    return oracle._build_dc_chain(g, D, start, sched)[2]


@given(rows=small_chains())
@settings(max_examples=40, deadline=None)
def test_sparse_solve_matches_dense_reference(rows):
    solution, nonzeros, fill = oracle._solve_exact(rows)
    assert solution == _dense_reference(rows)
    assert nonzeros >= len(rows) and fill >= 0


@given(rows=small_chains(any_palette=True))
@settings(max_examples=100, deadline=None)
def test_sparse_solve_calls_a_singular_chain_infinite(rows):
    # I - Q is singular exactly when some state cannot reach a proper
    # coloring; the dense reference then meets a zero pivot
    try:
        expected = _dense_reference(rows)
    except ZeroDivisionError:
        with pytest.raises(ValueError, match="infinite"):
            oracle._solve_exact(rows)
    else:
        assert oracle._solve_exact(rows)[0] == expected


def _certified_reference(rows, m_bound, tol):
    """Float LU solve plus iterative refinement with exact Fraction
    residuals, the iterate a list of Fraction; the reference the certified
    solve's integer arithmetic must match bit for bit. Returns (x, bound)."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    t = len(rows)
    rows_idx, cols_idx, vals = [], [], []
    for r, (den, entries) in enumerate(rows):
        rows_idx += [r] * (len(entries) + 1)
        cols_idx += [r, *(c for c, _ in entries)]
        vals += [1.0, *(-num / den for _, num in entries)]
    lu = spla.splu(sp.csc_matrix(
        (np.array(vals), (np.array(rows_idx), np.array(cols_idx))), shape=(t, t)))
    x = [Fraction(float(v)) for v in lu.solve(np.ones(t))]
    for _ in range(50):
        residual = []
        for r, (den, entries) in enumerate(rows):
            acc = den - den * x[r]
            for c, num in entries:
                acc += num * x[c]
            residual.append(acc / den)
        bound = m_bound * max(abs(rv) for rv in residual)
        if bound <= tol:
            return x, bound
        dx = lu.solve(np.array([float(rv) for rv in residual]))
        x = [xi + Fraction(float(d)) for xi, d in zip(x, dx)]
    raise RuntimeError("iterative refinement failed to certify the requested tolerance")


@given(rows=small_chains())
@settings(max_examples=40, deadline=None)
def test_certified_solve_matches_its_rational_reference(rows):
    # the largest expected remaining draws, rounded up, is a valid m_bound
    m_bound = math.ceil(max(oracle._solve_exact(rows)[0]))
    x, bound, rounds, max_residual = oracle._solve_certified(rows, m_bound, oracle.CERTIFIED_TOL)
    assert (x, bound) == _certified_reference(rows, m_bound, oracle.CERTIFIED_TOL)
    assert bound == m_bound * max_residual and 0 <= rounds < 50


@pytest.fixture(scope="module")
def permutable_chains():
    out = []
    for g, D, start, sched in (
        (gen_cycle(5), 3, None, UNIFORM_ORDER),
        (gen_clique(4), 4, Coloring([1, 1, 1, 1], 4),
         AdversaryOrder(AdversaryStrategy.MimicPersistent, mode="lowest")),
    ):
        rows = oracle._build_dc_chain(g, D, start, sched)[2]
        out.append((rows, oracle._solve_exact(rows)[0]))
    return out


@given(which=st.integers(0, 1), data=st.data())
@settings(max_examples=20, deadline=None)
def test_sparse_solve_does_not_depend_on_the_state_order(permutable_chains, which, data):
    rows, expected = permutable_chains[which]
    perm = data.draw(st.permutations(range(len(rows))))
    new_of = {p: r for r, p in enumerate(perm)}  # old row -> new row
    shuffled = [(den, [(new_of[c], num) for c, num in entries])
                for den, entries in (rows[p] for p in perm)]
    assert oracle._solve_exact(shuffled)[0] == [expected[p] for p in perm]


def test_exact_method_reproduces_the_pinned_ac10_values():
    # the exact p/q of ac10/G(6,0.4) and ac10/K33 in perfbench/pinned.json
    g = gen_erdos_renyi(6, 0.4, 901)
    got = exact_expected_recolorings_dc(g, g.max_degree + 1, None, method="exact")
    assert got.value == Fraction(
        2528840209003859334898215489293518256378450964519985151338889025085881667294692082430055252988156339135300105584925119028415234305735315898128050419551,
        680841509924335632925697713776556611148128428540735277499367247972362589405839176329919423097785704888310024106864490243019609422185890575651452436480,
    )
    assert (got.method, got.error_bound) == ("markov-exact", 0)
    got = exact_expected_recolorings_dc(gen_complete_bipartite(3, 3), 4, None, method="exact")
    assert got.value == Fraction(285089405, 53142144)
    assert (got.method, got.error_bound) == ("markov-exact", 0)


def test_chain_diagnostics_do_not_change_the_value():
    g = gen_cycle(5)
    exact = exact_expected_recolorings_dc(g, 3, None, method="exact")
    assert exact.transient == 36 and exact.nonzeros > 36 and exact.fill >= 0
    certified = exact_expected_recolorings_dc(g, 3, None, method="iterative")
    assert certified.transient == 36 and certified.fill is None
    assert ExactValue(exact.value, method="markov-exact") == exact
    assert str(ExactValue(exact.value, method="markov-exact")) == str(exact)


def test_every_oracle_route_returns_the_stdlib_rational():
    g = gen_cycle(5)
    certified = exact_expected_recolorings_dc(g, 3, None, method="iterative")
    g2, c2, focus = gen_fig2_like()
    results = [
        harmonic(0),
        harmonic(5),
        expected_draws_to_collect(6, 4),
        exact_expected_recolorings_dc(g, 3, None, method="exact"),
        certified,
        # a proper start: no transient state, nothing to solve
        exact_expected_recolorings_dc(g, 3, Coloring([1, 2, 1, 2, 3], 3)),
        exact_expected_recolorings_persistent(g, 3, None, "all"),
        exact_expected_recolorings_persistent(g, 3, None, [4, 2, 0, 3, 1]),
        *exact_expected_conflict_deltas(g2, c2, focus),
    ]
    for got in results:
        assert type(got.value) is Fraction, got
        assert type(got.error_bound) is Fraction, got
    assert type(certified.max_residual) is Fraction


# every AC-10 instance under the default method, as AC-10 solves it: (label,
# method, value, certified bound, (transient states, nonzeros of I - Q,
# fill-in)); the values are the ones perfbench/pinned.json holds, and the
# elimination counts pin the pivot order, which the solve's arithmetic must
# not move
PINNED_AC10 = [
    ("edge-mono", "markov-exact", "2", "0", (1, 1, 0)),
    ("path3", "markov-exact", "65/54", "0", (3, 7, 0)),
    ("K3", "markov-exact", "5/2", "0", (4, 13, 0)),
    ("K4", "markov-exact", "13/3", "0", (14, 84, 22)),
    ("C4-mono", "markov-exact", "57/10", "0", (11, 51, 8)),
    ("C5", "markov-exact", "469/120", "0", (36, 216, 128)),
    ("star4-mono", "markov-exact", "176/51", "0", (10, 37, 8)),
    ("path5", "markov-exact", "3353987/1223046", "0", (33, 166, 58)),
    ("G(6,0.4)", "markov-exact", "2528840209003859334898215489293518256378450964519985151338889025085881667294692082430055252988156339135300105584925119028415234305735315898128050419551/680841509924335632925697713776556611148128428540735277499367247972362589405839176329919423097785704888310024106864490243019609422185890575651452436480", "0", (166, 1420, 3135)),
    ("G(6,0.5)-mono", "markov-exact", "1467689058846012660262069938584649466540746672773464213645/228865314551570637135835923517798560387745429458748107952", "0", (168, 1458, 3296)),
    ("C6", "markov-exact", "1906121/406638", "0", (111, 819, 1200)),
    ("K5", "markov-exact", "77/12", "0", (51, 486, 621)),
    ("K23", "markov-exact", "1554828677/515576160", "0", (42, 299, 255)),
    ("badbip(2)", "markov-exact", "21/5", "0", (10, 46, 8)),
    ("G(7,0.3)", "markov-certified", "1603942933539165913/410390516044136448", "291/5629499534213120", (320, None, None)),
    ("C8-mono", "markov-certified", "6482681146744945/562949953421312", "2919/9007199254740992", (1051, None, None)),
    ("path7", "markov-certified", "3532165605588074129/820781032088272896", "81/1125899906842624", (333, None, None)),
    ("matching3-mono", "markov-exact", "6", "0", (19, 49, 0)),
    ("G(5,0.6)", "markov-exact", "261972496939/56154689250", "0", (50, 449, 472)),
    ("K33", "markov-exact", "285089405/53142144", "0", (169, 1774, 5669)),
]


def test_pinned_ac10_table_covers_every_instance():
    assert [row[0] for row in PINNED_AC10] == [row[0] for row in acceptance._AC10_INSTANCES]


@pytest.mark.parametrize("label,method,value,bound,counts", PINNED_AC10,
                         ids=[row[0] for row in PINNED_AC10])
def test_ac10_values_and_elimination_are_pinned(label, method, value, bound, counts):
    spec, D, start = next(row[1:] for row in acceptance._AC10_INSTANCES if row[0] == label)
    g, d, s, order = _build(ExperimentConfig(graph=spec, algorithm="dc", D=D, start=start))
    got = exact_expected_recolorings_dc(g, d, s, order)
    assert (got.method, got.value, got.error_bound) == (method, Fraction(value), Fraction(bound))
    assert (got.transient, got.nonzeros, got.fill) == counts


def test_canonical_pattern_first_occurrence_relabeling():
    assert canonical_pattern([3, 3, 1, 2]) == (1, 1, 2, 3)
    assert canonical_pattern([2, 4, 2]) == (1, 2, 1)


# ---------------------------------------------------------------------------
# persistent oracle


def test_persistent_single_edge():
    g = from_edge_list(2, [(0, 1)])
    start = Coloring([1, 1], 2)
    assert exact_expected_recolorings_persistent(g, 2, start, "all").value == 2
    assert exact_expected_recolorings_persistent(g, 2, start, [0, 1]).value == 2
    assert exact_expected_recolorings_persistent(g, 2, start, [1, 0]).value == 2


@pytest.mark.parametrize("delta,expect", [(2, frac(9, 2)), (3, frac(22, 3)), (4, frac(45, 4)),
                                          (5, frac(81, 5)), (6, frac(133, 6))])
def test_persistent_bad_bipartite_exact(delta, expect):
    # the closed form delta (delta + 1) / 2 + (delta + 1) / delta
    assert expect == frac(delta * (delta + 1), 2) + frac(delta + 1, delta)
    g, c = bad_bipartite_start(delta)
    got = exact_expected_recolorings_persistent(g, delta + 1, c, "all")
    assert got.value == expect


def test_persistent_proper_start_zero():
    g = gen_cycle(4)
    start = Coloring([1, 2, 1, 2], 3)
    assert exact_expected_recolorings_persistent(g, 3, start, "all").value == 0


def test_persistent_size_guard(monkeypatch):
    # a fixed start is refused when its walk passes the budget; a small one
    # keeps this fast
    monkeypatch.setattr(oracle, "STATE_BUDGET", 40)
    start = Coloring([1] * 8, 3)
    with pytest.raises(ValueError, match="pass the state budget of 40"):
        exact_expected_recolorings_persistent(gen_cycle(8), 3, start, "all")
    with pytest.raises(ValueError, match="pass the state budget of 40"):
        exact_expected_recolorings_dc(gen_cycle(8), 3, start)
    # C4-mono reaches 11 transient states and 3 proper ones: a walk of
    # exactly the budget is admitted
    mono = Coloring([1] * 4, 3)
    monkeypatch.setattr(oracle, "STATE_BUDGET", 14)
    assert exact_expected_recolorings_dc(gen_cycle(4), 3, mono).transient == 11
    monkeypatch.setattr(oracle, "STATE_BUDGET", 13)
    with pytest.raises(ValueError, match="pass the state budget of 13"):
        exact_expected_recolorings_dc(gen_cycle(4), 3, mono)


def test_persistent_vertex_without_a_free_color_is_an_error():
    with pytest.raises(ValueError, match="vertex 0 has no free color"):
        exact_expected_recolorings_persistent(gen_clique(3), 2, Coloring([1, 1, 2], 2))


def _raw_persistent(g, D, starts, position=None):
    """The persistent process's expected draws by plain recursion over raw
    color tuples, with no canonical form: the mean over the start tuples. A
    conflicted vertex with f free colors draws D/f times and lands on each
    free color with probability 1/f. With position, the conflicted vertex
    earliest in it is processed; without, the mean over the conflicted
    vertices is taken. The reference the package's walk must match."""
    memo: dict = {}

    def expect(colors):
        if colors not in memo:
            conflicted = [v for v in range(g.n) if any(colors[u] == colors[v] for u in g.adjacency[v])]
            if position is not None and conflicted:
                conflicted = [min(conflicted, key=position.__getitem__)]
            total = Fraction(0)
            for v in conflicted:
                free = [x for x in range(1, D + 1) if all(colors[u] != x for u in g.adjacency[v])]
                children = sum(expect(colors[:v] + (x,) + colors[v + 1:]) for x in free)
                total += (Fraction(D) + children) / len(free) / len(conflicted)
            memo[colors] = total
        return memo[colors]

    return sum(expect(tuple(s)) for s in starts) / len(starts)


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_persistent_oracle_matches_a_raw_recursion(data):
    # the oracle's common denominator depends on D through the free-color
    # counts, so the palette ranges past max degree + 1
    n = data.draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    g = from_edge_list(n, edges)
    D = g.max_degree + data.draw(st.integers(1, 3))
    order = data.draw(st.one_of(st.just("all"), st.permutations(range(n))))
    position = None if order == "all" else FixedPermutationOrder(order).position
    # a random start's reference enumerates all D**n colorings
    if D**n <= 4096 and data.draw(st.booleans()):
        start, starts = None, list(itertools.product(range(1, D + 1), repeat=n))
    else:
        colors = data.draw(st.lists(st.integers(1, D), min_size=n, max_size=n))
        start, starts = Coloring(colors, D), [colors]
    assert (exact_expected_recolorings_persistent(g, D, start, order).value
            == _raw_persistent(g, D, starts, position))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_color_moves_are_the_canonical_raw_children(data):
    n = data.draw(st.integers(1, 7))
    D = data.draw(st.integers(1, 6))
    state = canonical_pattern(data.draw(st.lists(st.integers(1, D), min_size=n, max_size=n)))
    v = data.draw(st.integers(0, n - 1))
    k = max(state)
    skip = data.draw(st.sets(st.integers(1, k))) if data.draw(st.booleans()) else ()
    lock = data.draw(st.sets(st.integers(1, k)))
    moves = oracle._color_moves(state, v, D, skip, lock)
    drawn = [x for x in range(1, k + 1) if x not in skip] + ([k + 1] if D > k else [])
    assert len(moves) == len(drawn)
    for (child, w, locked), x in zip(moves, drawn):
        assert child == canonical_pattern(state[:v] + (x,) + state[v + 1:])
        assert w == (1 if x <= k else D - k)
        assert locked == (v if x in lock else -1)


def test_persistent_all_orders_is_the_permutation_average():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    start = Coloring([1, 1, 2, 2], 3)
    averaged = exact_expected_recolorings_persistent(g, 3, start, "all").value
    total = Fraction(0)
    perms = list(itertools.permutations(range(4)))
    for pi in perms:
        total += exact_expected_recolorings_persistent(g, 3, start, list(pi)).value
    assert averaged == total / len(perms)


def test_mimic_adversary_reproduces_persistent():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    start = Coloring([1, 1, 2, 2], 3)
    lowest = AdversaryOrder(AdversaryStrategy.MimicPersistent, mode="lowest")
    via_dc = exact_expected_recolorings_dc(g, 3, start, lowest, method="exact")
    via_persistent = exact_expected_recolorings_persistent(g, 3, start, [0, 1, 2, 3])
    assert via_dc.value == via_persistent.value == frac(9, 2)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_a_fixed_order_is_the_lowest_mimic_on_the_relabeled_graph(data):
    # relabel each vertex to its position in the order: the persistent
    # process under the order is then the one-draw process under the mimic
    # adversary that finishes the lowest conflicted vertex first
    n = data.draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    g = from_edge_list(n, edges)
    D = g.max_degree + data.draw(st.integers(1, 2))
    order = data.draw(st.permutations(range(n)))
    at = {v: i for i, v in enumerate(order)}
    g_pi = from_edge_list(n, [tuple(sorted((at[u], at[v]))) for u, v in edges])
    if data.draw(st.booleans()):
        start = start_pi = None
    else:
        colors = data.draw(st.lists(st.integers(1, D), min_size=n, max_size=n))
        start = Coloring(colors, D)
        start_pi = Coloring([colors[v] for v in order], D)
    lowest = AdversaryOrder(AdversaryStrategy.MimicPersistent, mode="lowest")
    assert (exact_expected_recolorings_persistent(g, D, start, order).value
            == exact_expected_recolorings_dc(g_pi, D, start_pi, lowest, method="exact").value)


def test_the_persistent_oracle_reads_the_mimic_modes_as_uniform_and_identity_order():
    # every persistent move clears its vertex, so the mimic adversary's lock
    # never holds a vertex there
    badbip, c = bad_bipartite_start(3)
    instances = [(badbip, 4, c), (gen_complete_bipartite(2, 3), 4, None),
                 (from_edge_list(4, [(0, 1), (1, 2), (2, 3)]), 3, Coloring([1, 1, 2, 2], 3))]
    for g, D, start in instances:
        for mode, order in (("uniform", "all"), ("lowest", list(range(g.n)))):
            mimic = AdversaryOrder(AdversaryStrategy.MimicPersistent, mode=mode)
            assert (exact_expected_recolorings_persistent(g, D, start, mimic)
                    == exact_expected_recolorings_persistent(g, D, start, order))


@pytest.mark.parametrize("oracle_fn", [exact_expected_recolorings_dc,
                                       exact_expected_recolorings_persistent])
def test_both_oracles_refuse_the_orders_they_do_not_model(oracle_fn):
    g = gen_clique(3)
    for order in (AdversaryOrder(AdversaryStrategy.MinPhiDrift),
                  AdversaryOrder(AdversaryStrategy.MaxConflicted),
                  AdversaryOrder(AdversaryStrategy.Scripted, script=[0]), "uniform"):
        with pytest.raises(ValueError, match="the exact oracles model uniform, fixed-permutation "
                                             "and mimic orders, not"):
            oracle_fn(g, 3, None, order)
    with pytest.raises(ValueError, match=r"order must be a permutation of 0\.\.n-1"):
        oracle_fn(g, 3, None, [1, 0])


def test_a_fixed_order_run_matches_the_one_draw_oracle():
    g, c = bad_bipartite_start(3)
    order = (5, 0, 1, 2, 3, 4)
    exact = exact_expected_recolorings_dc(g, 4, c, FixedPermutationOrder(order))
    assert exact.value == frac(21, 2)
    sched = FixedPermutationOrder(order)
    sample = [run_decentralized(g, 4, c, sched, trial_rng(37, t)).step3_draws
              for t in range(4000)]
    se = np.std(sample, ddof=1) / np.sqrt(len(sample))
    assert abs(np.mean(sample) - exact.as_float()) <= 4 * se


def test_a_fixed_order_run_matches_the_persistent_oracle():
    g, c = bad_bipartite_start(3)
    order = (3, 0, 5, 1, 4, 2)
    exact = exact_expected_recolorings_persistent(g, 4, c, order).as_float()
    sched = FixedPermutationOrder(order)
    sample = [run_persistent(g, 4, c, sched, trial_rng(31, t)).step3_draws
              for t in range(4000)]
    se = np.std(sample, ddof=1) / np.sqrt(len(sample))
    assert abs(np.mean(sample) - exact) <= 4 * se


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
    for start, values in ((None, random_values), (Coloring(colors, D), fixed_values)):
        got = [exact_expected_recolorings_persistent(g, D, start, order).value for order in ("all", perm)]
        got += [exact_expected_recolorings_dc(g, D, start, s, method="exact").value for s in scheds]
        assert got == [Fraction(v) for v in values]
