"""Exact ground truth on small instances.

Expected recoloring counts come from three routes: closed-form
harmonic sums, absorbing-Markov-chain solves over colorings, and an exact
evaluation of the persistent process over its states. The last two walk one
state space: colorings canonicalized up to color renaming (the dynamics
commute with any palette bijection, so the lumped chain is exact by strong
lumpability), which shrinks it from D^n to the number of set partitions with
at most D blocks; the tests check both against their own enumerations over
raw colorings. One breadth-first walk interns each state once, counts it
against STATE_BUDGET and lists its children per pick, and each order's pick
rule is written once. The one-draw chain folds those children into the rows
of I - Q, and both its exact and its certified solve read those rows; a
state that cannot reach a proper coloring shows as a zero pivot of the exact
elimination. Both solves do their arithmetic on Python integers: the exact
one eliminates fraction-free on the integer rows of den * (I - Q) and
back-substitutes on reduced (numerator, denominator) pairs, and the certified
one holds its iterate over a power of two, so every residual is an exact
integer. The persistent evaluation scales every state's value by one common
denominator, so its divisions are exact integer ones. A `fractions.Fraction`
is built only for a value that a solve returns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm, perm
from typing import Callable, Collection, Iterable, Iterator, Sequence, Union

import numpy as np

from .adversary import AdversaryStrategy
from .coloring import (
    Coloring,
    conflicted_vertices,
    is_conflicted,
    monochromatic_component_count,
    same_color_counts,
)
from .engine import (
    AdversaryOrder,
    FixedPermutationOrder,
    SchedulerPolicy,
    UniformRandomOrder,
    _initial_colors,
)
from .graphs import Graph

Order = Union[None, str, Sequence[int], SchedulerPolicy]  # what `_pick_rule` takes

STATE_BUDGET = 300_000
DEFAULT_EXACT_STATE_LIMIT = 260
CERTIFIED_TOL = Fraction(1, 10**12)


@dataclass(frozen=True)
class ExactValue:
    """Exact rational result, with a certified error bound when the value
    came from iterative refinement instead of exact elimination.

    The oracles also record diagnostics, which take no part in equality:
    the transient states of the chain, the nonzeros of I - Q and the fill-in
    of its exact elimination, and the refinement rounds of a certified solve
    with the max exact residual of its result. A field an oracle does not
    measure stays None.
    """

    value: Fraction
    error_bound: Fraction = Fraction(0)
    method: str = "exact"
    transient: int | None = field(default=None, compare=False)
    nonzeros: int | None = field(default=None, compare=False)
    fill: int | None = field(default=None, compare=False)
    refinements: int | None = field(default=None, compare=False)
    max_residual: Fraction | None = field(default=None, compare=False)

    def as_float(self) -> float:
        return float(self.value)

    def __str__(self) -> str:
        v = self.value
        body = f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)
        text = f"{body} (≈ {float(v):.12g})"
        if self.error_bound:
            text += f" [certified error <= {float(self.error_bound):.3g}]"
        return text


def harmonic(k: int) -> ExactValue:
    """H_k = sum of 1/i for i in 1..k; H_0 = 0."""
    if k < 0:
        raise ValueError(f"harmonic index must be >= 0, got {k}")
    total = Fraction(0)
    for i in range(1, k + 1):
        total += Fraction(1, i)
    return ExactValue(total)


def expected_draws_to_collect(D: int, k: int) -> ExactValue:
    """Expected uniform draws from D coupons until k distinct ones are seen,
    first draw included: sum of D/(D-i) for i in 0..k-1."""
    if k < 1 or k > D:
        raise ValueError(f"need 1 <= k <= D, got k={k}, D={D}")
    total = Fraction(0)
    for i in range(k):
        total += Fraction(D, D - i)
    return ExactValue(total)


# ---------------------------------------------------------------------------
# coloring patterns (canonical representatives up to color renaming)


def canonical_pattern(colors: Sequence[int]) -> tuple[int, ...]:
    """Relabel colors by first occurrence: (3,3,1,4) -> (1,1,2,3)."""
    mapping: dict[int, int] = {}
    out = []
    for c in colors:
        m = mapping.get(c)
        if m is None:
            m = len(mapping) + 1
            mapping[c] = m
        out.append(m)
    return tuple(out)


def _patterns(n: int, D: int) -> Iterator[tuple[int, ...]]:
    """All canonical patterns of length n using at most D colors."""
    cap = min(n, D)
    prefix = [0] * n

    def rec(i: int, kmax: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(prefix)
            return
        for x in range(1, min(kmax + 1, cap) + 1):
            prefix[i] = x
            yield from rec(i + 1, max(kmax, x))

    yield from rec(0, 0)


def _pattern_count(n: int, D: int) -> int:
    """How many patterns `_patterns(n, D)` yields: the Stirling numbers
    S(n, k) summed over k <= D."""
    s = [1] + [0] * min(n, D)  # S(i, k) for each k, from i = 0
    for _ in range(n):
        s = [0] + [k * s[k] + s[k - 1] for k in range(1, len(s))]
    return sum(s)


# ---------------------------------------------------------------------------
# the state walk both oracles share, and the one-draw chain it builds


def _color_moves(state: tuple[int, ...], v: int, D: int, skip: Collection[int] = (),
                 lock: Collection[int] = ()) -> list[tuple[tuple[int, ...], int, int]]:
    """Recolor choices for v as (child pattern, weight, locked vertex) triples.

    Each color x of the state that is not in `skip` gives one child of
    weight 1, which keeps v locked when x is in `lock` and else locks -1. The
    D - k colors absent from the state are interchangeable, so one
    fresh-color child, labelled k + 1, carries weight D - k and locks -1.
    With nothing skipped the weights sum to D; `skip` and `lock` may hold
    only colors the state uses. A child needs relabeling only when v held
    the first occurrence of label m + 1 or takes a label above m + 1, m the
    largest label before v.
    """
    head, tail = state[:v], state[v + 1:]
    m = max(head, default=0)
    keep = m + 1 if state[v] <= m else 0  # the labels v takes with no relabeling
    k = max(state)
    moves = []
    for x in range(1, k + 1):
        if x not in skip:
            child = head + (x,) + tail
            moves.append((child if x <= keep else canonical_pattern(child), 1, v if x in lock else -1))
    if D > k:
        child = head + (k + 1,) + tail
        moves.append((child if k < keep else canonical_pattern(child), D - k, -1))
    return moves


def _walk(g: Graph, D: int, start: Coloring | None, position: Sequence[int] | None,
          moves: Callable) -> tuple[list, int, Iterator]:
    """Breadth-first walk over the states reached from the start distribution.

    A state is a (pattern, locked) pair: a canonical coloring and the vertex
    a mimic adversary keeps, or -1. The pick rule of every order: the locked
    vertex while it stays conflicted, else the conflicted vertex earliest in
    `position` (a fixed order, or the identity for mimic "lowest") when it
    is given, else every conflicted vertex. moves(pattern, v) lists the
    (child pattern, weight, locked vertex) triples of picking v.

    A random start (None) weighs each canonical pattern by the D!/(D-k)! raw
    colorings with its k colors; a fixed start is one state, validated by
    the engine. Each state is interned once, and every state counts against
    STATE_BUDGET, so a random start is refused before enumeration when its
    patterns pass it.

    Returns (starts, total weight, states): starts lists each start state's
    row, or None when it is proper, with its weight, and states yields in
    row order each transient state's conflicted count and, per pick, its
    [(child row or None, weight)].
    """
    if start is None:
        count = _pattern_count(g.n, D)
        if count > STATE_BUDGET:
            raise ValueError(f"a random start on {g.n} vertices with D={D} has {count} colorings "
                             f"up to renaming, over the state budget of {STATE_BUDGET}")
        weighted, total_weight = [(p, perm(D, max(p))) for p in _patterns(g.n, D)], D**g.n
    else:
        weighted, total_weight = [(canonical_pattern(_initial_colors(g, D, start, None)), 1)], 1
    index: dict = {}
    queue: list = []

    def intern(key):
        if len(index) == STATE_BUDGET:
            raise ValueError(f"the states reached from this start pass the state budget of {STATE_BUDGET}")
        pattern, locked = key
        counts = same_color_counts(g, pattern)
        picks = [locked] if locked >= 0 and counts[locked] else [v for v, k in enumerate(counts) if k]
        if position is not None and len(picks) > 1:
            picks = [min(picks, key=position.__getitem__)]
        r = index[key] = len(queue) if picks else None
        if picks:
            queue.append((pattern, picks, g.n - counts.count(0)))
        return r

    starts = [(intern((p, -1)), w) for p, w in weighted]  # distinct patterns

    def states():
        get = index.get
        for pattern, picks, conflicted in queue:  # grows as children are interned
            children = []
            for v in picks:
                pick = []
                for child, w, locked in moves(pattern, v):
                    key = (child, locked)
                    r = get(key, -1)
                    pick.append((intern(key) if r == -1 else r, w))
                children.append(pick)
            yield conflicted, children

    return starts, total_weight, states()


def _start_mean(starts: list, total_weight: int, x: list) -> Fraction:
    """The start distribution's mean of x, which is 0 on proper states."""
    return sum((w * x[r] for r, w in starts if r is not None), Fraction(0)) / total_weight


def _pick_rule(g: Graph, order: Order) -> tuple[Sequence[int] | None, bool]:
    """The walk's (position, mimic) pick rule for an order both oracles take.

    None, "all" and `UniformRandomOrder` pick every conflicted vertex; a
    permutation, bare or as a `FixedPermutationOrder`, its earliest one; the
    mimic adversary keeps its vertex locked, in vertex-id order for mode
    "lowest". The persistent oracle ignores the lock, which changes nothing
    there: each persistent move clears its vertex. Any other order is
    refused.
    """
    if isinstance(order, Iterable) and not isinstance(order, str):
        order = FixedPermutationOrder(order)
    if order is None or order == "all" or isinstance(order, UniformRandomOrder):
        return None, False
    if isinstance(order, FixedPermutationOrder):
        if len(order.position) != g.n:
            raise ValueError("order must be a permutation of 0..n-1")
        return order.position, False
    if isinstance(order, AdversaryOrder) and order.strategy is AdversaryStrategy.MimicPersistent:
        return (range(g.n) if order.mode == "lowest" else None), True
    raise ValueError(f"the exact oracles model uniform, fixed-permutation and mimic orders, not {order!r}")


def _build_dc_chain(g: Graph, D: int, start: Coloring | None, order: Order) -> tuple[list, int, list]:
    """The one-draw chain from the start distribution, as the rows of I - Q.

    Returns the walk's starts and total weight, and rows, where rows[r] =
    (den, [(row, num), ...]) lists row r's moves into transient states, each
    with probability num/den. Moves into absorbing states add nothing to
    I - Q and are left out.
    """
    position, mimic = _pick_rule(g, order)

    def moves(pattern, v):
        # the mimic adversary keeps v while its drawn color is one of its
        # neighbors'
        return _color_moves(pattern, v, D, lock={pattern[u] for u in g.adjacency[v]} if mimic else ())

    starts, total_weight, states = _walk(g, D, start, position, moves)
    rows: list = []
    for _, children in states:
        acc: dict[int, int] = {}
        for pick in children:
            for j, w in pick:
                if j is not None:
                    acc[j] = acc.get(j, 0) + w
        rows.append((len(children) * D, sorted(acc.items())))
    return starts, total_weight, rows


def _solve_exact(rows: list) -> tuple[list, int, int]:
    """Exact solve of (I - Q) x = 1 by sparse fraction-free elimination.

    Row r of den * (I - Q) is an integer row: its diagonal is den less the
    self-loop num, every other entry is -num, and its right-hand side is den.
    The rows are dicts {column: int} with a column -> rows index beside
    them. Each step pivots on the diagonal entry of the remaining row with
    the lowest Markowitz count (row nonzeros - 1) * (column nonzeros - 1),
    ties to the lowest row, and eliminates only the rows that hold the pivot
    column: a row i with entry f there becomes (p/g) * row i - (f/g) * row k,
    g = gcd(p, f), and is then divided by the gcd of its entries and its
    right-hand side. Every integer row stays a nonzero multiple of the row
    that rational elimination would hold, so entries cancel to an exact zero,
    and are dropped, exactly where they would there. A self-loop that
    cancels the diagonal stays an explicit zero entry. Back-substitution, in
    reverse pivot order, divides by the kept pivots. It holds each solved
    value as a reduced (numerator, positive denominator) pair of integers,
    adds a row's terms over the lcm of their denominators, and builds the
    returned `Fraction`s once, at the end.

    Diagonal pivots in any symmetric order are safe when every transient
    state reaches absorption: then I - Q is a nonsingular M-matrix (Q is
    nonnegative and substochastic with spectral radius below 1), every Schur
    complement of it is again one, and its diagonal is positive, so every
    pivot is nonzero. Exact arithmetic makes the solution independent of the
    order, which decides only the fill. When some reachable state cannot
    reach a proper coloring, I - Q is singular: the pivots multiply to a
    multiple of its determinant, 0, so elimination meets an exact zero pivot,
    and the expected count is infinite, a ValueError.

    Returns expected remaining draws per row, the nonzero count of I - Q and
    the fill-in (entries that elimination created).
    """
    t = len(rows)
    a: list[dict[int, int]] = []
    b: list[int] = []
    cols: list[set[int]] = [set() for _ in range(t)]
    for r, (den, entries) in enumerate(rows):
        row = {r: den}
        for c, num in entries:
            row[c] = row.get(c, 0) - num
        for c in row:
            cols[c].add(r)
        a.append(row)
        b.append(den)
    nonzeros = sum(len(row) for row in a)

    pivots = [0] * t
    active = set(range(t))
    order: list[int] = []
    fill = 0
    while active:
        k = min(active, key=lambda r: ((len(a[r]) - 1) * (len(cols[r]) - 1), r))
        active.remove(k)
        order.append(k)
        rk = a[k]
        p = pivots[k] = rk.pop(k, 0)  # an entry that cancelled was dropped
        if not p:
            raise ValueError(
                "expected recoloring count is infinite: some reachable states "
                "cannot reach a proper coloring (is D large enough?)"
            )
        for j in rk:
            cols[j].discard(k)
        bk = b[k]
        below = cols[k]
        below.discard(k)
        for i in below:
            ri = a[i]
            f = ri.pop(k)
            g = gcd(p, f)
            pi, f = p // g, f // g
            if pi != 1:
                for j in ri:
                    ri[j] *= pi
            for j, v in rk.items():
                old = ri.get(j)
                if old is None:
                    ri[j] = -f * v
                    cols[j].add(i)
                    fill += 1
                else:
                    new = old - f * v
                    if new:
                        ri[j] = new
                    else:
                        del ri[j]
                        cols[j].discard(i)
            bi = pi * b[i] - f * bk
            g = gcd(bi, *ri.values())
            if g > 1:
                bi //= g
                for j in ri:
                    ri[j] //= g
            b[i] = bi

    num, den = [0] * t, [1] * t  # x = num / den, reduced, den > 0
    for k in reversed(order):
        row = a[k]
        d = lcm(*(den[j] for j in row))
        acc = b[k] * d
        for j, v in row.items():
            acc -= v * num[j] * (d // den[j])
        d *= pivots[k]
        g = gcd(acc, d)
        if d < 0:
            g = -g
        num[k], den[k] = acc // g, d // g
    return [Fraction(p, q) for p, q in zip(num, den)], nonzeros, fill


def _solve_certified(rows: list, m_bound: int, tol: Fraction) -> tuple[list, Fraction, int, Fraction]:
    """Float LU solve plus iterative refinement with exact residuals.

    The inverse of (I - Q) has nonnegative entries whose row sums are the
    expected remaining draws, which are at most m_bound; the error of an
    iterate is therefore bounded by m_bound times the max exact residual.

    The iterate is held as integers X over one shared power of two, x =
    X / 2^E: every float the LU solve returns is dyadic and adds in exactly.
    So row r's residual (1 - x_r + sum num * x_c / den) is the integer
    R_r = den * 2^E - den * X_r + sum num * X_c over den * 2^E, and the
    integer true division R_r / (den << E) rounds it to the float that
    feeds the next LU solve. Only the max residual and the bound are formed
    as rationals.

    Returns (x, bound, refinement rounds, max residual).
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    t = len(rows)
    # each row gives its diagonal 1 and then its entries; a self-loop's
    # -num/den is a second diagonal entry, which csc_matrix sums with the 1
    rows_idx, cols_idx, vals = [], [], []
    for r, (den, entries) in enumerate(rows):
        rows_idx += [r] * (len(entries) + 1)
        cols_idx += [r, *(c for c, _ in entries)]
        vals += [1.0, *(-num / den for _, num in entries)]
    a = sp.csc_matrix(
        (np.array(vals), (np.array(rows_idx), np.array(cols_idx))), shape=(t, t)
    )
    lu = spla.splu(a)
    X = [0] * t
    E = 0
    step = lu.solve(np.ones(t))
    for rounds in range(50):
        # x += step, exactly: each float is n / q with q a power of two
        ratios = [d.as_integer_ratio() for d in step.tolist()]
        e = max([E] + [q.bit_length() - 1 for _, q in ratios])
        X = [(xr << (e - E)) + (n << (e + 1 - q.bit_length())) for xr, (n, q) in zip(X, ratios)]
        E = e

        residual = []
        worst, worst_den = 0, 1  # the max |R_r| / den
        for r, (den, entries) in enumerate(rows):
            scaled = den << E
            acc = scaled - den * X[r]
            for c, num in entries:
                acc += num * X[c]
            residual.append(acc / scaled)
            if abs(acc) * worst_den > worst * den:
                worst, worst_den = abs(acc), den
        max_r = Fraction(worst, worst_den << E)
        bound = m_bound * max_r
        if bound <= tol:
            return [Fraction(xr, 1 << E) for xr in X], bound, rounds, max_r
        step = lu.solve(np.array(residual))
    raise RuntimeError("iterative refinement failed to certify the requested tolerance")


def exact_expected_recolorings_dc(
    g: Graph,
    D: int,
    start: Coloring | None,
    order: Order = None,
    *,
    method: str = "auto",
) -> ExactValue:
    """Exact expected post-start draws of the one-draw algorithm.

    Solves the absorbing chain over colorings canonicalized up to color
    renaming, which is exact by strong lumpability. Chains with at most
    DEFAULT_EXACT_STATE_LIMIT transient states, or any chain under method
    "exact", go through exact fraction-free elimination; larger ones (method
    "auto"/"iterative") use a float solve certified to CERTIFIED_TOL, which
    needs D >= max_degree + 1 for its error bound and reports the certified
    bound on the result. `order` is any order `_pick_rule` takes.
    """
    if D < 1:
        raise ValueError(f"palette size must be >= 1, got {D}")
    if method not in ("auto", "exact", "iterative"):
        raise ValueError(f"unknown method {method!r}")
    starts, total_weight, rows = _build_dc_chain(g, D, start, order)
    if not rows:
        return ExactValue(Fraction(0), method="markov-exact", transient=0, nonzeros=0, fill=0)

    nonzeros = fill = refinements = max_residual = None
    if method == "exact" or (method == "auto" and len(rows) <= DEFAULT_EXACT_STATE_LIMIT):
        x, nonzeros, fill = _solve_exact(rows)
        bound = Fraction(0)
        how = "markov-exact"
    else:
        # With D >= max_degree + 1 every conflicted vertex has a free color,
        # and drawing it lowers the conflicted count, so every state reaches
        # absorption and I - Q is nonsingular.
        if D < g.max_degree + 1:
            raise ValueError(
                "iterative certification needs D >= max_degree + 1; "
                "force method='exact' for smaller palettes"
            )
        x, bound, refinements, max_residual = _solve_certified(rows, (g.n - 1) * D, CERTIFIED_TOL)
        how = "markov-certified"

    return ExactValue(_start_mean(starts, total_weight, x), error_bound=bound, method=how,
                      transient=len(rows), nonzeros=nonzeros, fill=fill,
                      refinements=refinements, max_residual=max_residual)


# ---------------------------------------------------------------------------
# persistent process, evaluated over the DAG of its states


def exact_expected_recolorings_persistent(
    g: Graph,
    D: int,
    start: Coloring | None,
    order: Order = None,
) -> ExactValue:
    """Exact expected draws of the persistent process.

    Uniform order (None or "all") averages over all selection orders, which
    equals selecting uniformly among the currently conflicted vertices:
    cleared vertices never become conflicted again, so at each boundary the
    next processed vertex of a uniformly random permutation is uniform over
    the survivors. A vertex with f free colors contributes D/f expected
    draws and lands uniformly on its free set.

    A permutation processes vertices in that fixed order instead: the
    engine's `FixedPermutationOrder` rule, the earliest conflicted vertex of
    the permutation. Since cleared vertices stay clear, that vertex is never
    one the order has passed, so for both orders the state is the coloring
    pattern alone. The mimic adversary's modes are these two orders, uniform
    and the identity (see `_pick_rule`).

    Every move clears its vertex and conflicts no other, so each child has
    fewer conflicted vertices than its parent: the states form a DAG, and
    evaluating them in ascending conflicted count finds every child's value
    before its parent's.

    The evaluation runs in integers over one common denominator. A state
    with c conflicted vertices and k picks (1, or all c) has the value
    (1/k) sum over its picks of (D + sum w * child value) / f, f the free
    colors of the picked vertex. Let C be the
    largest conflicted count of a state (at most n), and L the lcm of f * k
    over 1 <= k <= C and the f a pick can have: at most D, and at least
    D - max degree, since v's neighbors hold at most deg v colors. By
    induction on the conflicted count c, a state's value has a denominator
    dividing L**c. A proper state is 0. A child has at most c - 1
    conflicted vertices, so a pick's value has a denominator dividing
    f * L**(c - 1). The sum of the k picks then has one dividing the lcm of
    their f times L**(c - 1), and the mean one dividing the lcm of their
    f * k times L**(c - 1), which divides L**c. So with S = L**C every
    value scaled by S is an integer N, and so is every pick's: both
    (D*S + sum w * N_child) // f and the state's sum of picks // k are
    exact divisions. (S = L**n would be as exact, but on a large graph
    with few conflicted vertices it makes every integer far longer.)
    """
    if D < 1:
        raise ValueError(f"palette size must be >= 1, got {D}")
    position, _ = _pick_rule(g, order)

    def moves(pattern, v):
        used = {pattern[u] for u in g.adjacency[v]}
        if len(used) == D:
            raise ValueError(f"vertex {v} has no free color; the persistent process cannot finish")
        return _color_moves(pattern, v, D, skip=used)

    starts, total_weight, states = _walk(g, D, start, position, moves)
    states = list(states)
    rows = sorted(range(len(states)), key=lambda r: states[r][0])
    C = states[rows[-1]][0] if states else 0
    L = lcm(*(f * k for f in range(max(D - g.max_degree, 1), D + 1) for k in range(1, C + 1)))
    S = L**C
    DS = D * S
    value = [0] * len(states)  # each state's value times S
    for r in rows:
        children = states[r][1]
        total = 0
        for pick in children:
            # v draws D/f times on average, then lands uniformly on its f
            # free colors, whose weights sum to f
            f = 0
            acc = DS
            for j, w in pick:
                f += w
                if j is not None:
                    acc += value[j] * w
            total += acc // f
        value[r] = total // len(children)
    mean = Fraction(sum(w * value[r] for r, w in starts if r is not None), total_weight * S)
    return ExactValue(mean, method="persistent-recursion", transient=len(states))


# ---------------------------------------------------------------------------
# exact one-step drifts


def _check_vertex(g: Graph, v: int) -> None:
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} is out of range for n={g.n}")


def exact_expected_phi_delta(g: Graph, c: Coloring, v: int) -> ExactValue:
    """Exact expected change of the monochromatic-component count when the
    conflicted vertex v redraws uniformly from the palette."""
    return exact_expected_conflict_deltas(g, c, v)[0]


def exact_expected_conflict_deltas(
    g: Graph, c: Coloring, v: int
) -> tuple[ExactValue, ExactValue, ExactValue]:
    """Exact expected one-step change of (component count, conflicted-vertex
    count, conflicted-edge count) when conflicted v redraws uniformly."""
    _check_vertex(g, v)
    if not is_conflicted(g, c, v):
        raise ValueError(f"vertex {v} is not conflicted; drift conditions on invalid states")
    D = c.palette_size
    base_phi = monochromatic_component_count(g, c)
    # Only v and its neighbors can change status when v changes color. A
    # neighbor u stays conflicted through its other neighbors (`held`), or
    # is conflicted when v takes u's color. Only v's edges can change too:
    # with color x, v's conflicted edges go to the neighbors holding x.
    colors, adjacency = c.colors, g.adjacency
    neighbors = []
    for u in adjacency[v]:
        cu = colors[u]
        held = any(colors[w] == cu for w in adjacency[u] if w != v)
        neighbors.append((cu, held))
    holding = Counter(cu for cu, _ in neighbors)

    def local_conflicted(x: int) -> int:
        """Conflicted vertices among v and its neighbors when v has color x."""
        return (x in holding) + sum(held or cu == x for cu, held in neighbors)

    base_vertices = local_conflicted(colors[v])
    probe = c.copy()
    d_phi = d_vertices = d_edges = 0
    for x in range(1, D + 1):
        probe.colors[v] = x
        d_phi += monochromatic_component_count(g, probe) - base_phi
        d_vertices += local_conflicted(x) - base_vertices
        d_edges += holding[x] - holding[colors[v]]
    return (
        ExactValue(Fraction(d_phi, D)),
        ExactValue(Fraction(d_vertices, D)),
        ExactValue(Fraction(d_edges, D)),
    )


def verify_fig2_deltas(g: Graph, c: Coloring, v: int) -> bool:
    """Check the gadget's conflicted-vertex delta table for recoloring v.

    True iff the palette has exactly four colors and the per-color changes of
    the conflicted-vertex count are: 0 for v's current color and exactly
    (-1, +1, +1) across the other three. Raises if v is not conflicted.
    """
    _check_vertex(g, v)
    if not is_conflicted(g, c, v):
        raise ValueError(f"vertex {v} is not conflicted")
    D = c.palette_size
    if D != 4:
        return False
    base = len(conflicted_vertices(g, c))
    probe = c.copy()
    own = c.colors[v]
    others = []
    for x in range(1, D + 1):
        probe.colors[v] = x
        delta = len(conflicted_vertices(g, probe)) - base
        if x == own:
            if delta != 0:
                return False
        else:
            others.append(delta)
    return sorted(others) == [-1, 1, 1]
