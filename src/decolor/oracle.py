"""Exact ground truth on small instances.

Expected recoloring counts come from three independent routes: closed-form
harmonic sums, absorbing-Markov-chain solves over colorings, and a recursion
over the persistent process's shrinking conflicted set. The Markov route
canonicalizes colorings up to color renaming (the dynamics commute with any
palette bijection), which shrinks the state space from D^n to the number of
set partitions with at most D blocks; the tests verify the lumped chain
against a plain solve over raw colorings.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Collection, Iterable, Iterator, Sequence

import numpy as np

try:
    from gmpy2 import mpq as _Q

    RATIONAL_BACKEND = "gmpy2.mpq"
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    from fractions import Fraction as _Q

    RATIONAL_BACKEND = "fractions.Fraction"

from .adversary import AdversaryStrategy
from .coloring import (
    Coloring,
    conflicted_vertices,
    is_conflicted,
    monochromatic_component_count,
)
from .engine import (
    AdversaryOrder,
    RandomStart,
    SchedulerPolicy,
    StartPolicy,
    UniformRandomOrder,
    _initial_colors,
)
from .graphs import Graph

DC_STATE_GUARD = 2_000_000
PERSISTENT_N_GUARD = 8
DEFAULT_EXACT_STATE_LIMIT = 260
CERTIFIED_TOL = Fraction(1, 10**12)


@dataclass(frozen=True)
class ExactValue:
    """Exact rational result, with a certified error bound when the value
    came from iterative refinement instead of exact elimination.

    The oracles also record diagnostics, which take no part in equality:
    the transient states of the chain, the nonzeros of I - Q and the fill-in
    of its exact elimination, and the rational backend that did the
    arithmetic. A field an oracle does not measure stays None.
    """

    value: Fraction
    error_bound: Fraction = Fraction(0)
    method: str = "exact"
    transient: int | None = field(default=None, compare=False)
    nonzeros: int | None = field(default=None, compare=False)
    fill: int | None = field(default=None, compare=False)
    backend: str | None = field(default=None, compare=False)

    def as_float(self) -> float:
        return float(self.value)

    def __str__(self) -> str:
        v = self.value
        body = f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)
        text = f"{body} (≈ {float(v):.12g})"
        if self.error_bound:
            text += f" [certified error <= {float(self.error_bound):.3g}]"
        return text


def _fraction(q) -> Fraction:
    return Fraction(int(q.numerator), int(q.denominator))


def harmonic(k: int) -> ExactValue:
    """H_k = sum of 1/i for i in 1..k; H_0 = 0."""
    if k < 0:
        raise ValueError(f"harmonic index must be >= 0, got {k}")
    total = _Q(0)
    for i in range(1, k + 1):
        total += _Q(1, i)
    return ExactValue(_fraction(total))


def expected_draws_to_collect(D: int, k: int) -> ExactValue:
    """Expected uniform draws from D coupons until k distinct ones are seen,
    first draw included: sum of D/(D-i) for i in 0..k-1."""
    if k < 1 or k > D:
        raise ValueError(f"need 1 <= k <= D, got k={k}, D={D}")
    total = _Q(0)
    for i in range(k):
        total += _Q(D, D - i)
    return ExactValue(_fraction(total))


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


def _pattern_weight(pattern: Sequence[int], D: int) -> int:
    """Number of raw colorings over {1..D} with this canonical pattern:
    the falling factorial D * (D-1) * ... over the distinct-color count."""
    k = max(pattern)
    w = 1
    for i in range(k):
        w *= D - i
    return w


def _start_weights(
    g: Graph, D: int, start: StartPolicy, lumped: bool = True
) -> tuple[list[tuple[tuple, int]], int]:
    """The start distribution as ([(state key, weight)], total weight).

    A random start weighs every raw coloring 1, or each canonical pattern by
    the raw colorings it stands for when lumped; a fixed start is one state,
    validated by the engine.
    """
    if not isinstance(start, RandomStart):
        colors = _initial_colors(g, D, start, None)
        return [(canonical_pattern(colors) if lumped else tuple(colors), 1)], 1
    if lumped:
        weighted = [(p, _pattern_weight(p, D)) for p in _patterns(g.n, D)]
    else:
        weighted = [(tuple(int(c) + 1 for c in cs), 1) for cs in np.ndindex(*([D] * g.n))]
    return weighted, D**g.n


def _conflicted_of(g: Graph, colors: Sequence[int]) -> list[int]:
    out = []
    for v in range(g.n):
        cv = colors[v]
        for u in g.adjacency[v]:
            if colors[u] == cv:
                out.append(v)
                break
    return out


def _vertex_conflicted(g: Graph, colors: Sequence[int], v: int) -> bool:
    cv = colors[v]
    return any(colors[u] == cv for u in g.adjacency[v])


# ---------------------------------------------------------------------------
# absorbing-chain construction for the one-draw algorithm


def _color_moves(
    state: tuple[int, ...], v: int, D: int, lumped: bool, skip: Collection[int] = ()
):
    """Recolor choices for v as (child colors tuple, weight) pairs, one per
    color not in `skip`; with nothing skipped the weights sum to D.

    In lumped mode all colors absent from the state are interchangeable, so
    one fresh-color child carries weight D - k; `skip` may hold only colors
    the state uses.
    """
    moves = []
    base = list(state)
    if lumped:
        k = max(state)
        for x in range(1, k + 1):
            if x in skip:
                continue
            base[v] = x
            moves.append((canonical_pattern(base), 1))
        if D > k:
            base[v] = k + 1
            moves.append((canonical_pattern(base), D - k))
    else:
        for x in range(1, D + 1):
            if x in skip:
                continue
            base[v] = x
            moves.append((tuple(base), 1))
    return moves


@dataclass
class _Chain:
    """Transient rows of an absorbing chain, probabilities as num/den."""

    states: list
    index: dict
    transient: list[int]
    row_den: list[int]
    row_entries: list[list[tuple[int, int]]]  # (state index, numerator)


def _build_dc_chain(
    g: Graph,
    D: int,
    start_keys: Iterable,
    mimic_mode: str | None,
    lumped: bool,
) -> _Chain:
    """Breadth-first enumeration of the one-draw chain from the start states.

    States are colorings for the uniform scheduler; for the mimic scheduler
    they are (coloring, active) pairs where active is the locked vertex or -1
    at a selection boundary.
    """
    index: dict = {}
    states: list = []
    queue: list = []

    def intern(key) -> int:
        i = index.get(key)
        if i is None:
            i = len(states)
            index[key] = i
            states.append(key)
            queue.append(i)
        return i

    for key in start_keys:
        intern(key)

    transient: list[int] = []
    row_den: list[int] = []
    row_entries: list[list[tuple[int, int]]] = []

    qpos = 0
    while qpos < len(queue):
        i = queue[qpos]
        qpos += 1
        key = states[i]
        colors = key if mimic_mode is None else key[0]
        conflicted = _conflicted_of(g, colors)
        if not conflicted:
            continue  # absorbing
        if mimic_mode is None:
            picks = [(v, 1) for v in conflicted]
            pick_den = len(conflicted)
        else:
            active = key[1]
            if active >= 0 and _vertex_conflicted(g, colors, active):
                picks = [(active, 1)]
                pick_den = 1
            elif mimic_mode == "lowest":
                picks = [(conflicted[0], 1)]
                pick_den = 1
            else:
                picks = [(v, 1) for v in conflicted]
                pick_den = len(conflicted)
        den = pick_den * D
        acc: dict[int, int] = {}
        for v, pw in picks:
            for child_colors, cw in _color_moves(colors, v, D, lumped):
                if mimic_mode is None:
                    child = child_colors
                else:
                    still = _vertex_conflicted(g, child_colors, v)
                    child = (child_colors, v if still else -1)
                j = intern(child)
                acc[j] = acc.get(j, 0) + pw * cw
        transient.append(i)
        row_den.append(den)
        row_entries.append(sorted(acc.items()))

    return _Chain(states, index, transient, row_den, row_entries)


def _check_absorbing_reachable(chain: _Chain) -> None:
    """Every transient state must reach a proper coloring, else the expected
    value is infinite and the linear system is singular."""
    n_states = len(chain.states)
    is_transient = [False] * n_states
    for i in chain.transient:
        is_transient[i] = True
    rev: list[list[int]] = [[] for _ in range(n_states)]
    for r, i in enumerate(chain.transient):
        for j, _num in chain.row_entries[r]:
            rev[j].append(i)
    reached = [not is_transient[i] for i in range(n_states)]
    stack = [i for i in range(n_states) if reached[i]]
    while stack:
        j = stack.pop()
        for i in rev[j]:
            if not reached[i]:
                reached[i] = True
                stack.append(i)
    for i in chain.transient:
        if not reached[i]:
            raise ValueError(
                "expected recoloring count is infinite: some reachable states "
                "cannot reach a proper coloring (is D large enough?)"
            )


def _solve_exact(chain: _Chain) -> tuple[dict[int, object], int, int]:
    """Exact rational solve of (I - Q) x = 1 by sparse Gaussian elimination.

    Rows of I - Q are dicts {column: rational} with a column -> rows index
    beside them. Each step pivots on the diagonal entry of the remaining row
    with the lowest Markowitz count (row nonzeros - 1) * (column nonzeros - 1),
    ties to the lowest row, eliminates only the rows that hold the pivot
    column, and drops entries that cancel to an exact zero. Back-substitution
    runs in reverse pivot order.

    Diagonal pivots in any symmetric order are safe: after
    _check_absorbing_reachable, I - Q is a nonsingular M-matrix (Q is
    nonnegative and substochastic and every transient state reaches
    absorption, so Q's spectral radius is below 1). Every Schur complement
    of a nonsingular M-matrix is again one, and its diagonal is positive, so
    every pivot is positive. Exact arithmetic makes the solution independent
    of the order, which decides only the fill.

    Returns expected remaining draws per transient state index, the nonzero
    count of I - Q and the fill-in (entries that elimination created).
    """
    t = len(chain.transient)
    col_of = {i: r for r, i in enumerate(chain.transient)}
    one = _Q(1)
    rows: list[dict[int, object]] = []
    cols: list[set[int]] = [set() for _ in range(t)]
    for r in range(t):
        den = chain.row_den[r]
        row = {r: one}
        for j, num in chain.row_entries[r]:
            c = col_of.get(j)
            if c is not None:
                row[c] = row.get(c, 0) - _Q(num, den)
        for c in row:
            cols[c].add(r)
        rows.append(row)
    nonzeros = sum(len(row) for row in rows)

    b = [one] * t
    active = set(range(t))
    order: list[int] = []
    fill = 0
    while active:
        k = min(active, key=lambda r: ((len(rows[r]) - 1) * (len(cols[r]) - 1), r))
        active.remove(k)
        order.append(k)
        rk = rows[k]
        inv = one / rk.pop(k)
        for j in rk:
            rk[j] *= inv
            cols[j].discard(k)
        bk = b[k] = b[k] * inv
        below = cols[k]
        below.discard(k)
        for i in below:
            ri = rows[i]
            f = ri.pop(k)
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
            b[i] -= f * bk

    x: list = [None] * t
    for k in reversed(order):
        acc = b[k]
        for j, v in rows[k].items():
            acc -= v * x[j]
        x[k] = acc
    return {chain.transient[r]: x[r] for r in range(t)}, nonzeros, fill


def _solve_certified(chain: _Chain, m_bound: int, tol: Fraction) -> tuple[dict[int, object], Fraction]:
    """Float LU solve plus iterative refinement with exact residuals.

    The inverse of (I - Q) has nonnegative entries whose row sums are the
    expected remaining draws, which are at most m_bound; the error of an
    iterate is therefore bounded by m_bound times the max exact residual.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    t = len(chain.transient)
    col_of = {i: r for r, i in enumerate(chain.transient)}
    rows_idx: list[int] = []
    cols_idx: list[int] = []
    vals: list[float] = []
    exact_rows: list[list[tuple[int, int]]] = []
    for r in range(t):
        den = chain.row_den[r]
        entries = []
        diag_num = 0
        for j, num in chain.row_entries[r]:
            cj = col_of.get(j)
            if cj is None:
                continue
            if cj == r:
                diag_num += num
                continue
            rows_idx.append(r)
            cols_idx.append(cj)
            vals.append(-num / den)
            entries.append((cj, num))
        rows_idx.append(r)
        cols_idx.append(r)
        vals.append(1.0 - diag_num / den)
        if diag_num:
            entries.append((r, diag_num))
        exact_rows.append(entries)

    a = sp.csc_matrix(
        (np.array(vals), (np.array(rows_idx), np.array(cols_idx))), shape=(t, t)
    )
    lu = spla.splu(a)
    x_float = lu.solve(np.ones(t))
    x = [_Q(float(v)) for v in x_float]
    tol_q = _Q(tol.numerator, tol.denominator)
    for _ in range(50):
        residual = []
        for r in range(t):
            den = chain.row_den[r]
            acc = _Q(den) - _Q(den) * x[r]
            for cj, num in exact_rows[r]:
                acc += num * x[cj]
            residual.append(acc / den)
        max_r = max((abs(rv) for rv in residual), default=_Q(0))
        bound = m_bound * max_r
        if bound <= tol_q:
            return {chain.transient[r]: x[r] for r in range(t)}, _fraction(bound)
        dx = lu.solve(np.array([float(rv) for rv in residual]))
        x = [xi + _Q(float(d)) for xi, d in zip(x, dx)]
    raise RuntimeError("iterative refinement failed to certify the requested tolerance")


def _resolve_dc_sched(sched: SchedulerPolicy | None) -> str | None:
    """Map a scheduler policy to the chain kind: None for uniform, else mode."""
    if sched is None or isinstance(sched, UniformRandomOrder):
        return None
    if isinstance(sched, AdversaryOrder) and sched.strategy is AdversaryStrategy.MimicPersistent:
        if sched.mode not in ("uniform", "lowest"):
            raise ValueError(f"unsupported mimic mode {sched.mode!r}")
        return sched.mode
    raise ValueError(
        "exact one-draw expectations support only the uniform scheduler and "
        "the mimic-persistent adversary"
    )


def exact_expected_recolorings_dc(
    g: Graph,
    D: int,
    start: StartPolicy,
    sched: SchedulerPolicy | None = None,
    *,
    method: str = "auto",
    lumped: bool = True,
) -> ExactValue:
    """Exact expected post-start draws of the one-draw algorithm.

    Solves the absorbing chain over colorings (states canonicalized up to
    color renaming unless lumped=False). Chains with at most
    DEFAULT_EXACT_STATE_LIMIT transient states, or any chain under method
    "exact", go through exact rational elimination; larger ones (method
    "auto"/"iterative") use a float solve certified to CERTIFIED_TOL, which
    needs D >= max_degree + 1 for its error bound and reports the certified
    bound on the result.
    """
    if D < 1:
        raise ValueError(f"palette size must be >= 1, got {D}")
    if D**g.n > DC_STATE_GUARD:
        raise ValueError(
            f"state space {D}^{g.n} exceeds the guard of {DC_STATE_GUARD} raw colorings"
        )
    if method not in ("auto", "exact", "iterative"):
        raise ValueError(f"unknown method {method!r}")
    mimic_mode = _resolve_dc_sched(sched)

    weighted, total_weight = _start_weights(g, D, start, lumped)
    if mimic_mode is not None:
        weighted = [((key, -1), w) for key, w in weighted]

    chain = _build_dc_chain(g, D, [key for key, _ in weighted], mimic_mode, lumped)
    if not chain.transient:
        return ExactValue(Fraction(0), method="markov-exact", transient=0, nonzeros=0,
                          fill=0, backend=RATIONAL_BACKEND)
    _check_absorbing_reachable(chain)

    nonzeros = fill = None
    if method == "exact" or (method == "auto" and len(chain.transient) <= DEFAULT_EXACT_STATE_LIMIT):
        solution, nonzeros, fill = _solve_exact(chain)
        bound = Fraction(0)
        how = "markov-exact"
    else:
        if D < g.max_degree + 1:
            raise ValueError(
                "iterative certification needs D >= max_degree + 1; "
                "force method='exact' for smaller palettes"
            )
        solution, bound = _solve_certified(chain, (g.n - 1) * D, CERTIFIED_TOL)
        how = "markov-certified"

    total = _Q(0)
    for key, w in weighted:
        total += w * solution.get(chain.index[key], _Q(0))
    value = total / total_weight
    return ExactValue(_fraction(value), error_bound=bound, method=how,
                      transient=len(chain.transient), nonzeros=nonzeros, fill=fill,
                      backend=RATIONAL_BACKEND)


# ---------------------------------------------------------------------------
# persistent process, by recursion over the shrinking conflicted set


def exact_expected_recolorings_persistent(
    g: Graph,
    D: int,
    start: StartPolicy,
    order: str | Sequence[int] = "all",
) -> ExactValue:
    """Exact expected draws of the persistent process.

    order="all" averages over all selection orders, which equals selecting
    uniformly among the currently conflicted vertices: cleared vertices never
    become conflicted again, so at each boundary the next processed vertex of
    a uniformly random permutation is uniform over the survivors. A vertex
    with f free colors contributes D/f expected draws and lands uniformly on
    its free set; the recursion branches over those landings.

    order=<permutation> processes vertices in that fixed order instead. Both
    run one memoised recursion over (pattern, position in the order).
    """
    if D < 1:
        raise ValueError(f"palette size must be >= 1, got {D}")
    if g.n > PERSISTENT_N_GUARD:
        raise ValueError(f"persistent oracle is limited to n <= {PERSISTENT_N_GUARD}")
    fixed_order: tuple[int, ...] | None
    if isinstance(order, str):
        if order != "all":
            raise ValueError(f"order must be 'all' or a permutation, got {order!r}")
        fixed_order = None
    else:
        fixed_order = tuple(int(v) for v in order)
        if sorted(fixed_order) != list(range(g.n)):
            raise ValueError("order must be a permutation of 0..n-1")

    adjacency = g.adjacency
    memo: dict = {}

    def picks(state: tuple[int, ...], idx: int) -> list[tuple[int, int]]:
        """(vertex, next idx) pairs for the selections open at (state, idx)."""
        if fixed_order is None:
            return [(v, 0) for v in _conflicted_of(g, state)]
        for i in range(idx, g.n):
            v = fixed_order[i]
            if _vertex_conflicted(g, state, v):
                return [(v, i + 1)]
        return []

    def expect(state: tuple[int, ...], idx: int):
        key = (state, idx)
        val = memo.get(key)
        if val is not None:
            return val
        options = picks(state, idx)
        val = _Q(0)
        for v, nxt in options:
            used = {state[u] for u in adjacency[v]}
            f = D - len(used)
            if f == 0:
                raise ValueError(
                    f"vertex {v} has no free color; the persistent process cannot finish"
                )
            # v draws D/f times on average, then lands uniformly on its f
            # free colors
            acc = _Q(D)
            for child, w in _color_moves(state, v, D, True, used):
                acc += w * expect(child, nxt)
            val += acc / (f * len(options))
        memo[key] = val
        return val

    weighted, total_weight = _start_weights(g, D, start)
    total = _Q(0)
    for key, w in weighted:
        total += w * expect(key, 0)
    # expect refers to itself, so only a full garbage collection would free
    # the memo it holds; empty it now
    memo.clear()
    value = total / total_weight
    return ExactValue(_fraction(value), method="persistent-recursion", backend=RATIONAL_BACKEND)


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
