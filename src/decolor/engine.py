"""The two recoloring algorithms as deterministic-given-seed state machines.

Both algorithms start from a coloring (random or supplied), then repeatedly
select a conflicted vertex and redraw its color uniformly from the whole
palette {1..D}, current color included. The one-draw variant
(`run_decentralized`) performs exactly one draw per selection; the
persistent variant (`run_persistent`) keeps drawing until the selected
vertex is unconflicted, after which that vertex is never selected again.

Randomness (stream version 2, see ``decolor.rng``): every value a run uses
is one ``rng.random()`` double u, that is one 64-bit word, taken as the
integer j = u * 2^53 (the word's top 53 bits). Values are fetched in blocks
whose first size comes from n and which then double, and are used strictly
in order, so block sizes never change a result. The order is: the n initial
colors (random start only); for the persistent uniform path, the
Fisher-Yates values of its permutation; then, per selection, the pick value
(uniform order, or the mimic adversary's uniform choice) followed by the
selection's color values. Colors and Fisher-Yates positions are exactly
uniform: a value in [0, k) is j mod k, rejecting j >= 2^53 - 2^53 mod k and
taking the next value. A pick among the conflicted list C is
C[floor(u * |C|)], computed exactly as (j * |C|) >> 53.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from . import adversary as _adv
from .adversary import AdversaryStrategy
from .coloring import Coloring
from .graphs import Graph

_TWO53 = 1 << 53


class RandomStart:
    """Step-1 policy: every vertex draws its initial color uniformly."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "RandomStart()"


RANDOM_START = RandomStart()


class FixedStart:
    """Step-1 policy: start from the given coloring (e.g. an adversarial one)."""

    __slots__ = ("coloring",)

    def __init__(self, coloring: Coloring):
        self.coloring = coloring

    def __repr__(self) -> str:
        return f"FixedStart({self.coloring!r})"


class UniformRandomOrder:
    """Step-2 policy: select uniformly among the conflicted vertices."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "UniformRandomOrder()"


UNIFORM_ORDER = UniformRandomOrder()


class FixedPermutationOrder:
    """Step-2 policy: always select the conflicted vertex that appears
    earliest in a fixed permutation of the vertices."""

    __slots__ = ("order", "position")

    def __init__(self, order: Sequence[int]):
        order = tuple(int(v) for v in order)
        if sorted(order) != list(range(len(order))):
            raise ValueError("order must be a permutation of 0..n-1")
        self.order = order
        position = [0] * len(order)
        for i, v in enumerate(order):
            position[v] = i
        self.position = position

    def __repr__(self) -> str:
        return f"FixedPermutationOrder({self.order})"


class AdversaryOrder:
    """Step-2 policy: delegate selection to an adversary strategy."""

    __slots__ = ("strategy", "mode", "script")

    def __init__(
        self,
        strategy: AdversaryStrategy,
        mode: str = "uniform",
        script: Sequence[int] | None = None,
    ):
        self.strategy = strategy
        self.mode = mode
        self.script = tuple(script) if script is not None else None
        if strategy is AdversaryStrategy.Scripted and self.script is None:
            raise ValueError("scripted adversary needs a script")

    def __repr__(self) -> str:
        return f"AdversaryOrder({self.strategy}, mode={self.mode!r})"


StartPolicy = Union[RandomStart, FixedStart]
SchedulerPolicy = Union[UniformRandomOrder, FixedPermutationOrder, AdversaryOrder]


@dataclass
class RunResult:
    """Telemetry of one run.

    total_draws counts every color draw including the n initial ones, so
    total_draws = n + step3_draws always holds; step3_draws counts only
    post-start redraws. For the one-draw algorithm selections equals
    step3_draws. terminated is False exactly when the step cap cut the run
    short of a proper coloring.
    """

    total_draws: int
    step3_draws: int
    per_vertex_draws: list[int]
    selections: int
    terminated: bool
    final_coloring: Coloring
    trace: list[tuple[int, list[int]]] | None = None


def default_step_cap(n: int, D: int) -> int:
    """Step-3 draw budget: generous versus the (n-1)*D expected-work bound."""
    return 10 * n * D * D


def _first_block(n: int) -> int:
    """Values in a run's first block; most tiny-graph runs need one block."""
    return 4 * n + 16


def _stream(rng: np.random.Generator, n: int) -> Callable[[], int]:
    """The run's next-value function: its stream's values j in order."""

    def blocks():
        k = _first_block(n)
        while True:
            u = rng.random(k)
            u *= float(_TWO53)  # exact: a power-of-two scaling
            yield u.astype(np.int64).tolist()
            k *= 2

    return itertools.chain.from_iterable(blocks()).__next__


def _below(draw: Callable[[], int], k: int) -> int:
    """Exactly uniform integer in [0, k) from the stream (see the module doc)."""
    lim = _TWO53 - _TWO53 % k
    j = draw()
    while j >= lim:
        j = draw()
    return j % k


def _redraw_until_clear(draw: Callable[[], int], D: int, used: set[int], room: int) -> list[int]:
    """One persistent selection's colors: draw until one avoids `used`, at
    most `room` (>= 1) times; the run is capped iff the last one is in `used`."""
    lim = _TWO53 - _TWO53 % D
    draws = []
    for _ in range(room):
        j = draw()
        while j >= lim:
            j = draw()
        x = j % D + 1
        draws.append(x)
        if x not in used:
            break
    return draws


def scheduler_pick(
    policy: SchedulerPolicy,
    g: Graph,
    c: Coloring,
    conflicted: Sequence[int],
    history: Sequence[int],
    draw: Callable[[], int],
) -> int:
    """Choose the next vertex to recolor from the non-empty conflicted list.

    `draw` returns the run's next stream value; only random choices call it.
    """
    if not conflicted:
        raise ValueError("conflicted set is empty")
    if isinstance(policy, UniformRandomOrder):
        return conflicted[draw() * len(conflicted) >> 53]
    if isinstance(policy, FixedPermutationOrder):
        pos = policy.position
        return min(conflicted, key=pos.__getitem__)
    if isinstance(policy, AdversaryOrder):
        v = _adv.dispatch_pick(
            policy.strategy, policy.mode, policy.script, g, c, conflicted, history, draw
        )
        if v not in conflicted:
            raise RuntimeError(f"adversary returned non-conflicted vertex {v}")
        return v
    raise TypeError(f"unknown scheduler policy {policy!r}")


def _initial_colors(g: Graph, D: int, start: StartPolicy, draw: Callable[[], int]) -> list[int]:
    if isinstance(start, RandomStart):
        return [_below(draw, D) + 1 for _ in range(g.n)]
    if isinstance(start, FixedStart):
        c = start.coloring
        if len(c.colors) != g.n:
            raise ValueError(f"fixed start has {len(c.colors)} colors for n={g.n}")
        if c.colors and max(c.colors) > D:
            raise ValueError(f"fixed start uses color {max(c.colors)} > D={D}")
        return list(c.colors)
    raise TypeError(f"unknown start policy {start!r}")


class ConflictTracker:
    """Incremental view of the conflicted set.

    Tracks, per vertex, the number of same-colored neighbors, plus the set
    of conflicted vertices as a swap-remove list. Must agree with a full
    recomputation after any recolor; the tests check that on random walks.
    """

    __slots__ = ("g", "colors", "counts", "members", "pos")

    def __init__(self, g: Graph, colors: list[int]):
        self.g = g
        self.colors = colors
        counts = [0] * g.n
        for v in range(g.n):
            cv = colors[v]
            counts[v] = sum(1 for u in g.adjacency[v] if colors[u] == cv)
        self.counts = counts
        self.members = [v for v in range(g.n) if counts[v] > 0]
        self.pos = [-1] * g.n
        for i, v in enumerate(self.members):
            self.pos[v] = i

    def _drop(self, v: int) -> None:
        members, pos = self.members, self.pos
        i = pos[v]
        last = members[-1]
        members[i] = last
        pos[last] = i
        members.pop()
        pos[v] = -1

    def _add(self, v: int) -> None:
        self.pos[v] = len(self.members)
        self.members.append(v)

    def recolor(self, v: int, new_color: int) -> None:
        """Apply colors[v] = new_color and update all affected counts."""
        colors, counts = self.colors, self.counts
        old = colors[v]
        if new_color == old:
            return
        colors[v] = new_color
        own = 0
        for u in self.g.adjacency[v]:
            cu = colors[u]
            if cu == old:
                left = counts[u] - 1
                counts[u] = left
                if left == 0:
                    self._drop(u)
            elif cu == new_color:
                own += 1
                before = counts[u]
                counts[u] = before + 1
                if before == 0:
                    self._add(u)
        had = counts[v] > 0
        counts[v] = own
        if own > 0 and not had:
            self._add(v)
        elif own == 0 and had:
            self._drop(v)

    def conflicted_sorted(self) -> list[int]:
        return sorted(self.members)


def _finish(
    g: Graph,
    D: int,
    colors: list[int],
    step3: int,
    per_vertex: list[int],
    selections: int,
    terminated: bool,
    trace: list[tuple[int, list[int]]] | None,
) -> RunResult:
    final = Coloring(colors, D)
    return RunResult(
        total_draws=g.n + step3,
        step3_draws=step3,
        per_vertex_draws=per_vertex,
        selections=selections,
        terminated=terminated,
        final_coloring=final,
        trace=trace,
    )


def run_decentralized(
    g: Graph,
    D: int,
    start: StartPolicy,
    sched: SchedulerPolicy,
    rng: np.random.Generator,
    step_cap: int | None = None,
    trace: bool = False,
) -> RunResult:
    """One-draw-per-selection recoloring until proper or the cap is hit."""
    if D < 1:
        raise ValueError(f"palette size must be >= 1, got {D}")
    cap = default_step_cap(g.n, D) if step_cap is None else step_cap
    draw = _stream(rng, g.n)
    colors = _initial_colors(g, D, start, draw)
    trace_list: list[tuple[int, list[int]]] | None = [] if trace else None
    per_vertex = [0] * g.n
    tracker = ConflictTracker(g, colors)
    members = tracker.members
    step3 = 0

    if isinstance(sched, UniformRandomOrder):
        # hot path: _below inlined, no per-step allocation
        lim = _TWO53 - _TWO53 % D
        while members and step3 < cap:
            v = members[draw() * len(members) >> 53]
            j = draw()
            while j >= lim:
                j = draw()
            x = j % D + 1
            step3 += 1
            per_vertex[v] += 1
            if trace_list is not None:
                trace_list.append((v, [x]))
            tracker.recolor(v, x)
        return _finish(g, D, colors, step3, per_vertex, step3, not members, trace_list)

    history: list[int] = []
    while members and step3 < cap:
        conflicted = tracker.conflicted_sorted()
        v = scheduler_pick(sched, g, tracker_coloring(tracker, D), conflicted, history, draw)
        history.append(v)
        x = _below(draw, D) + 1
        step3 += 1
        per_vertex[v] += 1
        if trace_list is not None:
            trace_list.append((v, [x]))
        tracker.recolor(v, x)
    return _finish(g, D, colors, step3, per_vertex, step3, not members, trace_list)


def tracker_coloring(tracker: ConflictTracker, D: int) -> Coloring:
    """Zero-copy Coloring view of a tracker's live color list."""
    out = object.__new__(Coloring)
    out.colors = tracker.colors
    out.palette_size = D
    return out


def run_persistent(
    g: Graph,
    D: int,
    start: StartPolicy,
    sched: SchedulerPolicy,
    rng: np.random.Generator,
    step_cap: int | None = None,
    trace: bool = False,
) -> RunResult:
    """Redraw-until-clear recoloring; a cleared vertex is never selected again.

    With uniform order the run walks a single random permutation and
    processes the vertices that are still conflicted when reached, which
    yields the same selection distribution because cleared vertices stay
    clear: every later redraw ends on a color avoiding all its neighbors.
    The permutation is a Fisher-Yates shuffle of 0..n-1: for k = n down to
    2, swap positions k-1 and j = (uniform in [0, k)); the walk then goes
    from position 0 up. Other orders re-evaluate the policy after each
    vertex clears.
    """
    if D < 1:
        raise ValueError(f"palette size must be >= 1, got {D}")
    cap = default_step_cap(g.n, D) if step_cap is None else step_cap
    draw = _stream(rng, g.n)
    colors = _initial_colors(g, D, start, draw)
    trace_list: list[tuple[int, list[int]]] | None = [] if trace else None
    per_vertex = [0] * g.n
    adjacency = g.adjacency
    step3 = 0
    selections = 0
    capped = False

    if isinstance(sched, UniformRandomOrder):
        perm = list(range(g.n))
        for k in range(g.n, 1, -1):
            j = _below(draw, k)
            perm[k - 1], perm[j] = perm[j], perm[k - 1]
        for v in perm:
            cv = colors[v]
            av = adjacency[v]
            for u in av:
                if colors[u] == cv:
                    break
            else:
                continue
            if step3 >= cap:
                capped = True
                break
            selections += 1
            used = {colors[u] for u in av}
            draws = _redraw_until_clear(draw, D, used, cap - step3)
            step3 += len(draws)
            per_vertex[v] += len(draws)
            colors[v] = draws[-1]
            if trace_list is not None:
                trace_list.append((v, draws))
            capped = draws[-1] in used
            if capped:
                break
        return _finish(g, D, colors, step3, per_vertex, selections, not capped, trace_list)

    tracker = ConflictTracker(g, colors)
    members = tracker.members
    history: list[int] = []
    seen: set[int] = set()
    while members and not capped:
        if step3 >= cap:
            capped = True
            break
        conflicted = tracker.conflicted_sorted()
        v = scheduler_pick(sched, g, tracker_coloring(tracker, D), conflicted, history, draw)
        if v in seen:
            raise RuntimeError(f"vertex {v} selected twice in a persistent run")
        seen.add(v)
        history.append(v)
        selections += 1
        used = {colors[u] for u in adjacency[v]}
        draws = _redraw_until_clear(draw, D, used, cap - step3)
        step3 += len(draws)
        per_vertex[v] += len(draws)
        capped = draws[-1] in used
        # intermediate draws never leave the loop, so one tracker update
        # with the last drawn color is equivalent to applying each draw
        tracker.recolor(v, draws[-1])
        if trace_list is not None:
            trace_list.append((v, draws))
    return _finish(g, D, colors, step3, per_vertex, selections, not capped and not members, trace_list)


def trace_to_text(trace: list[tuple[int, list[int]]]) -> str:
    """One line per selection: ``step vertex draw draw ...`` (1-based steps)."""
    lines = []
    for i, (v, draws) in enumerate(trace, start=1):
        lines.append(f"{i} {v} {' '.join(map(str, draws))}")
    return "\n".join(lines) + ("\n" if lines else "")
