"""The two recoloring algorithms as deterministic-given-seed state machines.

Both algorithms start from a coloring, then repeatedly select a conflicted
vertex and redraw its color uniformly from the whole palette {1..D}, current
color included. The start is a given `Coloring` (an adversarial one, say),
or None: every vertex draws its initial color uniformly. The one-draw
variant (`run_decentralized`) performs exactly one draw per selection; the
persistent variant (`run_persistent`) keeps drawing until the selected
vertex is unconflicted, after which that vertex is never selected again.

Both run through one function, `_run`. Uniform order has a fast path per
algorithm: a loop over the tracker's member list for one-draw and a single
permutation walk, `_uniform_walk`, for persistent. Every other order runs
one policy loop for both algorithms: `adversary.dispatch_pick` chooses a
conflicted vertex for the order, which holds only data, and the vertex then
draws one color or redraws until clear. A one-draw run under the mimic
`AdversaryOrder` redraws until clear as well: the mimic re-picks its vertex,
without a stream value, for as long as it is conflicted, so one loop step
per selected vertex reads the same stream and gives the same outputs as one
step per draw.

Randomness (stream version 2, see ``decolor.rng``): every value a run uses
is one ``rng.random()`` double u, that is one 64-bit word, taken as the
integer j = u * 2^53 (the word's top 53 bits). Values are fetched in blocks
whose first size comes from n and which then double, and are used strictly
in order, so block sizes never change a result. The order is: the n initial
colors (random start only); for the persistent uniform path, the
Fisher-Yates values of its permutation; then, per selection, the pick value
(uniform order, or the mimic adversary's uniform choice) followed by the
selection's color values. Colors and Fisher-Yates positions follow the
exact-uniform rule: a value in [0, k) is j mod k, rejecting
j >= 2^53 - 2^53 mod k and taking the next value. A pick among the
conflicted list C is C[floor(u * |C|)], computed exactly as
(j * |C|) >> 53.

The uniform order indexes the ConflictTracker's member list, so its order
(ascending at the start, then swap-removes and appends in the order
`ConflictTracker.recolor` makes them) is part of the same contract.
`run_trials` runs uniform-order trials on small graphs in the lockstep
kernels (``decolor.lockstep``), which reproduce these loops on arrays and
hand an exceptional trial back to be rerun in `run_decentralized` or
`run_persistent` from the start, so no loop needs a resume path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import adversary as _adv
from . import coloring as _coloring
from .adversary import AdversaryOrder, AdversaryStrategy, FixedPermutationOrder
from .coloring import Coloring
from .graphs import Graph

_TWO53 = 1 << 53


class UniformRandomOrder:
    """Step-2 policy: select uniformly among the conflicted vertices."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "UniformRandomOrder()"


UNIFORM_ORDER = UniformRandomOrder()


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


def _initial_colors(g: Graph, D: int, start: Coloring | None, draw: Callable[[], int]) -> list[int]:
    if start is None:
        lim = _TWO53 - _TWO53 % D  # exact-uniform rule (module doc): one value per color
        colors = []
        for _ in range(g.n):
            j = draw()
            while j >= lim:
                j = draw()
            colors.append(j % D + 1)
        return colors
    # the coloring module's class: a tracer may rebind this module's
    # `Coloring` to a subclass after the start was built
    if not isinstance(start, _coloring.Coloring):
        raise TypeError(f"a start is a Coloring or None, not {start!r}")
    if len(start.colors) != g.n:
        raise ValueError(f"fixed start has {len(start.colors)} colors for n={g.n}")
    if start.colors and max(start.colors) > D:
        raise ValueError(f"fixed start uses color {max(start.colors)} > D={D}")
    return list(start.colors)


class ConflictTracker:
    """Incremental view of the conflicted set.

    Tracks, per vertex, the number of same-colored neighbors, plus the set
    of conflicted vertices as a swap-remove list. Must agree with a full
    recomputation after any recolor; the tests check that on random walks.

    A new tracker lists the conflicted vertices in ascending order; the
    uniform pick indexes the list, so its order is part of the stream
    contract.
    """

    __slots__ = ("adjacency", "colors", "counts", "members", "pos")

    def __init__(self, g: Graph, colors: list[int]):
        self.adjacency = adjacency = g.adjacency
        self.colors = colors
        self.counts = counts = [0] * g.n
        self.members = conflicted = []
        self.pos = pos = [-1] * g.n
        for v, av in enumerate(adjacency):
            cv = colors[v]
            k = 0
            for u in av:
                if colors[u] == cv:
                    k += 1
            if k:
                counts[v] = k
                pos[v] = len(conflicted)
                conflicted.append(v)

    def recolor(self, v: int, new_color: int) -> None:
        """Apply colors[v] = new_color and update all affected counts."""
        colors, counts = self.colors, self.counts
        old = colors[v]
        if new_color == old:
            return
        members, pos = self.members, self.pos
        colors[v] = new_color
        own = 0
        for u in self.adjacency[v]:
            cu = colors[u]
            if cu == old:
                left = counts[u] - 1
                counts[u] = left
                if left == 0:  # swap-remove u
                    i = pos[u]
                    last = members[-1]
                    members[i] = last
                    pos[last] = i
                    members.pop()
                    pos[u] = -1
            elif cu == new_color:
                own += 1
                before = counts[u]
                counts[u] = before + 1
                if before == 0:
                    pos[u] = len(members)
                    members.append(u)
        had = counts[v] > 0
        counts[v] = own
        if own > 0 and not had:
            pos[v] = len(members)
            members.append(v)
        elif own == 0 and had:
            i = pos[v]
            last = members[-1]
            members[i] = last
            pos[last] = i
            members.pop()
            pos[v] = -1


# the graph, start and tracker of the last fixed start `_tracker` built
_fixed_start: list = [None, None, None]


def _tracker(g: Graph, start: Coloring | None, colors: list[int]) -> ConflictTracker:
    """The tracker of a run's initial colors. A fixed start's is built once
    per graph object and start object and copied for every later run; a
    start whose colors have changed since gets a new one."""
    if start is None:
        return ConflictTracker(g, colors)
    graph, last, built = _fixed_start
    if graph is not g or last is not start or built.colors != colors:
        built = ConflictTracker(g, list(colors))
        _fixed_start[:] = g, start, built
    tracker = object.__new__(type(built))
    tracker.adjacency, tracker.colors = built.adjacency, colors
    tracker.counts, tracker.members, tracker.pos = built.counts[:], built.members[:], built.pos[:]
    return tracker


def _uniform_walk(
    g: Graph,
    D: int,
    colors: list[int],
    draw: Callable[[], int],
    per_vertex: list[int],
    cap: int,
    trace_list: list[tuple[int, list[int]]] | None,
) -> tuple[int, int, bool]:
    """The persistent uniform-order run: one permutation walk (see
    `run_persistent`), with no tracker. Returns (step3 draws, selections,
    terminated)."""
    adjacency = g.adjacency
    step3 = 0
    selections = 0
    capped = False
    perm = list(range(g.n))
    for k in range(g.n, 1, -1):
        lim = _TWO53 - _TWO53 % k  # exact-uniform rule (module doc)
        j = draw()
        while j >= lim:
            j = draw()
        j %= k
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
    return step3, selections, not capped


def _run(
    g: Graph,
    D: int,
    start: Coloring | None,
    sched: SchedulerPolicy,
    rng: np.random.Generator,
    step_cap: int | None,
    trace: bool,
    until_clear: bool,
) -> RunResult:
    """Either algorithm: the persistent one when `until_clear` is set.

    Uniform order takes its algorithm's fast path. Every other order runs
    the one policy loop: `adversary.dispatch_pick` chooses for the order,
    then the picked vertex draws one color, or redraws until it is clear.
    A one-draw run under the mimic order redraws until clear too, and keeps
    one-draw bookkeeping: one selection and one trace entry per draw. That
    is exact: while the mimic holds v, v's neighbors keep their colors, so v
    is conflicted exactly when its draw is among theirs, and the mimic's
    pick reads only v's count and the sorted conflicted set, never the
    states between draws.
    A run capped mid-redraw leaves that vertex conflicted, so `not members`
    is exactly "terminated" for both algorithms. Each path leaves its
    counters here, and the run's one `RunResult` is built from them at the
    end. An order of any other class is a TypeError before any draw.
    """
    if D < 1:
        raise ValueError(f"palette size must be >= 1, got {D}")
    if not isinstance(sched, (UniformRandomOrder, FixedPermutationOrder, AdversaryOrder)):
        raise TypeError(f"an order is a UniformRandomOrder, FixedPermutationOrder or "
                        f"AdversaryOrder, not {sched!r}")
    if isinstance(sched, FixedPermutationOrder) and len(sched.order) != g.n:
        raise ValueError("order must be a permutation of 0..n-1")
    cap = default_step_cap(g.n, D) if step_cap is None else step_cap
    draw = _stream(rng, g.n)
    colors = _initial_colors(g, D, start, draw)
    trace_list: list[tuple[int, list[int]]] | None = [] if trace else None
    per_vertex = [0] * g.n
    if isinstance(sched, UniformRandomOrder) and until_clear:
        step3, selections, terminated = _uniform_walk(g, D, colors, draw, per_vertex, cap, trace_list)
    elif isinstance(sched, UniformRandomOrder):
        tracker = _tracker(g, start, colors)
        members = tracker.members
        lim = _TWO53 - _TWO53 % D  # exact-uniform rule (module doc)
        step3 = 0
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
        selections, terminated = step3, not members
    else:
        tracker = _tracker(g, start, colors)
        members, counts = tracker.members, tracker.counts
        coloring = object.__new__(Coloring)  # zero-copy view of the live color list
        coloring.colors, coloring.palette_size = colors, D
        adjacency = g.adjacency
        history: list[int] = []
        lim = _TWO53 - _TWO53 % D
        step3 = 0
        redraw = until_clear or (isinstance(sched, AdversaryOrder)
                                 and sched.strategy is AdversaryStrategy.MimicPersistent)
        while members and step3 < cap:
            # read at call time, so a wrapper set on the module attribute (as
            # perfbench/tracing.py sets one) sees every pick
            v = _adv.dispatch_pick(sched, g, coloring, members, counts, history, draw)
            history.append(v)
            if not redraw:
                j = draw()  # exact-uniform rule (module doc)
                while j >= lim:
                    j = draw()
                x = j % D + 1
                draws = None
                step3 += 1
                per_vertex[v] += 1
            elif until_clear and per_vertex[v]:  # every selection draws at least once
                raise RuntimeError(f"vertex {v} selected twice in a persistent run")
            else:
                draws = _redraw_until_clear(draw, D, {colors[u] for u in adjacency[v]}, cap - step3)
                x = draws[-1]
                step3 += len(draws)
                per_vertex[v] += len(draws)
            # intermediate draws never leave the loop, so one tracker update
            # with the last drawn color is equivalent to applying each draw
            tracker.recolor(v, x)
            if trace_list is not None:
                if until_clear or draws is None:
                    trace_list.append((v, draws or [x]))
                else:  # a one-draw trace has one entry per draw
                    trace_list.extend((v, [y]) for y in draws)
        selections, terminated = len(history) if until_clear else step3, not members
    return RunResult(total_draws=g.n + step3, step3_draws=step3, per_vertex_draws=per_vertex,
                     selections=selections, terminated=terminated,
                     final_coloring=Coloring(colors, D), trace=trace_list)


def run_decentralized(
    g: Graph,
    D: int,
    start: Coloring | None,
    sched: SchedulerPolicy,
    rng: np.random.Generator,
    step_cap: int | None = None,
    trace: bool = False,
) -> RunResult:
    """One-draw-per-selection recoloring until proper or the cap is hit.

    With uniform order the run takes the member-list loop the lockstep
    kernel reproduces; other orders run the shared policy loop. Under the
    mimic order, which re-picks a vertex until it clears, that loop redraws
    each picked vertex until clear in one step, with the same stream and
    the same outputs as one step per draw.
    """
    return _run(g, D, start, sched, rng, step_cap, trace, until_clear=False)


def run_persistent(
    g: Graph,
    D: int,
    start: Coloring | None,
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
    from position 0 up. Other orders run the policy loop `run_decentralized`
    runs, redrawing the picked vertex until it is clear, and re-evaluate
    the policy after each vertex clears.
    """
    return _run(g, D, start, sched, rng, step_cap, trace, until_clear=True)


def trace_to_text(trace: list[tuple[int, list[int]]]) -> str:
    """One line per selection: ``step vertex draw draw ...`` (1-based steps)."""
    lines = []
    for i, (v, draws) in enumerate(trace, start=1):
        lines.append(f"{i} {v} {' '.join(map(str, draws))}")
    return "\n".join(lines) + ("\n" if lines else "")
