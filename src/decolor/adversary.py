"""Adversarial starting colorings and adversarial vertex-selection strategies.

The selection strategies implement the "adversarial order" knob: they pick
which conflicted vertex recolors next, seeing the full current state and the
selection history but never future random bits.
"""

from __future__ import annotations

import enum
from typing import Callable, Sequence

from .coloring import Coloring, conflicted_vertices, free_colors, same_color_counts
from .graphs import Graph, gen_complete_bipartite


class AdversaryStrategy(enum.Enum):
    """Closed set of built-in selection strategies."""

    MimicPersistent = "mimic"
    MinPhiDrift = "min-drift"
    MaxConflicted = "max-conflicted"
    Scripted = "script"


def bad_bipartite_start(delta: int) -> tuple[Graph, Coloring]:
    """Worst-case start on K_{delta,delta} with palette D = delta + 1.

    Every left vertex gets color 1 ("green"); the right side uses the
    delta distinct colors 1..delta, so exactly one right vertex is also
    green. Each left vertex then conflicts only with that right vertex and
    has exactly one free color, which forces roughly quadratic work.
    """
    if delta < 1:
        raise ValueError(f"degree must be >= 1, got {delta}")
    g = gen_complete_bipartite(delta, delta)
    c = Coloring([1] * delta + list(range(1, delta + 1)), delta + 1)
    # both published post-conditions are cheap; check them on every build
    if conflicted_vertices(g, c) != list(range(delta + 1)):
        raise RuntimeError("bad bipartite start: unexpected conflicted set")
    for v in range(delta):
        if len(free_colors(g, c, v)) != 1:
            raise RuntimeError("bad bipartite start: left vertex free-color count != 1")
    return g, c


def mimic_persistent_pick(
    g: Graph,
    c: Coloring,
    conflicted: Sequence[int],
    history: Sequence[int],
    draw: Callable[[], int],
    mode: str = "uniform",
    counts: Sequence[int] | None = None,
) -> int:
    """Re-select the previous vertex while it stays conflicted.

    Under the one-draw-per-selection algorithm this reproduces the persistent
    variant's redraw loop. When the previous vertex clears (or at the first
    pick), the next vertex comes from `mode`: "uniform" takes
    sorted(conflicted)[(j * len(conflicted)) >> 53] for the run's next stream
    value j = draw() in [0, 2^53), "lowest" takes the smallest id. Only that
    uniform choice calls `draw`. `counts` are the state's same-color
    neighbor counts (see `same_color_counts`) when the caller keeps them.
    """
    if not conflicted:
        raise ValueError("conflicted set is empty")
    if history:
        if counts is None:
            counts = same_color_counts(g, c.colors)
        last = history[-1]
        if counts[last] > 0:
            return last
    if mode == "lowest":
        return min(conflicted)
    if mode == "uniform":
        return sorted(conflicted)[draw() * len(conflicted) >> 53]
    raise ValueError(f"unknown mimic mode {mode!r}")


def _drift_numerators(g: Graph, colors: list[int], D: int, counts: Sequence[int],
                      conflicted: Sequence[int]) -> list[int]:
    """Per vertex v of `conflicted`, which must be the whole conflicted set
    in any order, out[v] = (D-1)*k - j as in `phi_drift_numerators`.

    The monochromatic components of size >= 2 are exactly those of the
    conflicted vertices, so one articulation-point DFS started from them
    labels every such component by its root and counts, per vertex, the
    pieces its component splits into without it. Every other vertex is a
    singleton component of its own, which `counts` tells in O(1).
    """
    adjacency = g.adjacency
    n = g.n
    root_of = [-1] * n
    disc = [0] * n
    low = [0] * n
    # first the pieces k left by removing v (one per separated DFS child,
    # plus the rest of the component unless v is the root), then v's numerator
    out = [0] * n
    clock = 0
    for root in conflicted:
        if root_of[root] >= 0:
            continue
        cr = colors[root]
        root_of[root] = root
        disc[root] = low[root] = clock
        clock += 1
        stack = [(root, -1, iter(adjacency[root]))]
        while stack:
            v, parent, it = stack[-1]
            for u in it:
                if colors[u] != cr:
                    continue
                if root_of[u] < 0:
                    root_of[u] = root
                    disc[u] = low[u] = clock
                    clock += 1
                    out[u] = 1
                    stack.append((u, v, iter(adjacency[u])))
                    break
                if u != parent and disc[u] < low[v]:
                    low[v] = disc[u]
            else:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    if low[v] < low[pv]:
                        low[pv] = low[v]
                    if low[v] >= disc[pv]:
                        out[pv] += 1
    # j: distinct other-colored components next to v, deduplicated by root
    seen_by = [-1] * n
    for v in conflicted:
        cv = colors[v]
        j = 0
        for u in adjacency[v]:
            if colors[u] != cv:
                if counts[u] == 0:
                    j += 1
                else:
                    r = root_of[u]
                    if seen_by[r] != v:
                        seen_by[r] = v
                        j += 1
        out[v] = (D - 1) * out[v] - j
    return out


def phi_drift_numerators(g: Graph, c: Coloring, conflicted: Sequence[int]) -> list[int]:
    """Numerators of the expected one-step component-potential change.

    For conflicted v the exact expected change of the monochromatic-component
    count under a uniform recolor is ((D-1)*k - j) / D, where k is the number
    of pieces v's component splits into without v and j is the number of
    distinct components of other colors adjacent to v. `conflicted` may be
    any subset of the conflicted vertices, in any order. Returning integer
    numerators keeps adversary comparisons exact; the brute-force oracle
    recomputation must match these values on every state.
    """
    counts = same_color_counts(g, c.colors)
    for v in conflicted:
        if counts[v] == 0:
            raise ValueError(f"vertex {v} is not conflicted")
    whole = [v for v in range(g.n) if counts[v]]
    num = _drift_numerators(g, c.colors, c.palette_size, counts, whole)
    return [num[v] for v in conflicted]


def min_phi_drift_pick(g: Graph, c: Coloring, conflicted: Sequence[int],
                       counts: Sequence[int] | None = None) -> int:
    """Conflicted vertex whose recolor has the smallest expected
    component-potential gain; ties go to the lowest id, whatever the order
    of `conflicted`. A caller that passes the state's same-color neighbor
    `counts` must pass the whole conflicted set."""
    if not conflicted:
        raise ValueError("conflicted set is empty")
    if counts is None:
        nums = phi_drift_numerators(g, c, conflicted)
        return min(zip(nums, conflicted))[1]
    num = _drift_numerators(g, c.colors, c.palette_size, counts, conflicted)
    return min(conflicted, key=lambda v: (num[v], v))


def max_conflicted_pick(g: Graph, c: Coloring, conflicted: Sequence[int],
                        counts: Sequence[int] | None = None) -> int:
    """Conflicted vertex with the most same-colored neighbors; ties go to the
    lowest id, whatever the order of `conflicted`."""
    if not conflicted:
        raise ValueError("conflicted set is empty")
    if counts is None:
        counts = same_color_counts(g, c.colors)
    return min(conflicted, key=lambda v: (-counts[v], v))


def scripted_pick(script: Sequence[int], conflicted: Sequence[int], history: Sequence[int]) -> int:
    """Replay a fixed selection script; position = number of picks so far."""
    idx = len(history)
    if idx >= len(script):
        raise ValueError(f"selection script exhausted after {idx} picks")
    v = script[idx]
    if v not in conflicted:
        raise ValueError(f"scripted vertex {v} is not conflicted at pick {idx}")
    return v


def dispatch_pick(
    strategy: AdversaryStrategy,
    mode: str,
    script: Sequence[int] | None,
    g: Graph,
    c: Coloring,
    conflicted: Sequence[int],
    counts: Sequence[int],
    history: Sequence[int],
    draw: Callable[[], int],
) -> int:
    """One adversary pick from the whole conflicted set, in any order, and
    the state's same-color neighbor counts."""
    if strategy is AdversaryStrategy.MimicPersistent:
        return mimic_persistent_pick(g, c, conflicted, history, draw, mode=mode, counts=counts)
    if strategy is AdversaryStrategy.MinPhiDrift:
        return min_phi_drift_pick(g, c, conflicted, counts)
    if strategy is AdversaryStrategy.MaxConflicted:
        return max_conflicted_pick(g, c, conflicted, counts)
    if strategy is AdversaryStrategy.Scripted:
        if script is None:
            raise ValueError("scripted strategy needs a script")
        return scripted_pick(script, conflicted, history)
    raise ValueError(f"unknown strategy {strategy!r}")
