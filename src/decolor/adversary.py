"""Adversarial starting colorings and adversarial vertex-selection strategies.

The selection strategies implement the "adversarial order" knob: they pick
which conflicted vertex recolors next, seeing the full current state and the
selection history but never future random bits.
"""

from __future__ import annotations

import enum
from typing import Callable, Sequence

from .coloring import Coloring, conflicted_vertices, free_colors
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
) -> int:
    """Re-select the previous vertex while it stays conflicted.

    Under the one-draw-per-selection algorithm this reproduces the persistent
    variant's redraw loop. When the previous vertex clears (or at the first
    pick), the next vertex comes from `mode`: "uniform" takes
    conflicted[(j * len(conflicted)) >> 53] for the run's next stream value
    j = draw() in [0, 2^53), "lowest" takes the smallest id. Only that
    uniform choice calls `draw`.
    """
    if not conflicted:
        raise ValueError("conflicted set is empty")
    if history:
        last = history[-1]
        if last in conflicted:
            return last
    if mode == "lowest":
        return conflicted[0]
    if mode == "uniform":
        return conflicted[draw() * len(conflicted) >> 53]
    raise ValueError(f"unknown mimic mode {mode!r}")


def _mono_components(g: Graph, colors: list[int]) -> tuple[list[int], list[list[int]]]:
    """Component id per vertex and member lists of the same-color subgraph."""
    comp_id = [-1] * g.n
    comps: list[list[int]] = []
    adjacency = g.adjacency
    for s in range(g.n):
        if comp_id[s] >= 0:
            continue
        cid = len(comps)
        comp_id[s] = cid
        members = [s]
        stack = [s]
        while stack:
            x = stack.pop()
            cx = colors[x]
            for u in adjacency[x]:
                if colors[u] == cx and comp_id[u] < 0:
                    comp_id[u] = cid
                    members.append(u)
                    stack.append(u)
        comps.append(members)
    return comp_id, comps


def _removal_split_counts(g: Graph, colors: list[int], comp: list[int], out: dict[int, int]) -> None:
    """For each vertex of one monochromatic component (size >= 2), store how
    many pieces the component splits into when that vertex is removed.

    One articulation-point DFS per component instead of one BFS per vertex.
    """
    adjacency = g.adjacency
    root = comp[0]
    disc: dict[int, int] = {root: 0}
    low: dict[int, int] = {root: 0}
    split = dict.fromkeys(comp, 0)
    counter = 1
    stack = [(root, -1, iter(adjacency[root]))]
    while stack:
        v, parent, it = stack[-1]
        cv = colors[v]
        descend = -1
        for u in it:
            if colors[u] != cv:
                continue
            if u not in disc:
                descend = u
                break
            if u != parent and disc[u] < low[v]:
                low[v] = disc[u]
        if descend < 0:
            stack.pop()
            if stack:
                pv = stack[-1][0]
                if low[v] < low[pv]:
                    low[pv] = low[v]
                if low[v] >= disc[pv]:
                    split[pv] += 1
            continue
        disc[descend] = low[descend] = counter
        counter += 1
        stack.append((descend, v, iter(adjacency[descend])))
    for v in comp:
        # removing the root leaves one piece per DFS child; removing any
        # other vertex leaves its separated children plus the rest
        out[v] = split[v] if v == root else 1 + split[v]


def phi_drift_numerators(g: Graph, c: Coloring, conflicted: Sequence[int]) -> list[int]:
    """Numerators of the expected one-step component-potential change.

    For conflicted v the exact expected change of the monochromatic-component
    count under a uniform recolor is ((D-1)*k - j) / D, where k is the number
    of pieces v's component splits into without v and j is the number of
    distinct components of other colors adjacent to v. Returning integer
    numerators keeps adversary comparisons exact; the brute-force oracle
    recomputation must match these values on every state.
    """
    colors = c.colors
    D = c.palette_size
    comp_id, comps = _mono_components(g, colors)
    split: dict[int, int] = {}
    for comp in comps:
        if len(comp) >= 2:
            _removal_split_counts(g, colors, comp, split)
    out = []
    for v in conflicted:
        k = split.get(v)
        if k is None:
            raise ValueError(f"vertex {v} is not conflicted")
        cv = colors[v]
        seen: set[int] = set()
        for u in g.adjacency[v]:
            if colors[u] != cv:
                seen.add(comp_id[u])
        out.append((D - 1) * k - len(seen))
    return out


def min_phi_drift_pick(g: Graph, c: Coloring, conflicted: Sequence[int]) -> int:
    """Conflicted vertex whose recolor has the smallest expected
    component-potential gain; ties go to the lowest id."""
    if not conflicted:
        raise ValueError("conflicted set is empty")
    nums = phi_drift_numerators(g, c, conflicted)
    best = 0
    for i in range(1, len(nums)):
        if nums[i] < nums[best]:
            best = i
    return conflicted[best]


def max_conflicted_pick(g: Graph, c: Coloring, conflicted: Sequence[int]) -> int:
    """Conflicted vertex with the most same-colored neighbors; ties lowest id."""
    if not conflicted:
        raise ValueError("conflicted set is empty")
    colors = c.colors
    best_v = conflicted[0]
    best_count = -1
    for v in conflicted:
        cv = colors[v]
        count = sum(1 for u in g.adjacency[v] if colors[u] == cv)
        if count > best_count:
            best_v, best_count = v, count
    return best_v


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
    history: Sequence[int],
    draw: Callable[[], int],
) -> int:
    if strategy is AdversaryStrategy.MimicPersistent:
        return mimic_persistent_pick(g, c, conflicted, history, draw, mode=mode)
    if strategy is AdversaryStrategy.MinPhiDrift:
        return min_phi_drift_pick(g, c, conflicted)
    if strategy is AdversaryStrategy.MaxConflicted:
        return max_conflicted_pick(g, c, conflicted)
    if strategy is AdversaryStrategy.Scripted:
        if script is None:
            raise ValueError("scripted strategy needs a script")
        return scripted_pick(script, conflicted, history)
    raise ValueError(f"unknown strategy {strategy!r}")
