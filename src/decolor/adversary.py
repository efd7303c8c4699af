"""Adversarial starting colorings and adversarial vertex-selection strategies.

The selection strategies implement the "adversarial order" knob: they pick
which conflicted vertex recolors next, seeing the full current state and the
selection history but never future random bits.

The min-drift strategy needs the monochromatic components and their
articulation data at every pick. `DriftState` keeps them for a run and
updates them from the one vertex that recolored since the last pick; a
fresh state's full pass serves `phi_drift_numerators`, and so the drift
audit.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable, Sequence

from .coloring import Coloring, conflicted_vertices, free_colors, same_color_counts
from .graphs import Graph, gen_complete_bipartite


class AdversaryStrategy(enum.Enum):
    """Closed set of built-in selection strategies."""

    MimicPersistent = "mimic"
    MinPhiDrift = "min-drift"
    MaxConflicted = "max-conflicted"
    Scripted = "script"


# read by dispatch_pick on every pick; a member read costs several times a global's
_MIMIC, _MIN_DRIFT, _MAX_CONFLICTED, _SCRIPTED = (
    AdversaryStrategy.MimicPersistent, AdversaryStrategy.MinPhiDrift,
    AdversaryStrategy.MaxConflicted, AdversaryStrategy.Scripted)


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
    variant's redraw loop, so the engine runs a one-draw mimic run as that
    loop: it calls this once per selected vertex, not once per draw, with
    the same stream and outputs. When the previous vertex clears (or at the
    first pick), the next vertex comes from `mode`: "uniform" takes
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


class DriftState:
    """The monochromatic components of one run's coloring and the
    `min-drift` numerators over them, kept from one pick to the next.

    For the coloring it last saw, the state holds a component label per
    vertex (the id of one member, so a clear vertex is the only holder of
    its own id), the members of each component of two or more vertices,
    k[v], the number of pieces v's component splits into without v (0 for
    a clear vertex), and num[v] = (D-1)*k[v] - j[v] for every conflicted v,
    as `phi_drift_numerators` defines it.

    `numerators` first applies the recolor of the vertex last picked to the
    stored coloring and compares the result with the live one. When they
    agree, the state updates from that one recolor (`_recolor`); an
    unchanged color keeps every numerator. Any other difference, another
    graph, another palette or no pick since the last call rebuilds it in
    one full pass, so the state is exact for any caller. A new state is
    empty, and a pickled one unpickles empty, so pool workers start afresh.
    """

    __slots__ = ("graph", "D", "colors", "last", "label", "members", "k", "num",
                 "disc", "low", "clock")

    def __init__(self) -> None:
        self.graph = None
        self.last = -1  # the vertex picked from the stored coloring, if any

    def __reduce__(self):
        return DriftState, ()

    def numerators(self, g: Graph, colors: list[int], D: int, counts: Sequence[int],
                   conflicted: Sequence[int]) -> list[int]:
        """num, indexed by vertex, for `colors` on g with palette D, given
        the coloring's same-color `counts` and its whole conflicted set in
        any order. Only the entries of conflicted vertices are meaningful."""
        h, self.last = self.last, -1
        if h >= 0 and g is self.graph and D == self.D:
            seen = self.colors
            old = seen[h]
            seen[h] = colors[h]
            if seen == colors:
                if old != seen[h]:
                    self._recolor(h, old, counts, conflicted)
                return self.num
        self._build(g, colors, D, counts, conflicted)
        return self.num

    def _build(self, g: Graph, colors: list[int], D: int, counts: Sequence[int],
               conflicted: Sequence[int]) -> None:
        """The full pass: every component from scratch."""
        n = g.n
        if g is not self.graph:
            self.graph = g
            self.disc = [-1] * n
            self.low = [0] * n
            self.clock = 0
        self.D = D
        self.colors = list(colors)
        self.label = list(range(n))
        self.k = [0] * n
        self.members = [None] * n
        self.num = [0] * n
        self._components(conflicted)
        self._renumber(conflicted, counts)

    def _components(self, roots: Sequence[int]) -> list[int]:
        """Relabel the monochromatic components through `roots`, each by its
        first root, and set their k and members; returns their vertices.

        One articulation-point DFS (Hopcroft-Tarjan lowlink) per component:
        a vertex's k is one per DFS child its removal separates, plus one
        for the rest of the component unless it is the root. Discovery
        times grow across calls, so a vertex is unvisited in this call
        exactly when its time predates the call.
        """
        adjacency, colors = self.graph.adjacency, self.colors
        label, k, members, disc, low = self.label, self.k, self.members, self.disc, self.low
        clock = base = self.clock
        visited: list[int] = []
        for root in roots:
            if disc[root] >= base:
                continue
            cr = colors[root]
            label[root] = root
            k[root] = 0
            disc[root] = low[root] = clock
            clock += 1
            comp = [root]
            stack = [(root, -1, iter(adjacency[root]))]
            while stack:
                v, parent, it = stack[-1]
                for u in it:
                    if colors[u] != cr:
                        continue
                    if disc[u] < base:
                        label[u] = root
                        k[u] = 1
                        disc[u] = low[u] = clock
                        clock += 1
                        comp.append(u)
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
                            k[pv] += 1
            members[root] = comp if len(comp) > 1 else None
            visited += comp
        self.clock = clock
        return visited

    def _renumber(self, vertices: Iterable[int], counts: Sequence[int]) -> None:
        """num for each conflicted one of `vertices`, by their `counts`.

        j, the number of distinct other-colored components next to v, is
        the number of distinct labels among v's neighbors less one: v's
        same-colored neighbors all carry v's own label, and every other
        component has a label of its own.
        """
        adjacency, label, k, num = self.graph.adjacency, self.label, self.k, self.num
        d1 = self.D - 1
        for v in vertices:
            if counts[v]:
                num[v] = d1 * k[v] + 1 - len({label[u] for u in adjacency[v]})

    def _recolor(self, h: int, old: int, counts: Sequence[int], conflicted: Sequence[int]) -> None:
        """Update from h's recolor from `old` to its stored color.

        Detach: when h's old-colored neighbors are pairwise adjacent, the
        rest of h's component stays whole and only a lone neighbor p loses
        a piece (h was p's leaf); a pair {h, p} dissolves. Attach: when h's
        new-colored neighbors are pairwise adjacent, h joins their component
        as one more vertex, and only a lone neighbor u gains a piece (a
        clear u makes a pair with h). Otherwise the pieces left behind, or
        the merged component, are relabelled by the DFS from h's neighbors,
        or from h. The numerators change only at h, its neighbors, the
        relabelled vertices and their neighbors. When the components to
        relabel hold as many vertices as the coloring has conflicted ones,
        one full pass does the same work without the bookkeeping.
        """
        adjacency, colors = self.graph.adjacency, self.colors
        label, k, members = self.label, self.k, self.members
        new = colors[h]
        below = []
        above = []
        for u in adjacency[h]:
            cu = colors[u]
            if cu == old:
                below.append(u)
            elif cu == new:
                above.append(u)
        lab = label[h]
        split = len(below) > 1 and not _pairwise_adjacent(adjacency, below)
        merge = len(above) > 1 and not _pairwise_adjacent(adjacency, above)
        span = len(members[lab]) - 1 if split else 0
        if merge:
            span += 1 + sum(len(members[x] or (x,)) for x in {label[u] for u in above})
        if span >= len(conflicted):
            self._build(self.graph, colors, self.D, counts, conflicted)
            return
        relabelled: list[int] = []
        if split:
            members[lab] = None
            relabelled = self._components(below)
        elif below:
            p = below[0]
            if len(below) == 1:
                k[p] -= 1
            if not k[p]:
                members[lab] = None
                label[p] = p
            else:
                comp = members[lab]
                comp.remove(h)
                if lab == h:  # the component takes p's id
                    members[h] = None
                    members[p] = comp
                    for w in comp:
                        label[w] = p
        if merge:
            for u in above:
                members[label[u]] = None
            relabelled += self._components([h])
        elif above:
            u = above[0]
            lu = label[u]
            if k[u]:
                members[lu].append(h)
            else:
                members[u] = [u, h]
            if len(above) == 1:
                k[u] += 1
            label[h] = lu
            k[h] = 1
        else:
            label[h] = h
            k[h] = 0
        if relabelled:
            todo = {h, *adjacency[h], *relabelled}
            for w in relabelled:
                todo.update(adjacency[w])
            self._renumber(todo, counts)
        else:
            self._renumber((h, *adjacency[h]), counts)


def _pairwise_adjacent(adjacency: list[list[int]], vertices: list[int]) -> bool:
    """Whether `vertices` form a clique: then, being one color, they lie in
    one component, and a vertex next to all of them joins or leaves that
    component without changing any other vertex's pieces."""
    for i, a in enumerate(vertices):
        near = adjacency[a]
        for b in vertices[i + 1:]:
            if b not in near:
                return False
    return True


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
    num = DriftState().numerators(g, c.colors, c.palette_size, counts, whole)
    return [num[v] for v in conflicted]


def min_phi_drift_pick(g: Graph, c: Coloring, conflicted: Sequence[int],
                       counts: Sequence[int] | None = None,
                       state: DriftState | None = None) -> int:
    """Conflicted vertex whose recolor has the smallest expected
    component-potential gain; ties go to the lowest id, whatever the order
    of `conflicted`. A caller that passes the state's same-color neighbor
    `counts` must pass the whole conflicted set, and may pass a `DriftState`
    it keeps across the picks of its runs; without `counts` the numerators
    are computed afresh."""
    if not conflicted:
        raise ValueError("conflicted set is empty")
    if counts is None:
        nums = phi_drift_numerators(g, c, conflicted)
        return min(zip(nums, conflicted))[1]
    if state is None:
        state = DriftState()
    num = state.numerators(g, c.colors, c.palette_size, counts, conflicted)
    v = min(zip(map(num.__getitem__, conflicted), conflicted))[1]
    state.last = v
    return v


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
    drift: DriftState | None = None,
) -> int:
    """One adversary pick from the whole conflicted set, in any order, and
    the state's same-color neighbor counts; `drift` is the min-drift
    picker's state, kept by the caller across picks."""
    # the pickers are module attributes, read at call time, so a wrapper set
    # on one (as perfbench/tracing.py sets) sees every pick
    if strategy is _MIMIC:
        return mimic_persistent_pick(g, c, conflicted, history, draw, mode=mode, counts=counts)
    if strategy is _MIN_DRIFT:
        return min_phi_drift_pick(g, c, conflicted, counts, drift)
    if strategy is _MAX_CONFLICTED:
        return max_conflicted_pick(g, c, conflicted, counts)
    if strategy is _SCRIPTED:
        if script is None:
            raise ValueError("scripted strategy needs a script")
        return scripted_pick(script, conflicted, history)
    raise ValueError(f"unknown strategy {strategy!r}")
