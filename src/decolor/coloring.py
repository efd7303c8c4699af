"""Coloring state, conflict queries, free colors, and potential functions.

Colors are integers 1..D. A vertex is conflicted when at least one neighbor
currently holds the same color; that single bit is all the decentralized
model lets a vertex observe.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .graphs import Graph, _int_token


class Coloring:
    """Mutable vertex -> color assignment over the palette {1..D}."""

    __slots__ = ("colors", "palette_size")

    def __init__(self, colors: list[int], palette_size: int):
        if palette_size < 1:
            raise ValueError(f"palette size must be >= 1, got {palette_size}")
        if colors and not (1 <= min(colors) and max(colors) <= palette_size):
            for v, c in enumerate(colors):  # name the first offending vertex
                if not (1 <= c <= palette_size):
                    raise ValueError(
                        f"color {c} at vertex {v} outside palette 1..{palette_size}"
                    )
        self.colors = list(colors)
        self.palette_size = palette_size

    def copy(self) -> "Coloring":
        out = object.__new__(Coloring)
        out.colors = list(self.colors)
        out.palette_size = self.palette_size
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Coloring):
            return NotImplemented
        return self.palette_size == other.palette_size and self.colors == other.colors

    def __repr__(self) -> str:
        return f"Coloring({self.colors}, D={self.palette_size})"


def random_coloring(n: int, D: int, rng: np.random.Generator) -> Coloring:
    """Each vertex draws its color i.i.d. uniform on {1..D}."""
    if D < 1:
        raise ValueError(f"palette size must be >= 1, got {D}")
    out = object.__new__(Coloring)
    out.colors = rng.integers(1, D + 1, size=n).tolist()
    out.palette_size = D
    return out


def is_conflicted(g: Graph, c: Coloring, v: int) -> bool:
    """True iff some neighbor of v currently has v's color."""
    colors = c.colors
    cv = colors[v]
    return any(colors[u] == cv for u in g.adjacency[v])


def same_color_counts(g: Graph, colors: Sequence[int]) -> list[int]:
    """Per vertex, the number of neighbors holding its color; a vertex is
    conflicted exactly when its count is positive."""
    counts = [0] * g.n
    for v, av in enumerate(g.adjacency):
        cv = colors[v]
        k = 0
        for u in av:
            if colors[u] == cv:
                k += 1
        counts[v] = k
    return counts


def conflicted_vertices(g: Graph, c: Coloring) -> list[int]:
    """All conflicted vertices, ascending."""
    return [v for v, k in enumerate(same_color_counts(g, c.colors)) if k]


def is_proper(g: Graph, c: Coloring) -> bool:
    return not any(is_conflicted(g, c, v) for v in range(g.n))


def free_colors(g: Graph, c: Coloring, v: int) -> set[int]:
    """Palette colors not used by any neighbor of v.

    v's own color is not excluded: a recoloring vertex draws from the whole
    palette, and its current color counts as free when no neighbor holds it.
    """
    used = {c.colors[u] for u in g.adjacency[v]}
    return {x for x in range(1, c.palette_size + 1) if x not in used}


def conflicted_edge_count(g: Graph, c: Coloring) -> int:
    """Number of edges whose endpoints share a color."""
    colors = c.colors
    total = 0
    for u in range(g.n):
        cu = colors[u]
        for v in g.adjacency[u]:
            if u < v and colors[v] == cu:
                total += 1
    return total


def monochromatic_component_count(g: Graph, c: Coloring) -> int:
    """Number of connected components of the same-color subgraph.

    Every vertex counts, singletons included, so the value runs from 1 up to
    n, and equals n exactly when the coloring is proper. Computed with a
    disjoint-set union over the edges whose endpoints share a color.
    """
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    colors = c.colors
    count = g.n
    for u in range(g.n):
        cu = colors[u]
        for v in g.adjacency[u]:
            if u < v and colors[v] == cu:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
                    count -= 1
    return count


def coloring_to_text(c: Coloring) -> str:
    """Serialize: line 1 is ``D=<int>``, line 2 the colors in vertex order."""
    return f"D={c.palette_size}\n{' '.join(map(str, c.colors))}\n"


def coloring_from_text(text: str) -> Coloring:
    """Parse the text format written by :func:`coloring_to_text`.

    Blank lines are skipped; a token that is not an integer names its line.
    """
    lines = [(k, line) for k, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if len(lines) != 2 or not lines[0][1].startswith("D="):
        raise ValueError("coloring text must be 'D=<int>' then one line of colors")
    (k, head), (j, body) = lines
    D = _int_token(head[2:].strip(), k)
    colors = [_int_token(tok, j) for tok in body.split()]
    return Coloring(colors, D)


def read_coloring_file(path: str) -> Coloring:
    with open(path, "r", encoding="ascii") as fh:
        return coloring_from_text(fh.read())
