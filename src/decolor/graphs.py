"""Graph representation, validation, and generators.

Vertices are dense integers 0..n-1. Graphs are simple (no self-loops, no
parallel edges), undirected, and immutable after construction.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class Graph:
    """Undirected simple graph with sorted adjacency lists and cached max degree.

    Build instances with :func:`from_edge_list` or one of the generators; the
    constructor itself trusts its input.
    """

    __slots__ = ("n", "adjacency", "max_degree")

    def __init__(self, n: int, adjacency: list[list[int]]):
        self.n = n
        self.adjacency = adjacency
        self.max_degree = max((len(a) for a in adjacency), default=0)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adjacency == other.adjacency

    def __hash__(self) -> int:
        return hash((self.n, tuple(map(tuple, self.adjacency))))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()}, max_degree={self.max_degree})"


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a validated Graph from an edge list.

    Rejects out-of-range vertex ids, self-loops, and duplicate edges with
    distinct error messages. Duplicates are an input error, not merged:
    silently deduplicating would mask generator and config bugs.
    """
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    adjacency: list[list[int]] = [[] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex id out of range in edge ({u}, {v}) for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"duplicate edge ({key[0]}, {key[1]})")
        seen.add(key)
        adjacency[u].append(v)
        adjacency[v].append(u)
    for a in adjacency:
        a.sort()
    return Graph(n, adjacency)


def gen_clique(n: int) -> Graph:
    """Complete graph K_n."""
    if n < 1:
        raise ValueError(f"clique size must be >= 1, got {n}")
    return from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def gen_complete_bipartite(a: int, b: int) -> Graph:
    """Complete bipartite graph: left ids 0..a-1, right ids a..a+b-1."""
    if a < 1 or b < 1:
        raise ValueError(f"both sides must be non-empty, got a={a}, b={b}")
    return from_edge_list(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def gen_cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices."""
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return from_edge_list(n, [(v, v + 1) for v in range(n - 1)] + [(0, n - 1)])


def gen_erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each unordered pair is an edge independently with probability p.

    Deterministic for a fixed seed.
    """
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    # the pairs u < v take one value each in row-major order; drawing a row
    # at a time keeps memory O(n) where all pairs at once took O(n^2)
    edges = []
    for u in range(n - 1):
        hits = np.flatnonzero(rng.random(n - 1 - u) < p) + (u + 1)
        edges.extend((u, v) for v in hits.tolist())
    return from_edge_list(n, edges)


def gen_fig2_like():
    """Five-vertex gadget where recoloring the focus vertex is expected to
    *increase* the number of conflicted vertices.

    Layout (colors 1=red, 2=green, 3=blue, 4=yellow, palette D=4):

        focus vertex 0 is green; its neighbors are 1 (green), 2 (red),
        3 (blue); vertex 1 has one further neighbor 4 (green), which is
        not adjacent to 0.

    Recoloring vertex 0 changes the conflicted-vertex count by 0 (green),
    -1 (yellow), +1 (red), +1 (blue), so the expected change is +1/4 even
    though the component potential still rises by 1/4. Returns
    (graph, coloring, focus_vertex).
    """
    from .coloring import Coloring

    g = from_edge_list(5, [(0, 1), (0, 2), (0, 3), (1, 4)])
    c = Coloring([2, 2, 1, 3, 2], 4)
    return g, c, 0


def graph_to_text(g: Graph) -> str:
    """Serialize: line 1 is ``n m``, then one ``u v`` line per edge (u < v)."""
    lines = [f"{g.n} {g.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    """Parse the text format written by :func:`graph_to_text`; validates fully.

    Blank lines are skipped; an error names the line it found.
    """
    lines = [(k, line.split()) for k, line in enumerate(text.splitlines(), start=1)]
    lines = [(k, tokens) for k, tokens in lines if tokens]
    if not lines:
        raise ValueError("graph text is empty; it must start with a line 'n m'")
    k, tokens = lines[0]
    if len(tokens) != 2:
        raise ValueError(f"line {k}: expected 'n m', got {len(tokens)} token(s)")
    n, m = (_int_token(token, k) for token in tokens)
    if m < 0:
        raise ValueError(f"line {k}: edge count must be >= 0, got {m}")
    edges = []
    for k, tokens in lines[1:]:
        if len(tokens) != 2:
            raise ValueError(f"line {k}: expected an edge 'u v', got {len(tokens)} token(s)")
        u, v = (_int_token(token, k) for token in tokens)
        if not u < v:
            raise ValueError(f"line {k}: edge ({u}, {v}) violates the u < v convention")
        edges.append((u, v))
    if len(edges) != m:
        raise ValueError(f"expected {m} edges, found {len(edges)}")
    return from_edge_list(n, edges)


def _int_token(token: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"line {line}: {token!r} is not an integer") from None


def read_graph_file(path: str) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return graph_from_text(fh.read())

