"""Graph construction, generators, and the text format."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decolor.graphs import (
    Graph,
    from_edge_list,
    gen_clique,
    gen_complete_bipartite,
    gen_cycle,
    gen_erdos_renyi,
    gen_fig2_like,
    graph_from_text,
    graph_to_text,
    read_graph_file,
)
from decolor.coloring import conflicted_vertices, monochromatic_component_count


def test_triangle_basics():
    g = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    assert g.n == 3
    assert g.max_degree == 2
    assert g.edge_count() == 3
    assert g.adjacency[0] == [1, 2]


def test_from_edge_list_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        from_edge_list(3, [(0, 3)])


def test_from_edge_list_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        from_edge_list(2, [(0, 0)])


def test_from_edge_list_rejects_duplicate():
    # duplicates are an input error, not silently merged
    with pytest.raises(ValueError, match="duplicate"):
        from_edge_list(4, [(0, 1), (1, 0)])


@pytest.mark.parametrize("n", [1, 3, 5])
def test_clique(n):
    g = gen_clique(n)
    assert g.edge_count() == n * (n - 1) // 2
    assert g.max_degree == n - 1
    assert all(g.degree(v) == n - 1 for v in range(n))


def test_complete_bipartite_sides():
    g = gen_complete_bipartite(2, 4)
    assert g.edge_count() == 8
    assert g.max_degree == 4
    assert [g.degree(v) for v in range(6)] == [4, 4, 2, 2, 2, 2]
    for u in range(2):
        assert g.adjacency[u] == [2, 3, 4, 5]


def test_cycle():
    g = gen_cycle(4)
    assert g.edge_count() == 4
    assert all(g.degree(v) == 2 for v in range(4))
    assert gen_cycle(3) == gen_clique(3)
    with pytest.raises(ValueError):
        gen_cycle(2)


def test_erdos_renyi_extremes_and_determinism():
    assert gen_erdos_renyi(5, 0.0, 1).edge_count() == 0
    assert gen_erdos_renyi(5, 1.0, 1) == gen_clique(5)
    assert gen_erdos_renyi(50, 0.1, 7) == gen_erdos_renyi(50, 0.1, 7)
    assert gen_erdos_renyi(50, 0.1, 7) != gen_erdos_renyi(50, 0.1, 8)


@given(n=st.integers(1, 60), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_erdos_renyi_draws_one_value_per_pair_in_row_major_order(n, p, seed):
    # reference: every pair u < v at once, in np.triu_indices order
    iu, ju = np.triu_indices(n, k=1)
    mask = np.random.default_rng(seed).random(iu.size) < p
    want = from_edge_list(n, zip(iu[mask].tolist(), ju[mask].tolist()))
    assert gen_erdos_renyi(n, p, seed) == want


def test_fig2_gadget_structure():
    g, c, focus = gen_fig2_like()
    assert g.n == 5
    assert g.max_degree == 3
    assert c.palette_size == 4
    assert focus == 0
    assert sorted(conflicted_vertices(g, c)) == [0, 1, 4]
    assert monochromatic_component_count(g, c) == 3


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return from_edge_list(n, edges)


@given(small_graphs())
@settings(max_examples=80)
def test_graph_invariants(g: Graph):
    assert len(g.adjacency) == g.n
    assert g.max_degree == max((len(a) for a in g.adjacency), default=0)
    for v, neighbors in enumerate(g.adjacency):
        assert neighbors == sorted(neighbors)
        assert len(set(neighbors)) == len(neighbors)
        for u in neighbors:
            assert 0 <= u < g.n
            assert v in g.adjacency[u]
            assert u != v


@given(small_graphs())
@settings(max_examples=40)
def test_text_round_trip(g: Graph):
    assert graph_from_text(graph_to_text(g)) == g


@pytest.mark.parametrize(
    "text, message",
    [
        ("2 1\n0 1 7\n", "line 2: expected an edge 'u v', got 3 token"),
        ("3\n0 1 x\n", "line 1: expected 'n m', got 1 token"),
        ("3 -1\n", "line 1: edge count must be >= 0, got -1"),
        ("3 2\n0 1\n", "expected 2 edges, found 1"),
        ("3 1\n\n0 x\n", "line 3: 'x' is not an integer"),
        ("3 1\n2 1\n", "line 2: edge \\(2, 1\\) violates"),
        ("", "graph text is empty"),
    ],
)
def test_graph_text_errors_name_the_bad_line(text, message):
    with pytest.raises(ValueError, match=message):
        graph_from_text(text)


def test_file_round_trip(tmp_path):
    g = gen_erdos_renyi(12, 0.3, 99)
    path = tmp_path / "g.txt"
    path.write_text(graph_to_text(g))
    assert read_graph_file(str(path)) == g
    first = path.read_text().splitlines()[0]
    assert first == f"{g.n} {g.edge_count()}"
