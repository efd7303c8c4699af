"""Coloring state, conflict queries, and the potential functions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decolor.coloring import (
    Coloring,
    coloring_from_text,
    coloring_to_text,
    conflicted_edge_count,
    conflicted_vertices,
    free_colors,
    is_conflicted,
    is_proper,
    monochromatic_component_count,
    random_coloring,
    same_color_counts,
)
from decolor.graphs import from_edge_list, gen_clique, gen_cycle


def test_color_range_is_validated():
    with pytest.raises(ValueError):
        Coloring([0, 1], 2)
    with pytest.raises(ValueError):
        Coloring([1, 3], 2)
    Coloring([1, 2], 2)


def test_conflict_queries_on_triangle():
    g = gen_clique(3)
    c = Coloring([1, 1, 2], 3)
    assert is_conflicted(g, c, 0)
    assert is_conflicted(g, c, 1)
    assert not is_conflicted(g, c, 2)
    assert conflicted_vertices(g, c) == [0, 1]
    assert not is_proper(g, c)
    assert is_proper(g, Coloring([1, 2, 3], 3))


def test_free_colors_ignores_own_color():
    g = gen_clique(3)
    c = Coloring([1, 1, 2], 3)
    # vertex 0 sees neighbor colors {1, 2}; its own color does not block 1
    assert free_colors(g, c, 0) == {3}
    assert free_colors(g, c, 2) == {2, 3}  # own color is free when no neighbor holds it
    single = from_edge_list(2, [(0, 1)])
    assert free_colors(single, Coloring([2, 2], 2), 0) == {1}


def test_potentials_on_the_gadget():
    from decolor.graphs import gen_fig2_like

    g, c, _ = gen_fig2_like()
    assert monochromatic_component_count(g, c) == 3
    assert len(conflicted_vertices(g, c)) == 3
    assert conflicted_edge_count(g, c) == 2


def test_monochromatic_components_counts_proper_as_n():
    g = gen_cycle(4)
    assert monochromatic_component_count(g, Coloring([1, 2, 1, 2], 2)) == 4
    assert monochromatic_component_count(g, Coloring([1, 1, 1, 1], 2)) == 1
    assert conflicted_edge_count(g, Coloring([1, 1, 1, 1], 2)) == 4


def test_random_coloring_is_seeded():
    a = random_coloring(20, 5, np.random.default_rng(3))
    b = random_coloring(20, 5, np.random.default_rng(3))
    assert a.colors == b.colors
    assert all(1 <= x <= 5 for x in a.colors)


def test_text_round_trip():
    c = Coloring([2, 2, 1, 3, 2], 4)
    assert coloring_to_text(c) == "D=4\n2 2 1 3 2\n"
    back = coloring_from_text(coloring_to_text(c))
    assert back.colors == c.colors and back.palette_size == 4
    with pytest.raises(ValueError):
        coloring_from_text("2 2 1\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("D=x\n1 2\n", "line 1: 'x' is not an integer"),
        ("D=3\n\n1 a 2\n", "line 3: 'a' is not an integer"),
    ],
)
def test_coloring_text_errors_name_the_bad_line(text, message):
    with pytest.raises(ValueError, match=message):
        coloring_from_text(text)


@st.composite
def graph_and_coloring(draw):
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = from_edge_list(n, edges)
    D = draw(st.integers(1, 5))
    colors = draw(st.lists(st.integers(1, D), min_size=n, max_size=n))
    return g, Coloring(colors, D)


@given(graph_and_coloring())
@settings(max_examples=100)
def test_conflict_consistency(gc):
    g, c = gc
    listed = conflicted_vertices(g, c)
    assert listed == sorted(listed)
    assert set(listed) == {v for v in range(g.n) if is_conflicted(g, c, v)}
    assert is_proper(g, c) == (not listed)
    assert same_color_counts(g, c.colors) == [
        sum(c.colors[u] == c.colors[v] for u in g.adjacency[v]) for v in range(g.n)
    ]
    # a conflicted vertex keeps its own color out of the free set exactly
    # when some neighbor shares it
    for v in listed:
        assert c.colors[v] not in free_colors(g, c, v)


@given(graph_and_coloring())
@settings(max_examples=100)
def test_potential_bounds(gc):
    g, c = gc
    phi = monochromatic_component_count(g, c)
    assert len(set(c.colors)) <= phi <= g.n
    assert (phi == g.n) == is_proper(g, c)
    assert 0 <= conflicted_edge_count(g, c) <= g.edge_count()
    assert (conflicted_edge_count(g, c) == 0) == is_proper(g, c)
