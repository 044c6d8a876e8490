from __future__ import annotations

import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from palette_kit import (
    EdgeColoring,
    Hypergraph,
    MalformedInput,
    MultiGraph,
    associated_hypergraph,
    palette_index,
    palettes_of,
)
from palette_kit import families as fam

from bruteforce import bf_associated_hypergraph, pairwise_intersecting
from conftest import multigraphs, random_proper_coloring, random_simple_graph


def test_hypergraph_validation():
    with pytest.raises(MalformedInput):
        Hypergraph(("a", "a"), ())
    with pytest.raises(MalformedInput):
        Hypergraph(("a",), ((1, frozenset()),))
    with pytest.raises(MalformedInput):
        Hypergraph(("a",), ((1, frozenset({3})),))
    with pytest.raises(MalformedInput):
        Hypergraph(("a", "b"), ((0, frozenset({0})),))
    h = Hypergraph(("a", "b"), ((1, frozenset({0, 1})), (2, frozenset({0, 1}))))
    assert h.order == 2  # parallel hyperedges allowed


def test_associated_hypergraph_p4():
    g = fam.path_graph(4)
    coloring = EdgeColoring(g, {0: 1, 1: 2, 2: 1})
    h = associated_hypergraph(coloring)
    assert set(h.vertices) == {frozenset({1}), frozenset({1, 2})}
    sizes = sorted(len(members) for _, members in h.hyperedges)
    assert sizes == [1, 2]  # one loop on the big palette, one joint hyperedge
    big = h.vertices.index(frozenset({1, 2}))
    assert (2, frozenset({big})) in h.hyperedges


def test_associated_hypergraph_k4_three_loops():
    result = palette_index(fam.complete_graph(4))
    h = associated_hypergraph(result.coloring)
    assert h.order == 1
    assert len(h.hyperedges) == 3
    assert all(members == frozenset({0}) for _, members in h.hyperedges)


def test_associated_hypergraph_c5_triangle():
    c5 = fam.cycle_graph(5)
    coloring = EdgeColoring(c5, {0: 1, 1: 2, 2: 1, 3: 2, 4: 3})
    h = associated_hypergraph(coloring)
    assert h.order == 3
    pairs = {members for _, members in h.hyperedges}
    assert len(pairs) == 3
    assert all(len(m) == 2 for m in pairs)  # triangle shape


def test_order_equals_palette_count(rng):
    for _ in range(25):
        g = random_simple_graph(rng, 6, 0.5)
        coloring = random_proper_coloring(rng, g)
        assert associated_hypergraph(coloring).order == len(palettes_of(coloring))


@settings(max_examples=150, deadline=None)
@given(
    multigraphs(max_n=7, max_m=12),
    st.randoms(use_true_random=False),
    st.integers(0, 2),
)
@example(MultiGraph.from_pairs(0, []), random.Random(0), 0)
@example(fam.edgeless(3), random.Random(0), 0)
def test_associated_hypergraph_matches_the_reference(g, r, spread):
    # The reference reads the palettes and hyperedges straight off the
    # colors.  The strategy starts at two vertices, so the examples add the
    # graph without vertices and an edgeless one.
    coloring = random_proper_coloring(r, g, spread=spread)
    reference = bf_associated_hypergraph(coloring)
    assert associated_hypergraph(coloring) == reference
    assert palettes_of(coloring) == reference.vertices


def test_pairwise_intersecting():
    g = fam.path_graph(4)
    h = associated_hypergraph(EdgeColoring(g, {0: 1, 1: 2, 2: 1}))
    assert pairwise_intersecting(h)
    disjoint = Hypergraph(("a", "b"), ((1, frozenset({0})), (2, frozenset({1}))))
    assert not pairwise_intersecting(disjoint)
    lonely = Hypergraph(("a",), ((1, frozenset({0})), (2, frozenset({0}))))
    assert pairwise_intersecting(lonely)


def test_hypergraph_json_and_render():
    g = fam.path_graph(4)
    h = associated_hypergraph(EdgeColoring(g, {0: 1, 1: 2, 2: 1}))
    payload = json.loads(h.to_json())
    assert sorted(payload) == ["hyperedges", "vertices"]
    assert sorted(map(tuple, payload["vertices"])) == [(1,), (1, 2)]
    text = h.render_text()
    assert "loop" in text
    assert "--" in text
