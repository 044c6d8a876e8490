from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palette_kit import (
    EdgeColoring,
    ImproperColoring,
    MultiGraph,
    chromatic_index,
    extract_decomposition_3,
    induced_edge_subgraph,
    is_class1_regular,
    palette_index,
    palettes_of,
)
from palette_kit import cli
from palette_kit import families as fam
from palette_kit.coloring import _search, _search_order
from palette_kit.formats import encode_edge_list_json
from palette_kit.solver import _proof_order

import frozen
from bruteforce import bf_chromatic_index
from conftest import multigraphs, random_multigraph, random_proper_coloring, random_simple_graph


def test_coloring_validates_properness():
    p3 = fam.path_graph(3)
    for colors, message in [
        ({0: 1, 1: 1}, "vertex 1: incident edges share color 1"),
        ({0: 1}, "assignment must be total on the edge set"),
        ({0: 1, 1: 2, 2: 1}, "assignment must be total on the edge set"),
        ({0: 1, 1: 0}, "edge 1: color must be a positive integer"),
    ]:
        with pytest.raises(ImproperColoring) as raised:
            EdgeColoring(p3, colors)
        assert str(raised.value) == message


def test_coloring_parallel_edges_must_differ():
    g = MultiGraph.from_pairs(2, [(0, 1), (0, 1)])
    with pytest.raises(ImproperColoring):
        EdgeColoring(g, {0: 1, 1: 1})
    ok = EdgeColoring(g, {0: 1, 1: 2})
    assert set(ok.colors.values()) == {1, 2}


def test_palettes_of_c5():
    c5 = fam.cycle_graph(5)
    coloring = EdgeColoring(c5, {0: 1, 1: 2, 2: 1, 3: 2, 4: 3})
    palettes = palettes_of(coloring)
    assert set(palettes) == {
        frozenset({1, 2}),
        frozenset({2, 3}),
        frozenset({1, 3}),
    }
    assert len(palettes) == 3


def test_palettes_of_k4_single():
    k4 = fam.complete_graph(4)
    # explicit 1-factorization: {01,23}, {02,13}, {03,12}
    by_pair = {(u, v): eid for eid, u, v in k4.edges}
    colors = {
        by_pair[(0, 1)]: 1,
        by_pair[(2, 3)]: 1,
        by_pair[(0, 2)]: 2,
        by_pair[(1, 3)]: 2,
        by_pair[(0, 3)]: 3,
        by_pair[(1, 2)]: 3,
    }
    coloring = EdgeColoring(k4, colors)
    assert palettes_of(coloring) == (frozenset({1, 2, 3}),)
    assert set(coloring.vertex_palettes) == {frozenset({1, 2, 3})}


def test_palettes_of_isolated_vertex():
    g = MultiGraph.from_pairs(3, [(0, 1)])
    coloring = EdgeColoring(g, {0: 1})
    assert palettes_of(coloring) == (frozenset(), frozenset({1}))
    assert coloring.vertex_palettes == (frozenset({1}), frozenset({1}), frozenset())


def test_palette_sizes_match_degrees(rng):
    for _ in range(25):
        g = random_multigraph(rng, 6, 9)
        coloring = random_proper_coloring(rng, g)
        for v in range(g.n):
            assert len(coloring.palette(v)) == g.degrees[v]


def test_vertex_palettes_are_the_palettes_of_the_colors(rng):
    # The constructor builds each palette in its properness pass; they must
    # be the palettes recomputed from the colors, and stay out of repr.
    for _ in range(40):
        g = random_multigraph(rng, rng.randrange(2, 8), rng.randrange(0, 12))
        coloring = random_proper_coloring(rng, g, spread=rng.randrange(0, 3))
        assert coloring.vertex_palettes == tuple(
            frozenset(coloring.colors[eid] for eid, _ in g.incidence[v]) for v in range(g.n))
        assert all(coloring.palette(v) == coloring.vertex_palettes[v] for v in range(g.n))
        assert "vertex_palettes" not in repr(coloring)


def test_vertex_classes_partition(rng):
    # The A-sets of a minimal coloring with at most three palettes are its
    # vertex classes: they partition V, one per palette, each one palette.
    for _ in range(40):
        g = random_simple_graph(rng, rng.randrange(1, 7), 0.5)
        if g.m > 12:
            continue
        coloring = palette_index(g).coloring
        if len(palettes_of(coloring)) > 3:
            continue
        a_sets = extract_decomposition_3(coloring).partition
        assert sum(len(a) for a in a_sets) == g.n
        assert frozenset().union(*a_sets) == frozenset(range(g.n))
        classes = [a for a in a_sets if a]
        assert len(classes) == len(palettes_of(coloring))
        assert all(len({coloring.palette(v) for v in a}) == 1 for a in classes)


def test_chromatic_index_examples():
    # Class 1 means chi' equals the max degree.
    c5, k4, k33 = fam.cycle_graph(5), fam.complete_graph(4), fam.complete_bipartite(3, 3)
    assert (chromatic_index(c5).chi_prime, max(c5.degrees)) == (3, 2)
    assert (chromatic_index(k4).chi_prime, max(k4.degrees)) == (3, 3)
    assert (chromatic_index(k33).chi_prime, max(k33.degrees)) == (3, 3)


def test_chromatic_index_k4_witness_is_three_matchings():
    res = chromatic_index(fam.complete_graph(4))
    k4 = fam.complete_graph(4)
    for c in (1, 2, 3):
        members = frozenset(e for e, col in res.witness.colors.items() if col == c)
        view = induced_edge_subgraph(k4, members)
        assert view.degrees == (1, 1, 1, 1)


def test_chromatic_index_edgeless():
    res = chromatic_index(fam.edgeless(3))
    assert res.chi_prime == 0  # Class 1: no degree exceeds 0


def test_chromatic_index_multigraph_shannon_case():
    # doubled triangle: any two edges share a vertex, so chi' = m = 6 > delta
    g = MultiGraph.from_pairs(3, [(0, 1), (0, 1), (0, 2), (0, 2), (1, 2), (1, 2)])
    res = chromatic_index(g)
    assert res.chi_prime == 6
    assert max(g.degrees) == 4  # Class 2


def test_chromatic_index_against_bruteforce(rng):
    for _ in range(30):
        g = random_simple_graph(rng, rng.randrange(2, 6), 0.55)
        if g.m > 10:
            continue
        assert chromatic_index(g).chi_prime == bf_chromatic_index(g)
    for _ in range(10):
        g = random_multigraph(rng, 4, 7)
        assert chromatic_index(g).chi_prime == bf_chromatic_index(g)


def test_chromatic_index_bounds_and_witness(rng):
    for _ in range(25):
        g = random_multigraph(rng, 5, rng.randrange(1, 9))
        res = chromatic_index(g)
        delta = max(g.degrees)
        assert delta <= res.chi_prime <= delta + g.max_multiplicity
        assert set(res.witness.colors.values()) <= set(range(1, res.chi_prime + 1))
        assert len(set(res.witness.colors.values())) == res.chi_prime


def test_is_class1_regular_examples():
    assert is_class1_regular(fam.complete_graph(4))
    assert not is_class1_regular(fam.petersen_graph())
    assert is_class1_regular(fam.cycle_graph(6))
    assert not is_class1_regular(fam.path_graph(4))  # not regular
    assert is_class1_regular(fam.edgeless(4))


def test_induced_regular_class1_equivalence(rng):
    # G[X] is |X|-regular Class 1 iff X is inside the palette of every
    # vertex that X's edges touch; checked both ways on random triples.
    seen_true = seen_false = 0
    for _ in range(60):
        g = random_simple_graph(rng, 6, 0.55)
        if g.m < 2 or g.m > 12:
            continue
        coloring = random_proper_coloring(rng, g)
        colors = sorted(set(coloring.colors.values()))
        take = rng.randrange(1, len(colors) + 1)
        x = frozenset(rng.sample(colors, take))
        members = frozenset(e for e, c in coloring.colors.items() if c in x)
        if not members:
            continue
        view = induced_edge_subgraph(g, members)
        lhs = is_class1_regular(view) is not None and set(view.degrees) == {len(x)}
        rhs = all(
            x <= coloring.palette(v) for v in (view.vertex_labels or ())
        )
        assert lhs == rhs
        seen_true += lhs
        seen_false += not lhs
    assert seen_true and seen_false


PINNED_CHROMATIC_INDEX = [
    (fam.petersen_graph(),
     '{"chi_prime": 4, "class": 2, "colors": [1, 2, 1, 3, 2, 3, 3, 3, 2, 1, 1, 1, 4, 4, 2]}'),
    (fam.complete_graph(4), '{"chi_prime": 3, "class": 1, "colors": [1, 2, 3, 3, 2, 1]}'),
    (fam.cycle_graph(5), '{"chi_prime": 3, "class": 2, "colors": [1, 2, 1, 3, 2]}'),
    (fam.complete_bipartite(3, 3),
     '{"chi_prime": 3, "class": 1, "colors": [1, 2, 3, 2, 3, 1, 3, 1, 2]}'),
    (fam.star(3), '{"chi_prime": 3, "class": 1, "colors": [1, 2, 3]}'),
    (MultiGraph.from_pairs(4, [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (0, 3), (0, 2)]),
     '{"chi_prime": 4, "class": 1, "colors": [1, 2, 4, 1, 2, 4, 3]}'),
]
PINNED_IDS = ["petersen", "K4", "C5", "K3,3", "K1,3", "multigraph"]


@pytest.mark.parametrize("graph,expected", PINNED_CHROMATIC_INDEX, ids=PINNED_IDS)
def test_chromatic_index_json_is_pinned(tmp_path, graph, expected):
    # Strings produced by the dedicated k-coloring search that preceded the
    # shared kernel; chi' and the witness must not move.
    path = tmp_path / "g.json"
    path.write_text(encode_edge_list_json(graph))
    out = io.StringIO()
    assert cli.cli_main(["chromatic-index", str(path)], out) == 0
    assert out.getvalue() == expected + "\n"


@pytest.mark.parametrize("graph", [g for g, _ in PINNED_CHROMATIC_INDEX], ids=PINNED_IDS)
def test_palette_index_reports_the_chromatic_index(graph):
    assert palette_index(graph).chi_prime == chromatic_index(graph).chi_prime


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_search_matches_the_counting_kernel(data):
    # The kernel reads closing positions off the order where the frozen copy
    # counts uncolored edges; both must return the same dict, in the same
    # key order, or None for every target, budget and edge order.  A drawn
    # graph may have isolated vertices and parallel edges, and its edge ids
    # follow the draw order.
    g = data.draw(multigraphs(max_n=7, max_m=10))
    shuffled = tuple(data.draw(st.permutations(g.edges)))
    delta = max(g.degrees)
    for order in (_search_order(g), _proof_order(g), tuple(sorted(g.edges)), shuffled):
        for t in range(g.n + 1):
            for k in range(max(delta - 1, 0), t * delta + 1):
                found, expected = _search(g, t, k, order), frozen._search(g, t, k, order)
                assert found == expected, (t, k, order)
                if found is not None:
                    assert list(found) == list(expected)
