from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palette_kit import (
    EdgeSubset,
    LoopRejected,
    MalformedInput,
    MultiGraph,
    ResourceLimit,
    connected_components,
    decode_graph6,
    disjoint_perfect_matchings,
    has_perfect_matching,
    has_spanning_even_subgraph_no_isolated,
    induced_edge_subgraph,
    is_regular,
    perfect_matchings,
)
from palette_kit import families as fam
from palette_kit import multigraph

from bruteforce import (
    bf_has_perfect_matching,
    bf_has_spanning_even_subgraph,
    bf_ordered_perfect_matchings,
    bf_perfect_matchings,
)
from conftest import FIG4_FRAGILE_60800, multigraphs, random_multigraph, random_simple_graph


def test_rejects_loops():
    with pytest.raises(LoopRejected):
        MultiGraph.from_pairs(2, [(0, 0)])


def test_rejects_bad_endpoints_and_duplicate_ids():
    with pytest.raises(MalformedInput):
        MultiGraph.from_pairs(2, [(0, 5)])
    with pytest.raises(MalformedInput):
        MultiGraph(2, ((0, 0, 1), (0, 1, 0)))


def test_parallel_edges_allowed():
    g = MultiGraph.from_pairs(2, [(0, 1), (0, 1)])
    assert g.m == 2
    assert g.max_multiplicity == 2
    assert g.degrees == (2, 2)


def test_is_regular_examples():
    assert is_regular(fam.petersen_graph()) == 3
    assert is_regular(fam.path_graph(4)) is None
    assert is_regular(fam.edgeless(5)) == 0


def test_induced_subgraph_path():
    p4 = fam.path_graph(4)
    view = induced_edge_subgraph(p4, EdgeSubset(p4, frozenset({0, 2})))
    assert view.n == 4
    assert is_regular(view) == 1
    assert view.vertex_labels == (0, 1, 2, 3)


def test_induced_subgraph_k4_inside_k7():
    k7 = fam.complete_graph(7)
    inside = frozenset(
        eid for eid, u, v in k7.edges if {u, v} <= {0, 1, 2, 3}
    )
    view = induced_edge_subgraph(k7, EdgeSubset(k7, inside))
    assert view.m == 6
    assert view.degrees == (3, 3, 3, 3)
    assert view.vertex_labels == (0, 1, 2, 3)


def test_induced_subgraph_rejects_empty():
    p4 = fam.path_graph(4)
    with pytest.raises(MalformedInput):
        induced_edge_subgraph(p4, EdgeSubset(p4, frozenset()))


def test_induced_subgraph_keeps_edge_ids():
    k4 = fam.complete_graph(4)
    view = induced_edge_subgraph(k4, EdgeSubset(k4, frozenset({2, 5})))
    assert sorted(e[0] for e in view.edges) == [2, 5]


def test_degree_sum_in_views(rng):
    for _ in range(30):
        g = random_multigraph(rng, 6, 10)
        members = frozenset(
            eid for eid, _, _ in g.edges if rng.random() < 0.6
        )
        if not members:
            continue
        view = induced_edge_subgraph(g, EdgeSubset(g, members))
        assert sum(view.degrees) == 2 * len(members)


def test_perfect_matching_examples():
    found, witness = has_perfect_matching(fam.petersen_graph())
    assert found
    assert len(witness) == 5
    assert not has_perfect_matching(fam.star(3))[0]
    assert not has_perfect_matching(fam.path_graph(3))[0]


def test_perfect_matching_witness_is_valid():
    g = fam.complete_bipartite(3, 3)
    found, witness = has_perfect_matching(g)
    assert found
    covered = set()
    for eid in witness:
        _, u, v = g.by_id[eid]
        assert u not in covered and v not in covered
        covered.update((u, v))
    assert covered == set(range(g.n))


def test_perfect_matching_against_bruteforce(rng):
    for _ in range(40):
        g = random_simple_graph(rng, rng.randrange(2, 7), 0.5)
        if g.m > 12:
            continue
        assert has_perfect_matching(g)[0] == bf_has_perfect_matching(g)


@pytest.mark.parametrize(
    "graph",
    [
        fam.no_perfect_matching_cubic(),
        fam.complete_bipartite(9, 11),
        fam.complete_bipartite(2, 4),
        fam.star(3),
        MultiGraph.from_pairs(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
        MultiGraph.from_pairs(6, [(0, 1), (0, 1), (2, 3), (3, 4), (2, 4)]),
    ],
    ids=["cubic-16", "K9,11", "K2,4", "K1,3", "two-triangles", "triangle+K1"],
)
def test_no_perfect_matching(graph):
    assert has_perfect_matching(graph) == (False, None)


@settings(max_examples=200, deadline=None)
@given(multigraphs(max_n=8, max_m=10))
def test_perfect_matchings_against_bruteforce(g):
    # Parallel edges are distinct edge ids, so they give distinct matchings.
    found = [frozenset(pm) for pm in perfect_matchings(g)]
    assert len(found) == len(set(found))
    assert set(found) == set(bf_perfect_matchings(g))
    assert has_perfect_matching(g)[0] == bool(found)


@settings(max_examples=200, deadline=None)
@given(multigraphs(max_n=8, max_m=12))
def test_disjoint_perfect_matchings_against_bruteforce(g):
    matchings = bf_perfect_matchings(g)
    expected = any(a.isdisjoint(b) for a, b in combinations(matchings, 2))
    pair = disjoint_perfect_matchings(g)
    assert (pair is not None) == expected
    if pair is not None:
        first, second = pair
        assert frozenset(first) in matchings and frozenset(second) in matchings
        assert first == tuple(sorted(first)) and second == tuple(sorted(second))
        assert set(first).isdisjoint(second)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_matchings_come_in_the_plain_search_order(data):
    # The memo and the neighbour check cut only branches without a perfect
    # matching, so the search yields what a plain search of G − A yields,
    # in the same order; the disjoint pair is the plain search's first M
    # for which G − M has a perfect matching, with the first such matching.
    g = data.draw(multigraphs(max_n=8, max_m=16))
    avoid = data.draw(st.sets(st.sampled_from(sorted(g.edge_ids)))) if g.m else set()
    assert list(perfect_matchings(g, avoid=avoid)) == bf_ordered_perfect_matchings(g, avoid)
    expected = next(
        ((first, rest[0]) for first in bf_ordered_perfect_matchings(g)
         if (rest := bf_ordered_perfect_matchings(g, set(first)))),
        None,
    )
    assert disjoint_perfect_matchings(g) == expected


def test_disjoint_perfect_matchings_examples():
    assert disjoint_perfect_matchings(MultiGraph(0, ())) is None
    assert disjoint_perfect_matchings(MultiGraph.from_pairs(2, [(0, 1), (0, 1)])) == ((0,), (1,))
    assert disjoint_perfect_matchings(fam.path_graph(4)) is None
    fragile = decode_graph6(FIG4_FRAGILE_60800)
    assert has_perfect_matching(fragile)[0]
    assert disjoint_perfect_matchings(fragile) is None


def test_even_subgraph_examples():
    found, witness = has_spanning_even_subgraph_no_isolated(fam.cycle_graph(5))
    assert found
    assert set(witness) == set(range(5))
    assert not has_spanning_even_subgraph_no_isolated(fam.star(3))[0]


def test_even_subgraph_petersen_two_factor():
    pet = fam.petersen_graph()
    found, witness = has_spanning_even_subgraph_no_isolated(pet)
    assert found
    view = induced_edge_subgraph(pet, EdgeSubset(pet, frozenset(witness)))
    assert view.n == 10
    # cubic graph: even degrees are 0 or 2, so a covering witness is a 2-factor
    assert set(view.degrees) == {2}
    comps = connected_components(view)
    assert sorted(len(c) for c in comps) == [5, 5]


def test_even_subgraph_against_bruteforce(rng):
    for _ in range(40):
        g = random_simple_graph(rng, rng.randrange(2, 7), 0.45)
        if g.m > 12:
            continue
        got, witness = has_spanning_even_subgraph_no_isolated(g)
        assert got == bf_has_spanning_even_subgraph(g)
        if got:
            view = induced_edge_subgraph(g, EdgeSubset(g, frozenset(witness)))
            assert view.n == g.n
            assert all(d >= 2 and d % 2 == 0 for d in view.degrees)


def test_even_subgraph_dimension_cap(monkeypatch):
    # The cap sees the cycle-space dimension m - n + 1: 10 for K6, 36 for
    # K10.  Both have odd degrees, so the whole edge set is no witness.
    for n, cap, dim in [(6, 5, 10), (10, multigraph.EVEN_SUBGRAPH_DIMENSION_CAP, 36)]:
        monkeypatch.setattr(multigraph, "EVEN_SUBGRAPH_DIMENSION_CAP", cap)
        with pytest.raises(ResourceLimit) as info:
            has_spanning_even_subgraph_no_isolated(fam.complete_graph(n))
        assert info.value.size == dim


def test_even_graph_is_its_own_witness_above_the_cap():
    # K9 is 8-regular with a cycle space of dimension 28, over the cap of
    # 25: its whole edge set is the witness, found before the cap applies.
    g = fam.complete_graph(9)
    assert has_spanning_even_subgraph_no_isolated(g) == (True, tuple(range(g.m)))


@pytest.mark.parametrize("k", [6, 7])
def test_even_subgraph_vertex_on_no_cycle_is_decided_before_the_cap(k):
    # Two K_k joined through a vertex of degree 2, whose edges are bridges:
    # no cycle covers it.  The cycle space has dimension 20 for K6 (a walk
    # of 2^20 steps) and 30 for K7 (over the cap of 25).
    cliques = fam.disjoint_union(fam.complete_graph(k), fam.complete_graph(k))
    pairs = [(u, v) for _, u, v in cliques.edges] + [(0, 2 * k), (k, 2 * k)]
    g = MultiGraph.from_pairs(2 * k + 1, pairs)
    assert has_spanning_even_subgraph_no_isolated(g) == (False, None)


def test_even_subgraph_parallel_bundle_needs_no_cycle(monkeypatch):
    # 27 parallel edges span a cycle space of dimension 26, but the
    # underlying simple graph has none: two of the edges are the witness.
    monkeypatch.setattr(multigraph, "EVEN_SUBGRAPH_DIMENSION_CAP", 0)
    g = MultiGraph.from_pairs(2, [(0, 1)] * 27)
    assert has_spanning_even_subgraph_no_isolated(g) == (True, (0, 1))


@settings(max_examples=150, deadline=None)
@given(multigraphs(max_n=5, max_m=11, min_m=1))
def test_even_subgraph_against_bruteforce_with_parallel_edges(g):
    got, witness = has_spanning_even_subgraph_no_isolated(g)
    assert got == bf_has_spanning_even_subgraph(g)
    if got:
        view = induced_edge_subgraph(g, EdgeSubset(g, frozenset(witness)))
        assert view.n == g.n
        assert all(d >= 2 and d % 2 == 0 for d in view.degrees)


def test_connected_components():
    g = fam.disjoint_union(fam.cycle_graph(3), fam.path_graph(2), fam.edgeless(1))
    comps = connected_components(g)
    assert sorted(len(c) for c in comps) == [1, 2, 3]
