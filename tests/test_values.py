"""Value semantics of the validated types: equal fields compare and hash
equal, fields cannot be reassigned, construction validates, pickling
round-trips.  A certificate's parts and A-sets are plain frozensets, checked
where they come in: ``induced_edge_subgraph`` and ``verify_decomposition_3``."""

from __future__ import annotations

import pickle

import pytest

from palette_kit import (
    Decomposition3,
    EdgeColoring,
    Hypergraph,
    ImproperColoring,
    LoopRejected,
    MalformedInput,
    MultiGraph,
    induced_edge_subgraph,
    verify_decomposition_3,
)
from palette_kit import families as fam


def k4_coloring() -> EdgeColoring:
    # K4's edges 0..5 in from_pairs order: 01 02 03 12 13 23.
    return EdgeColoring(fam.complete_graph(4), {0: 1, 1: 2, 2: 3, 3: 3, 4: 2, 5: 1})


# Each factory builds a fresh instance with the same fields on every call.
VALUES = {
    "MultiGraph": (lambda: MultiGraph(3, ((0, 2, 1), (1, 0, 1)), [5, 6, 7]), "n", True),
    "EdgeColoring": (k4_coloring, "colors", False),
    "Hypergraph": (lambda: Hypergraph(("a", "b"), [(1, {0, 1}), (2, [1])]), "vertices", True),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_fields_compare_and_hash_equal(name):
    make, _, hashable = VALUES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert a != object()
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        # EdgeColoring holds its colors in a dict.
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_fields_cannot_be_assigned(name):
    make, field, _ = VALUES[name]
    value = make()
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) == before
    assert repr(value).startswith(f"{name}(")


def test_fields_are_normalized():
    g = MultiGraph(3, [(0, 2, 1), (1, 0, 1)], [5, 6, 7])
    assert g.edges == ((0, 1, 2), (1, 0, 1)) and g.vertex_labels == (5, 6, 7)
    assert g == MultiGraph(3, ((0, 1, 2), (1, 1, 0)), (5, 6, 7))
    assert g != MultiGraph(3, g.edges)
    h = Hypergraph(("a", "b"), [(1, {0, 1}), (2, [1])])
    assert h.hyperedges == ((1, frozenset({0, 1})), (2, frozenset({1})))
    assert repr(MultiGraph(2, [(0, 0, 1)])) == (
        "MultiGraph(n=2, edges=((0, 0, 1),), vertex_labels=None)")


def test_cached_properties_still_fill():
    g = fam.complete_graph(4)
    assert g.degrees == (3, 3, 3, 3)
    assert g.degrees is g.degrees
    assert set(k4_coloring().colors.values()) == {1, 2, 3}


@pytest.mark.parametrize(
    "build,error",
    [
        (lambda: MultiGraph(-1, ()), MalformedInput),
        (lambda: MultiGraph(2, ((0, 0, 2),)), MalformedInput),
        (lambda: MultiGraph(2, ((0, 1, 1),)), LoopRejected),
        (lambda: MultiGraph(2, ((0, 0, 1), (0, 0, 1))), MalformedInput),
        (lambda: MultiGraph(2, ((0, 0, 1),), (7,)), MalformedInput),
        (lambda: induced_edge_subgraph(fam.cycle_graph(3), frozenset({5})), MalformedInput),
        (lambda: verify_decomposition_3(MultiGraph.from_pairs(2, [(0, 1)]), Decomposition3(
            frozenset({0}), None, None, None, (frozenset({0, 1}),) * 2 + (frozenset(),), None,
        )), MalformedInput),
        (lambda: EdgeColoring(fam.path_graph(3), {0: 1}), ImproperColoring),
        (lambda: EdgeColoring(fam.path_graph(3), {0: 1, 1: 1}), ImproperColoring),
        (lambda: EdgeColoring(fam.path_graph(3), {0: 1, 1: 0}), ImproperColoring),
        (lambda: Hypergraph(("a", "a"), ()), MalformedInput),
        (lambda: Hypergraph(("a",), ((0, {0}),)), MalformedInput),
        (lambda: Hypergraph(("a",), ((1, {0}), (1, {0}))), MalformedInput),
        (lambda: Hypergraph(("a",), ((1, ()),)), MalformedInput),
        (lambda: Hypergraph(("a",), ((1, {1}),)), MalformedInput),
    ],
)
def test_construction_validates(build, error):
    with pytest.raises(error):
        build()


def test_pickle_round_trip():
    coloring = k4_coloring()
    coloring.graph.degrees  # a cached property travels in the instance's __dict__
    for value in (coloring.graph, coloring, MultiGraph(2, [(0, 0, 1)], [4, 9])):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and copy is not value
        with pytest.raises(AttributeError):
            copy.graph = None
