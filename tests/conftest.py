from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import strategies as st

from palette_kit import MultiGraph


# Fig. 4 candidate T + M of rank 60800: 4-regular on 16 vertices, 32 edges,
# with a perfect matching but no two edge-disjoint ones.
FIG4_FRAGILE_60800 = "ON^g?CB?{F???@?D_?{?L"


@pytest.fixture(scope="session")
def rng() -> random.Random:
    return random.Random(20240811)


def nx_line(graph: MultiGraph, write=nx.to_graph6_bytes) -> str:
    """The line networkx's writer (``nx.to_graph6_bytes`` or
    ``nx.to_sparse6_bytes``) gives for graph, vertex i written as i."""
    nxg = nx.empty_graph(graph.n, nx.MultiGraph if graph.max_multiplicity > 1 else nx.Graph)
    nxg.add_edges_from((u, v) for _, u, v in graph.edges)
    return write(nxg, nodes=range(graph.n), header=False).decode().rstrip()


def random_simple_graph(r: random.Random, n: int, p: float = 0.5) -> MultiGraph:
    pairs = [
        (u, v) for u in range(n) for v in range(u + 1, n) if r.random() < p
    ]
    return MultiGraph.from_pairs(n, pairs)


def random_multigraph(r: random.Random, n: int, m: int) -> MultiGraph:
    pairs = []
    while len(pairs) < m:
        u, v = r.randrange(n), r.randrange(n)
        if u != v:
            pairs.append((min(u, v), max(u, v)))
    return MultiGraph.from_pairs(n, pairs)


@st.composite
def multigraphs(draw, max_n: int, max_m: int, min_m: int = 0) -> MultiGraph:
    """Loopless multigraphs on 2..max_n vertices; a repeated pair is a
    parallel edge."""
    n = draw(st.integers(2, max_n))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    return MultiGraph.from_pairs(n, draw(st.lists(pair, min_size=min_m, max_size=max_m)))


def random_proper_coloring(r: random.Random, graph: MultiGraph, spread: int = 2):
    """Greedy proper coloring over a shuffled edge order with random color
    picks; returns an EdgeColoring."""
    from palette_kit import EdgeColoring

    order = list(graph.edges)
    r.shuffle(order)
    used: dict[int, set[int]] = {v: set() for v in range(graph.n)}
    colors: dict[int, int] = {}
    limit = max(graph.degrees, default=0) + spread
    for eid, u, v in order:
        options = [c for c in range(1, limit + 1) if c not in used[u] | used[v]]
        if not options:
            options = [max(used[u] | used[v], default=0) + 1]
        c = r.choice(options)
        colors[eid] = c
        used[u].add(c)
        used[v].add(c)
    return EdgeColoring(graph, colors)
