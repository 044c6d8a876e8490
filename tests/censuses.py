"""Small-graph censuses for the verification corpus.

Graphs are generated up to isomorphism: general graphs by vertex
augmentation, regular graphs by degree-constrained backtracking over
BFS-style labelings (vertex 0 adjacent to 1..r, new labels introduced
consecutively).  Deduplication buckets by cheap invariants and settles ties
with VF2.  No test imports this module, so its counts are not checked
against the published census sizes anywhere.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import networkx as nx

from palette_kit import MultiGraph


def _iso_key(g: nx.Graph):
    degs = tuple(sorted(d for _, d in g.degree()))
    tri = nx.triangles(g)
    tri_profile = tuple(sorted(tri.values()))
    # Rounded spectrum separates most small non-isomorphic pairs cheaply.
    import numpy as np

    if g.number_of_nodes():
        spec = tuple(
            round(x, 6) for x in sorted(np.linalg.eigvalsh(nx.to_numpy_array(g)))
        )
    else:
        spec = ()
    return degs, tri_profile, spec


class _IsoStore:
    def __init__(self):
        self.buckets: dict[object, list[nx.Graph]] = {}
        self.graphs: list[nx.Graph] = []

    def add(self, g: nx.Graph) -> bool:
        key = _iso_key(g)
        bucket = self.buckets.setdefault(key, [])
        for other in bucket:
            if nx.is_isomorphic(g, other):
                return False
        bucket.append(g)
        self.graphs.append(g)
        return True


@lru_cache(maxsize=None)
def all_graphs(n: int) -> tuple[nx.Graph, ...]:
    """Every graph on n vertices, one per isomorphism class."""
    if n == 0:
        return (nx.empty_graph(0),)
    store = _IsoStore()
    for parent in all_graphs(n - 1):
        for size in range(n):
            for neighbors in combinations(range(n - 1), size):
                g = parent.copy()
                g.add_node(n - 1)
                g.add_edges_from((n - 1, w) for w in neighbors)
                store.add(g)
    return tuple(store.graphs)


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> tuple[nx.Graph, ...]:
    return tuple(g for g in all_graphs(n) if n > 0 and nx.is_connected(g))


@lru_cache(maxsize=None)
def regular_connected(n: int, r: int) -> tuple[nx.Graph, ...]:
    """Connected r-regular graphs on n vertices, one per isomorphism class."""
    if n == 0 or r >= n or (n * r) % 2 == 1:
        return ()
    if r == 0:
        return (nx.empty_graph(1),) if n == 1 else ()
    store = _IsoStore()
    adj: list[set[int]] = [set() for _ in range(n)]

    def place(v: int, intro: int) -> None:
        # intro = number of vertices already introduced (adjacent to earlier
        # vertices or equal to 0); new neighbors must be the next labels.
        if v == n:
            if all(len(a) == r for a in adj):
                g = nx.Graph()
                g.add_nodes_from(range(n))
                g.add_edges_from((x, y) for x in range(n) for y in adj[x] if x < y)
                if nx.is_connected(g):
                    store.add(g)
            return
        need = r - len(adj[v])
        if need < 0:
            return
        if need == 0:
            place(v + 1, max(intro, v + 1))
            return
        if v > 0 and not adj[v]:
            return  # never introduced: graph cannot be connected
        old = [w for w in range(v + 1, intro) if len(adj[w]) < r]
        fresh_cap = min(n - intro, need)
        for fresh in range(fresh_cap, -1, -1):
            take_old = need - fresh
            if take_old > len(old):
                continue
            fresh_block = list(range(intro, intro + fresh))
            for olds in combinations(old, take_old):
                chosen = list(olds) + fresh_block
                for w in chosen:
                    adj[v].add(w)
                    adj[w].add(v)
                place(v + 1, intro + fresh)
                for w in chosen:
                    adj[v].discard(w)
                    adj[w].discard(v)

    place(0, 1)
    return tuple(store.graphs)


@lru_cache(maxsize=None)
def regular_graphs(n: int, r: int) -> tuple[nx.Graph, ...]:
    """All r-regular graphs on n vertices up to isomorphism, including
    disconnected ones (disjoint unions of connected r-regular graphs)."""
    store = _IsoStore()

    def extend(base: nx.Graph, remaining: int, min_size: int) -> None:
        if remaining == 0:
            store.add(base)
            return
        for size in range(min_size, remaining + 1):
            for comp in regular_connected(size, r):
                g = nx.disjoint_union(base, comp)
                extend(g, remaining - size, size)

    extend(nx.empty_graph(0), n, 1)
    return tuple(store.graphs)


def to_multigraph(g: nx.Graph) -> MultiGraph:
    nodes = sorted(g.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    pairs = sorted(
        (min(index[u], index[v]), max(index[u], index[v])) for u, v in g.edges()
    )
    return MultiGraph.from_pairs(len(nodes), pairs)
