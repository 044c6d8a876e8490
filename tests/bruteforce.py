"""Naive reference implementations used only as test oracles.

These deliberately share no code or search strategy with the package:
plain recursion in raw edge order, no symmetry breaking beyond restricting
colors to {1..m} (every coloring can be relabeled into that range without
changing its palette count).
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, product

from palette_kit import EdgeColoring, Hypergraph, MultiGraph


def proper_colorings(graph: MultiGraph, max_color: int):
    """Yield every proper assignment as a tuple indexed by edge position."""
    edges = graph.edges
    incident = [
        [
            j
            for j, (_, a, b) in enumerate(edges)
            if j != i and {a, b} & {u, v}
        ]
        for i, (_, u, v) in enumerate(edges)
    ]
    for combo in product(range(1, max_color + 1), repeat=len(edges)):
        if all(
            combo[i] != combo[j]
            for i in range(len(edges))
            for j in incident[i]
            if j > i
        ):
            yield combo


def palette_count(graph: MultiGraph, combo) -> int:
    """Distinct palettes of an assignment indexed by edge position."""
    return len({
        frozenset(combo[i] for i, (_, a, b) in enumerate(graph.edges) if v in (a, b))
        for v in range(graph.n)
    })


def bf_min_palettes(graph: MultiGraph) -> int:
    """Minimum palette count with colors from {1..m}; feasible for m <= 7."""
    if graph.m == 0:
        return 1 if graph.n else 0
    best = graph.n + 1
    for combo in proper_colorings(graph, graph.m):
        best = min(best, palette_count(graph, combo))
    return best


def bf_chromatic_index(graph: MultiGraph) -> int:
    """Smallest k admitting a proper coloring; plain backtracking, m <= 12."""
    edges = graph.edges
    if not edges:
        return 0

    def colorable(k: int) -> bool:
        assigned: list[int] = []

        def rec(i: int) -> bool:
            if i == len(edges):
                return True
            _, u, v = edges[i]
            for c in range(1, k + 1):
                if any(
                    assigned[j] == c and {a, b} & {u, v}
                    for j, (_, a, b) in enumerate(edges[:i])
                ):
                    continue
                assigned.append(c)
                if rec(i + 1):
                    return True
                assigned.pop()
            return False

        return rec(0)

    k = max(graph.degrees)
    while not colorable(k):
        k += 1
    return k


def bf_perfect_matchings(graph: MultiGraph) -> list[frozenset[int]]:
    """Every edge-id set of size n/2 that is pairwise vertex-disjoint; m <= 12."""
    if graph.n % 2:
        return []
    out = []
    for subset in combinations(graph.edges, graph.n // 2):
        ends = [x for _, u, v in subset for x in (u, v)]
        if len(set(ends)) == graph.n:
            out.append(frozenset(eid for eid, _, _ in subset))
    return out


def bf_ordered_perfect_matchings(graph: MultiGraph, avoid=()) -> list[tuple[int, ...]]:
    """Every perfect matching of G without the edge ids in ``avoid``, as
    sorted edge-id tuples, in the order of a plain search: match the lowest
    uncovered vertex through its edges in edge order, with no memo and no
    pruning."""
    edges = [e for e in graph.edges if e[0] not in avoid]
    out = []

    def rec(covered: frozenset, chosen: list) -> None:
        if len(covered) == graph.n:
            out.append(tuple(sorted(chosen)))
            return
        v = min(x for x in range(graph.n) if x not in covered)
        for eid, a, b in edges:
            if v in (a, b):
                w = b if a == v else a
                if w not in covered:
                    rec(covered | {v, w}, chosen + [eid])

    if graph.n % 2 == 0:
        rec(frozenset(), [])
    return out


def bf_has_perfect_matching(graph: MultiGraph) -> bool:
    return bool(bf_perfect_matchings(graph))


def bf_has_spanning_even_subgraph(graph: MultiGraph) -> bool:
    """Check all 2^m edge subsets for even degrees >= 2; m <= 12."""
    m = graph.m
    for mask in range(1 << m):
        deg = [0] * graph.n
        for i, (_, u, v) in enumerate(graph.edges):
            if mask >> i & 1:
                deg[u] += 1
                deg[v] += 1
        if all(d >= 2 and d % 2 == 0 for d in deg):
            return True
    return False


def bf_min_palettes_with_colors(graph: MultiGraph, k: int) -> int | None:
    """Minimum palette count over proper colorings using colors from {1..k};
    None when no proper coloring exists."""
    best = None
    for combo in proper_colorings(graph, k):
        count = palette_count(graph, combo)
        if best is None or count < best:
            best = count
    return best


def bf_odd_cover(rows, cols: int) -> bool:
    """Whether ``cols`` row subsets of even size, repeats allowed, hold row
    i exactly rows[i] times: the columns of a 0/1 matrix with row sums
    ``rows`` and even column sums."""
    even = [s for size in range(0, len(rows) + 1, 2)
            for s in combinations(range(len(rows)), size)]
    return any(
        all(sum(i in s for s in columns) == r for i, r in enumerate(rows))
        for columns in combinations_with_replacement(even, cols)
    )


def bf_valid_decomposition2_exists(graph: MultiGraph) -> bool:
    """Search all ways to split E(G) into (H0, H1) per the two-palette
    characterization; m <= 12."""
    from palette_kit import decomposition_from_json, two_palette_check, verify_decomposition_3

    ids = sorted(graph.edge_ids)
    for mask in range(1 << len(ids)):
        h0_ids = [ids[i] for i in range(len(ids)) if mask >> i & 1]
        h1_ids = [i for i in ids if i not in h0_ids]
        dec = decomposition_from_json(graph, {"H0": h0_ids or None, "H1": h1_ids or None})
        if two_palette_check(graph, dec, verify_decomposition_3(graph, dec)).ok:
            return True
    return False


def bf_associated_hypergraph(coloring) -> Hypergraph:
    """The associated hypergraph read straight off the vertex palettes:
    palettes in sorted-list order, one hyperedge per used color."""
    graph = coloring.graph
    palettes = sorted(
        {frozenset(coloring.colors[eid] for eid, _ in graph.incidence[v])
         for v in range(graph.n)},
        key=sorted,
    )
    return Hypergraph(tuple(palettes), tuple(
        (c, frozenset(i for i, p in enumerate(palettes) if c in p))
        for c in sorted(set(coloring.colors.values()))
    ))


def pairwise_intersecting(hypergraph: Hypergraph) -> bool:
    """Whether every two hyperedges share a vertex."""
    edges = hypergraph.hyperedges
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            if not edges[i][1] & edges[j][1]:
                return False
    return True


def bf_reduce_colors(coloring: EdgeColoring) -> EdgeColoring:
    """Recolor the larger color of the first two colors, in increasing
    order, that no vertex palette holds together with the smaller one, and
    repeat until no such pair is left.  Each round reads the palettes and
    the hyperedges afresh off the current colors."""
    graph = coloring.graph
    colors = dict(coloring.colors)
    while True:
        palettes = {frozenset(colors[eid] for eid, _ in graph.incidence[v])
                    for v in range(graph.n)}
        holders = {c: {p for p in palettes if c in p} for c in sorted(set(colors.values()))}
        pair = next(((a, b) for a, b in combinations(holders, 2)
                     if not holders[a] & holders[b]), None)
        if pair is None:
            return EdgeColoring(graph, colors)
        a, b = pair
        colors = {eid: a if c == b else c for eid, c in colors.items()}
