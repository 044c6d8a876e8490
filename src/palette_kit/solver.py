"""Exact palette index, minimal-coloring witnesses and the color-merge
reduction.

The palette index is the minimum number of distinct palettes over all proper
edge colorings.  The search tests target palette counts t = 1, 2, 3, ...;
for each t it suffices to consider at most t * Delta colors, because every
used color lies in some palette and the union of at most t palettes has at
most t * Delta colors.  A coloring with colors in 1..k also has its colors in
1..k' for every k' >= k, so feasibility is monotone in k and one search with
the full budget t * Delta decides each target t.  Only at the winning t is
the number of colors then minimized, which is exactly the minimality notion
for witnesses: a canonical coloring uses exactly the colors 1..max, so each
success bounds k_min by its largest color, and the budget descends from
there until a search fails or it reaches chi'.  The kernel also prunes when
one palette is left: every open vertex that fits no completed palette must
end with that palette, so those vertices share one degree d and at most d
colors.  All three arguments are elementary; no result of the paper is used
to prune the search, so the corpus checks built on it are not circular.
The kernel ``_search`` lives in ``coloring``, whose ``chromatic_index`` runs
it with t = n: n distinct completed palettes means every vertex is complete,
so that bound never prunes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

from .coloring import EdgeColoring, _search, _search_order, chromatic_index
from .errors import ResourceLimit
from .multigraph import MultiGraph, has_spanning_even_subgraph_no_isolated

PALETTE_INDEX_EDGE_CAP = 30
ORACLE_EDGE_CAP = 10


@dataclass(frozen=True)
class PaletteIndexResult:
    s_check: int
    coloring: EdgeColoring
    k_min: int
    chi_prime: int

    def to_json(self) -> str:
        ids = sorted(self.coloring.graph.edge_ids)
        return json.dumps(
            {
                "s_check": self.s_check,
                "k_min": self.k_min,
                "colors": [self.coloring.colors[i] for i in ids],
            }
        )


def palette_index(
    graph: MultiGraph, max_edges: int = PALETTE_INDEX_EDGE_CAP
) -> PaletteIndexResult:
    """Exact palette index with a minimal witness coloring.

    Each target t gets one search with colors 1..t * Delta, which is
    conclusive by monotonicity in the color budget.  At the first feasible t
    the budget descends from the largest color of that success: each further
    success lowers it to its own largest color, and the first failure, or
    chi', stops it at k_min.  That is one failing search where an ascent from
    chi' fails once per k below k_min.  The witness has exactly s_check
    distinct palettes, uses k_min colors, and is the lexicographically
    smallest assignment vector in edge-id order among those witnesses.
    """
    if graph.m > max_edges:
        raise ResourceLimit("edge count", graph.m, max_edges)
    if graph.m == 0:
        return PaletteIndexResult(1 if graph.n else 0, EdgeColoring(graph, {}), 0, 0)
    delta = max(graph.degrees)
    chi = chromatic_index(graph).chi_prime
    fast_order = _search_order(graph)
    # Palettes of vertices with different degrees are distinct, so the
    # number of distinct degrees is a sound starting target.
    t_floor = len(set(graph.degrees))
    for t in range(max(1, t_floor), graph.n + 1):
        budget = t * delta
        if budget < chi:
            continue
        found = _search(graph, t, budget, fast_order)
        if found is None:
            continue
        # A canonical coloring uses exactly the colors 1..max, so each
        # success bounds k_min by its largest color.
        k = max(found.values())
        while k > chi:
            found = _search(graph, t, k - 1, fast_order)
            if found is None:
                break
            k = max(found.values())
        witness = _search(graph, t, k, tuple(sorted(graph.edges)))
        assert witness is not None
        return PaletteIndexResult(t, EdgeColoring(graph, witness), k, chi)
    raise AssertionError("no palette count up to n was feasible")


def palette_index_oracle(graph: MultiGraph, max_edges: int = ORACLE_EDGE_CAP) -> int:
    """Independent ground truth: exhaust proper colorings up to relabeling.

    Enumerates every canonical proper coloring with at most n * Delta colors
    in plain edge-id order, tracking the number of distinct palettes among
    finished vertices as a branch-and-bound lower bound.  No code is shared
    with palette_index.
    """
    if graph.m > max_edges:
        raise ResourceLimit("edge count", graph.m, max_edges)
    if graph.m == 0:
        return 1 if graph.n else 0
    budget = graph.n * max(graph.degrees)
    edges = tuple(sorted(graph.edges))
    n = graph.n
    degrees = graph.degrees
    colors_at = [frozenset()] * n
    left = list(degrees)
    finished: dict[frozenset[int], int] = {}
    if any(d == 0 for d in degrees):
        finished[frozenset()] = sum(1 for d in degrees if d == 0)
    best = [n + 1]

    def bound() -> int:
        distinct = len(finished)
        if distinct + 1 == best[0]:
            # One new palette suffices to prune if some open vertex cannot
            # land in any finished palette.
            for x in range(n):
                if left[x] and not any(
                    len(p) == degrees[x] and colors_at[x] <= p for p in finished
                ):
                    return distinct + 1
        return distinct

    def walk(i: int, maxused: int) -> None:
        if bound() >= best[0]:
            return
        if i == len(edges):
            best[0] = len(finished)
            return
        eid, u, v = edges[i]
        for c in range(1, min(maxused + 1, budget) + 1):
            if c in colors_at[u] or c in colors_at[v]:
                continue
            saved_u, saved_v = colors_at[u], colors_at[v]
            colors_at[u] = saved_u | {c}
            colors_at[v] = saved_v | {c}
            left[u] -= 1
            left[v] -= 1
            added = []
            for x in (u, v):
                if left[x] == 0:
                    pal = colors_at[x]
                    finished[pal] = finished.get(pal, 0) + 1
                    added.append(pal)
            walk(i + 1, max(maxused, c))
            for pal in added:
                if finished[pal] == 1:
                    del finished[pal]
                else:
                    finished[pal] -= 1
            left[u] += 1
            left[v] += 1
            colors_at[u], colors_at[v] = saved_u, saved_v
        return

    walk(0, 0)
    assert best[0] <= n
    return best[0]


def reduce_colors(coloring: EdgeColoring) -> EdgeColoring:
    """Merge color pairs that no palette contains together, to a fixed point.

    Two such color classes form a 1-regular subgraph, so recoloring one with
    the other stays proper and never increases the palette count.  The
    output's associated hypergraph is pairwise intersecting.
    """
    graph = coloring.graph
    colors = dict(coloring.colors)
    while True:
        palettes = {frozenset(colors[eid] for eid, _ in graph.incidence[v])
                    for v in range(graph.n)}
        used = sorted(set(colors.values()))
        merged = False
        for i, a in enumerate(used):
            for b in used[i + 1:]:
                if any(a in p and b in p for p in palettes):
                    continue
                for eid, c in colors.items():
                    if c == b:
                        colors[eid] = a
                merged = True
                break
            if merged:
                break
        if not merged:
            return EdgeColoring(graph, colors)


class LowerBoundCheck(NamedTuple):
    applicable: bool
    satisfied: bool


def check_lower_bound_theorem(result: PaletteIndexResult) -> LowerBoundCheck:
    """Check that graphs with max degree >= 2 and no spanning even subgraph
    without isolated vertices have palette index above their min degree.

    ``result`` is the graph's ``palette_index``; the graph is
    ``result.coloring.graph``.
    """
    graph = result.coloring.graph
    if graph.n == 0:
        return LowerBoundCheck(False, True)
    delta_max = max(graph.degrees)
    delta_min = min(graph.degrees)
    if delta_max < 2:
        return LowerBoundCheck(False, True)
    exists, _ = has_spanning_even_subgraph_no_isolated(graph)
    if exists:
        return LowerBoundCheck(False, True)
    return LowerBoundCheck(True, result.s_check > delta_min)
