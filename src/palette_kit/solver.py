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
for witnesses.  Both arguments are elementary; no result of the paper is
used to prune the search, so the corpus checks built on it are not circular.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

from .coloring import EdgeColoring, chromatic_index
from .errors import ResourceLimit
from .multigraph import MultiGraph, has_spanning_even_subgraph_no_isolated

PALETTE_INDEX_EDGE_CAP = 30
ORACLE_EDGE_CAP = 10


@dataclass(frozen=True)
class PaletteIndexResult:
    s_check: int
    coloring: EdgeColoring
    k_min: int

    def to_json(self) -> str:
        ids = sorted(self.coloring.graph.edge_ids)
        return json.dumps(
            {
                "s_check": self.s_check,
                "k_min": self.k_min,
                "colors": [self.coloring.colors[i] for i in ids],
            }
        )


def _search(
    graph: MultiGraph,
    t: int,
    k_budget: int,
    order: tuple[tuple[int, int, int], ...],
) -> dict[int, int] | None:
    """Find a proper coloring with <= t distinct palettes and colors from
    {1..k_budget}, exploring canonical colorings (fresh colors in order).

    Palettes of completed vertices are final, so their distinct count is a
    lower bound on the final palette count; once it reaches t, every
    incomplete vertex must extend into one of the completed palettes.
    """
    n = graph.n
    deg = graph.degrees
    masks = [0] * n
    rem = list(deg)
    completed: dict[int, int] = {}  # palette bitmask -> vertex multiplicity
    isolated = sum(1 for d in deg if d == 0)
    if isolated:
        completed[0] = isolated
        if t < 1:
            return None
    m = len(order)
    assignment: dict[int, int] = {}

    def fits_completed(mask: int, degree: int) -> bool:
        for p in completed:
            if mask & ~p == 0 and p.bit_count() == degree:
                return True
        return False

    def rec(i: int, maxused: int) -> bool:
        if i == m:
            return True
        eid, u, v = order[i]
        taken = masks[u] | masks[v]
        limit = min(maxused + 1, k_budget)
        for c in range(1, limit + 1):
            bit = 1 << (c - 1)
            if taken & bit:
                continue
            mu = masks[u] | bit
            mv = masks[v] | bit
            if k_budget - mu.bit_count() < rem[u] - 1:
                continue
            if k_budget - mv.bit_count() < rem[v] - 1:
                continue
            masks[u], masks[v] = mu, mv
            rem[u] -= 1
            rem[v] -= 1
            assignment[eid] = c
            added: list[int] = []
            before = len(completed)
            ok = True
            for x, mx in ((u, mu), (v, mv)):
                if rem[x] == 0:
                    cnt = completed.get(mx)
                    if cnt is None:
                        if len(completed) == t:
                            ok = False
                            break
                        completed[mx] = 1
                    else:
                        completed[mx] = cnt + 1
                    added.append(mx)
            if ok and len(completed) == t:
                if before < t:
                    # Budget just filled: every open vertex must fit.
                    for x in range(n):
                        if rem[x] and not fits_completed(masks[x], deg[x]):
                            ok = False
                            break
                else:
                    for x in (u, v):
                        if rem[x] and not fits_completed(masks[x], deg[x]):
                            ok = False
                            break
            if ok and rec(i + 1, max(maxused, c)):
                return True
            for mx in added:
                if completed[mx] == 1:
                    del completed[mx]
                else:
                    completed[mx] -= 1
            del assignment[eid]
            rem[u] += 1
            rem[v] += 1
            masks[u] &= ~bit
            masks[v] &= ~bit
        return False

    return dict(assignment) if rec(0, 0) else None


def palette_index(
    graph: MultiGraph, max_edges: int = PALETTE_INDEX_EDGE_CAP
) -> PaletteIndexResult:
    """Exact palette index with a minimal witness coloring.

    Each target t gets one search with colors 1..t * Delta, which is
    conclusive by monotonicity in the color budget.  At the first feasible t
    the budget ascends from chi' to the least feasible k_min.  The witness
    has exactly s_check distinct palettes, uses k_min colors, and is the
    lexicographically smallest assignment vector in edge-id order among
    those witnesses.
    """
    if graph.m > max_edges:
        raise ResourceLimit("edge count", graph.m, max_edges)
    if graph.m == 0:
        return PaletteIndexResult(1 if graph.n else 0, EdgeColoring(graph, {}), 0)
    delta = max(graph.degrees)
    chi = chromatic_index(graph, max_edges=max_edges).chi_prime
    fast_order = tuple(sorted(graph.edges, key=lambda e: (e[1], e[2], e[0])))
    # Palettes of vertices with different degrees are distinct, so the
    # number of distinct degrees is a sound starting target.
    t_floor = len(set(graph.degrees))
    for t in range(max(1, t_floor), graph.n + 1):
        budget = t * delta
        if budget < chi or _search(graph, t, budget, fast_order) is None:
            continue
        k = chi
        while k < budget and _search(graph, t, k, fast_order) is None:
            k += 1
        witness = _search(graph, t, k, tuple(sorted(graph.edges)))
        assert witness is not None
        return PaletteIndexResult(t, EdgeColoring(graph, witness), k)
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


def check_lower_bound_theorem(
    graph: MultiGraph,
    max_edges: int = PALETTE_INDEX_EDGE_CAP,
    result: PaletteIndexResult | None = None,
) -> LowerBoundCheck:
    """Check that graphs with max degree >= 2 and no spanning even subgraph
    without isolated vertices have palette index above their min degree.

    ``result`` is this graph's ``palette_index``; it is computed when omitted.
    """
    if graph.n == 0:
        return LowerBoundCheck(False, True)
    delta_max = max(graph.degrees)
    delta_min = min(graph.degrees)
    if delta_max < 2:
        return LowerBoundCheck(False, True)
    exists, _ = has_spanning_even_subgraph_no_isolated(graph)
    if exists:
        return LowerBoundCheck(False, True)
    if result is None:
        result = palette_index(graph, max_edges=max_edges)
    return LowerBoundCheck(True, result.s_check > delta_min)
