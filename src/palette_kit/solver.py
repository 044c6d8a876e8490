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
colors.  A parity filter skips searches before they start: each color class
is a matching, so every color lies in the palettes of an even number of
vertices.  Grouping the vertices by palette, the classes of odd size must
then be coverable by at most k colors, each color in an even number of them
and a class of degree d in d colors (``_parity_ok``).  All four arguments
are elementary; no result of the paper is used to prune the search, so the
corpus checks built on it are not circular.  One caveat: on a regular graph
of odd order the parity filter alone rules out t = 2 (one class of odd
size, in no color with a partner), so there lemma-not2 tests the filter's
soundness rather than the search.
The kernel ``_search`` lives in ``coloring``, whose ``chromatic_index`` runs
it with t = n: n distinct completed palettes means every vertex is complete,
so that bound never prunes.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .coloring import EdgeColoring, _search, _search_order, chromatic_index
from .errors import ResourceLimit
from .multigraph import MultiGraph, has_spanning_even_subgraph_no_isolated

PALETTE_INDEX_EDGE_CAP = 30
ORACLE_EDGE_CAP = 10
# Cover states one parity check may expand before it answers "feasible",
# which is sound: the filter then skips nothing.
PARITY_EFFORT_CAP = 20_000


class PaletteIndexResult(NamedTuple):
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

    The parity filter ``_parity_ok`` gives two lower bounds from the degree
    multiset alone: a target t whose full budget it rejects is skipped, and
    the descent stops at the least budget it accepts.  It only skips
    searches that would fail, so the result is the same without it.  On a
    regular graph of odd order it alone rules out t = 2.
    """
    if graph.m > max_edges:
        raise ResourceLimit("edge count", graph.m, max_edges)
    if graph.m == 0:
        return PaletteIndexResult(1 if graph.n else 0, EdgeColoring(graph, {}), 0, 0)
    delta = max(graph.degrees)
    chi = chromatic_index(graph).chi_prime
    fast_order = _search_order(graph)
    degrees = tuple(sorted(graph.degrees))
    for t in range(1, graph.n + 1):
        budget = t * delta
        if budget < chi or not _parity_ok(degrees, t, budget):
            continue
        found = _search(graph, t, budget, fast_order)
        if found is None:
            continue
        # A canonical coloring uses exactly the colors 1..max, so each
        # success bounds k_min by its largest color.
        k = max(found.values())
        # The least budget from chi' up that the filter accepts; k passes it.
        k_lo = next((j for j in range(chi, k) if _parity_ok(degrees, t, j)), k)
        while k > k_lo:
            found = _search(graph, t, k - 1, fast_order)
            if found is None:
                break
            k = max(found.values())
        witness = _search(graph, t, k, tuple(sorted(graph.edges)))
        assert witness is not None
        return PaletteIndexResult(t, EdgeColoring(graph, witness), k, chi)
    raise AssertionError("no palette count up to n was feasible")


class _EffortExceeded(Exception):
    pass


_effort_left = [0]


@lru_cache(maxsize=1 << 14)
def _parity_ok(degrees: tuple[int, ...], t: int, k: int) -> bool:
    """A necessary condition for a proper coloring with at most t palettes
    and colors in 1..k, from the sorted degree multiset alone.

    Group the vertices into classes of equal palette.  A color class is a
    matching, and the vertices it covers are those whose palette holds the
    color, so every color lies in the palettes of an even number of
    vertices; only the parity of each class's size matters.  A degree d
    with n_d vertices has some o_d = n_d (mod 2) odd classes and needs
    max(o_d, 1) palettes; isolated vertices share the empty one.  The odd
    classes must then fit ``_odd_cover`` with k colors.  Palettes need not
    be distinct, so this only relaxes the search's condition.  Past
    ``PARITY_EFFORT_CAP`` expanded states it answers True, which is sound.
    """
    if degrees[-1] > k:
        return False
    counts = sorted(Counter(degrees).items(), reverse=True)
    budget = t
    if counts[-1][0] == 0:
        budget -= 1
        counts.pop()
    _effort_left[0] = PARITY_EFFORT_CAP
    try:
        return any(_odd_cover(rows, min(k, sum(rows) // 2))
                   for rows in _odd_rows(counts, budget))
    except _EffortExceeded:
        return True


def _spend() -> None:
    _effort_left[0] -= 1
    if _effort_left[0] < 0:
        raise _EffortExceeded


def _odd_rows(counts: list[tuple[int, int]], budget: int):
    """Degrees of the odd classes, descending, for every choice of o_d
    whose palettes fit ``budget``; ``counts`` is (d, n_d) by descending d."""
    if not counts:
        yield ()
        return
    (d, n_d), rest = counts[0], counts[1:]
    for o in range(n_d % 2, n_d + 1, 2):
        if max(o, 1) + len(rest) > budget:
            return
        for tail in _odd_rows(rest, budget - max(o, 1)):
            _spend()
            yield (d,) * o + tail


@lru_cache(maxsize=1 << 14)
def _odd_cover(rows: tuple[int, ...], cols: int) -> bool:
    """Whether rows with demands ``rows`` (descending, positive) fit a 0/1
    matrix of ``cols`` columns in which every column holds an even number of
    rows and row i lies in rows[i] columns.

    Some column holds the first row, so it is tried first with every odd
    choice of partners; rows of equal demand are interchangeable.
    ``cols`` is at most sum(rows) // 2, as a column serves two demands.
    """
    if not rows:
        return True
    total = sum(rows)
    if total % 2 or rows[0] > cols or total > cols * (len(rows) & ~1):
        return False
    _spend()
    head, rest = rows[0] - 1, Counter(rows[1:])
    values = sorted(rest, reverse=True)
    for picks in product(*(range(rest[v], -1, -1) for v in values)):
        if sum(picks) % 2 == 0:
            continue
        left = [head] if head else []
        for v, p in zip(values, picks):
            left += [v] * (rest[v] - p)
            if v > 1:
                left += [v - 1] * p
        left.sort(reverse=True)
        if _odd_cover(tuple(left), min(cols - 1, sum(left) // 2)):
            return True
    return False


def palette_index_oracle(graph: MultiGraph) -> int:
    """Independent ground truth: exhaust proper colorings up to relabeling.

    Enumerates every canonical proper coloring with at most n * Delta colors
    in plain edge-id order, tracking the number of distinct palettes among
    finished vertices as a branch-and-bound lower bound.  No code is shared
    with palette_index.
    """
    if graph.m > ORACLE_EDGE_CAP:
        raise ResourceLimit("edge count", graph.m, ORACLE_EDGE_CAP)
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
