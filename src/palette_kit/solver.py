"""Exact palette index, minimal-coloring witnesses and the color-merge
reduction.

The palette index is the minimum number of distinct palettes over all proper
edge colorings.  A vertex's palette has as many colors as the vertex has
edges, so vertices of different degrees never share one, and the palette
index is at least the number of distinct degrees (the empty palette of
isolated vertices included).  This follows from the definition alone, not
from the paper.  The search tests the target palette counts t from there up;
for each t it suffices to consider at most t * Delta colors, because every
used color lies in some palette and the union of at most t palettes has at
most t * Delta colors.  A coloring with colors in 1..k also has its colors in
1..k' for every k' >= k, so feasibility is monotone in k and one search with
the full budget t * Delta decides each target t.  Only at the winning t is
the number of colors then minimized, which is exactly the minimality notion
for witnesses: a canonical coloring uses exactly the colors 1..max, so each
success bounds k_min by its largest color, and the budget descends from
there until a search fails or it reaches chi'.

Whether a search succeeds does not depend on the order in which it colors
the edges; only its cost and the coloring it returns do.  The chi' search
and every palette search run in one proof order, built once per graph: the
star order over a greedy vertex order, which keeps few vertices partly
colored at once whatever the labelling.  Isolated vertices carry no edge, so
the order skips them, and their number adds only linear cost.
When the chi' witness has at most one palette (none on the empty graph) it
is itself a minimal coloring, with s = that count and k_min = chi', and no
palette search runs.  s = 1 is read off the witness's measured palette
count, never inferred from "Class 1 regular".

``palette_index`` returns the descent's last success, which is a minimal
coloring: s palettes and the colors 1..k_min.  The paper's statements hold
for every minimal coloring, so the corpus checks read that one.
``lex_min_witness`` gives the lexicographically smallest minimal coloring in
edge-id order, which the commands that print a coloring (``palette-index``,
``decompose``, ``hypergraph`` and ``fig4-witness``) show: the result of one
more search in edge-id order at (s, k_min).

The kernel prunes when one palette is left: every open vertex that fits
no completed palette must end with that palette, so those vertices share
one degree d and at most d colors.  A parity filter skips searches before
they start: each color class is a matching, so every color lies in the
palettes of an even number of vertices.  Grouping the vertices by palette,
the classes of odd size must then be coverable by at most k colors, each
color in an even number of them and a class of degree d in d colors.  That
is a 0/1 matrix with the classes' degrees as row sums and k columns of even
sums, which the Gale-Ryser criterion decides in one pass (``_parity_ok``).
All these arguments are elementary; no result of the paper is used to prune
the search, so the corpus checks built on it are not circular.  One caveat:
on a regular graph of odd order the parity filter alone rules out t = 2 (one
class of odd size, in no color with a partner), so there lemma-not2 tests
the filter's soundness rather than the search.
The kernel ``_search`` lives in ``coloring``, whose ``chromatic_index`` runs
it with t = n: n distinct completed palettes means every vertex is complete,
so that bound never prunes.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import lru_cache
from itertools import combinations, product
from typing import NamedTuple

from .coloring import EdgeColoring, _search, chromatic_index
from .errors import ResourceLimit
from .hypergraphs import associated_hypergraph
from .multigraph import MultiGraph, has_spanning_even_subgraph_no_isolated

PALETTE_INDEX_EDGE_CAP = 30
ORACLE_EDGE_CAP = 10
# Choices of odd classes one parity check may try before it answers
# "feasible", which is sound: the filter then skips nothing.
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
    """Exact palette index with a minimal coloring.

    Each target t gets one search with colors 1..t * Delta, which is
    conclusive by monotonicity in the color budget.  At the first feasible t
    the budget descends from the largest color of that success: each further
    success lowers it to its own largest color, and the first failure, or
    chi', stops it at k_min.  That is one failing search where an ascent from
    chi' fails once per k below k_min.  The coloring is the descent's last
    success: it has exactly s_check distinct palettes and uses the colors
    1..k_min.  It is some minimal coloring, not necessarily the
    lexicographically smallest one; ``lex_min_witness`` gives that.

    chi' and every palette search run in the proof order (``_proof_order``),
    built once per graph; neither chi' nor feasibility depends on the order.
    When the chi' witness has p <= 1 palettes, no palette search runs: no
    proper coloring has fewer palettes or fewer colors, so it is a minimal
    coloring with s = p and k_min = chi'.  That covers edgeless graphs
    (p = 1, or 0 without vertices).

    Targets start at the number of distinct degrees, since vertices of
    different degrees never share a palette; the parity filter would reject
    every lower t anyway.  That filter, ``_parity_ok``, gives two lower
    bounds from the degree multiset alone: a target t whose full budget it
    rejects is skipped, and the descent stops at the least budget it
    accepts.  It only skips searches that would fail, so the result is the
    same without it.  On a regular graph of odd order it alone rules out
    t = 2.
    """
    if graph.m > max_edges:
        raise ResourceLimit("edge count", graph.m, max_edges)
    order = _proof_order(graph)
    chi, witness = chromatic_index(graph, order)
    p = len(set(witness.vertex_palettes))
    if p <= 1:
        return PaletteIndexResult(p, witness, chi, chi)
    delta = max(graph.degrees)
    degrees = tuple(sorted(graph.degrees))
    # Vertices of different degrees never share a palette.
    for t in range(len(set(degrees)), graph.n + 1):
        budget = t * delta
        if budget < chi or not _parity_ok(degrees, t, budget):
            continue
        best = _search(graph, t, budget, order)
        if best is None:
            continue
        # A canonical coloring uses exactly the colors 1..max, so each
        # success bounds k_min by its largest color.
        k = max(best.values())
        # The filter is monotone in k, so its first rejection ends the descent.
        while k > chi and _parity_ok(degrees, t, k - 1):
            found = _search(graph, t, k - 1, order)
            if found is None:
                break
            best, k = found, max(found.values())
        return PaletteIndexResult(t, EdgeColoring(graph, best), k, chi)
    raise AssertionError("no palette count up to n was feasible")


def lex_min_witness(result: PaletteIndexResult) -> PaletteIndexResult:
    """``result`` with the lexicographically smallest minimal coloring in
    edge-id order.

    The search in edge-id order at (s_check, k_min) returns the first
    coloring, in that order, with at most s_check palettes and colors in
    1..k_min.  It has exactly s_check palettes, since s is the least, and
    uses every color 1..k_min, since no fewer colors admit s palettes.
    """
    graph = result.coloring.graph
    colors = _search(graph, result.s_check, result.k_min, tuple(sorted(graph.edges)))
    assert colors is not None
    return result._replace(coloring=EdgeColoring(graph, colors))


def _proof_order(graph: MultiGraph) -> tuple[tuple[int, int, int], ...]:
    """The edges in star order over a greedy vertex order: each vertex, in
    turn, brings its edges to the vertices after it.

    The next vertex is the one with the most edges to the vertices already
    taken; ties go to the one most recently linked to them, then to the
    lowest label.  That keeps few vertices partly colored at once, so the
    kernel's palette bounds act early whatever the labelling.  Isolated
    vertices carry no edge and take no part, so the cost is linear in
    their number.
    """
    # Per open vertex (links to taken vertices, step of the last link,
    # -label), updated per link; the label makes the largest key name its
    # vertex.
    key = {x: (0, -1, -x) for x, incident in enumerate(graph.incidence) if incident}
    rank: dict[int, int] = {}
    for step in range(len(key)):
        x = -max(key.values())[2]
        del key[x]
        rank[x] = step
        for _, y in graph.incidence[x]:
            if y in key:
                key[y] = (key[y][0] + 1, step, -y)
    # Sorted by (lower rank, higher rank, id); conditionals stand in for
    # min and max, which cost a builtin call each.
    return tuple(sorted(
        graph.edges,
        key=lambda e: (a, b, e[0]) if (a := rank[e[1]]) < (b := rank[e[2]]) else (b, a, e[0]),
    ))


@lru_cache(maxsize=1 << 14)
def _parity_ok(degrees: tuple[int, ...], t: int, k: int) -> bool:
    """A necessary condition for a proper coloring with at most t palettes
    and colors in 1..k, from the sorted degree multiset alone.

    Group the vertices into classes of equal palette.  A color class is a
    matching, and the vertices it covers are those whose palette holds the
    color, so every color lies in the palettes of an even number of
    vertices; only the parity of each class's size matters.  A degree d
    with n_d vertices has some o_d = n_d (mod 2) odd classes and needs
    max(o_d, 1) palettes; isolated vertices share the empty one.  For some
    choice of the o_d within t palettes, a 0/1 matrix must then have the
    odd classes' degrees as row sums and k columns of even sums.  By Gale
    and Ryser (1957), column sums c admit one exactly when, for every i,
    the i largest rows sum to at most sum_j min(c_j, i) (``_odd_cover``).
    Palettes need not be distinct, so this only relaxes the search's
    condition.  After ``PARITY_EFFORT_CAP`` choices of the o_d it answers
    True, which is sound.  The verdict is monotone in k: a spare column of
    zeros has an even sum, and the choices tried do not depend on k.  Each
    cache miss counts the (d, n_d) pairs of the nonzero degrees itself.
    """
    if degrees[-1] > k:
        return False
    budget = t - (degrees[0] == 0)
    counts = sorted(Counter(d for d in degrees if d).items(), reverse=True)
    # Every other degree needs at least one palette.
    top = budget - (len(counts) - 1)
    choices = product(*(range(n_d % 2, min(n_d, top) + 1, 2) for _, n_d in counts))
    for tried, odd in enumerate(choices):
        if tried >= PARITY_EFFORT_CAP:
            return True
        # A degree with no odd class still needs one palette.
        if sum(odd) + odd.count(0) > budget:
            continue
        rows = [d for (d, _), o in zip(counts, odd) for _ in range(o)]
        if not rows or _odd_cover(rows, k):
            return True
    return False


def _odd_cover(rows: list[int], cols: int) -> bool:
    """Whether a 0/1 matrix with row sums ``rows`` (non-empty, descending)
    and ``cols`` >= 1 columns can have every column sum even.

    Each Gale-Ryser bound sum_j min(c_j, i) is concave in every c_j, so the
    most equal even column sums, each 2q or 2q + 2, make all of them largest
    at once; only that vector is tested.
    """
    total = sum(rows)
    if total % 2:
        return False
    q, wide = divmod(total // 2, cols)
    need = 0
    for i, r in enumerate(rows, 1):
        need += r
        if need > wide * min(2 * q + 2, i) + (cols - wide) * min(2 * q, i):
            return False
    return True


def palette_index_oracle(graph: MultiGraph) -> int:
    """Independent ground truth: the fewest distinct palettes over every
    canonical proper coloring, for graphs of at most ``ORACLE_EDGE_CAP``
    edges.

    The edges are colored in edge-id order, each with a color already used
    or the next unused one.  Every proper coloring renames to exactly one
    such coloring, with the same palettes up to that renaming, so the
    minimum over the leaves is the palette index.  Nothing is pruned: every
    canonical proper coloring reaches a leaf.  No code and no pruning
    argument is shared with ``palette_index``.
    """
    if graph.m > ORACLE_EDGE_CAP:
        raise ResourceLimit("edge count", graph.m, ORACLE_EDGE_CAP)
    edges = sorted(graph.edges)
    masks = [0] * graph.n

    def walk(i: int, used: int) -> int:
        if i == len(edges):
            return len(set(masks))
        _, u, v = edges[i]
        best = graph.n
        for c in range(used + 1):
            bit = 1 << c
            if not (masks[u] | masks[v]) & bit:
                masks[u] |= bit
                masks[v] |= bit
                best = min(best, walk(i + 1, max(used, c + 1)))
                masks[u] ^= bit
                masks[v] ^= bit
        return best

    return walk(0, 0)


def reduce_colors(coloring: EdgeColoring) -> EdgeColoring:
    """Merge the first two colors that no palette holds together (two
    disjoint hyperedges of the associated hypergraph), to a fixed point.

    Two such color classes form a 1-regular subgraph, so recoloring the
    larger color with the smaller stays proper and never increases the
    palette count.  The merged color is held by exactly the palettes that
    held either, so a merge updates the color -> palettes map in place.  The
    output's associated hypergraph is pairwise intersecting.
    """
    holders = dict(associated_hypergraph(coloring).hyperedges)
    target = {c: c for c in holders}
    while True:
        for a, b in combinations(holders, 2):
            if not holders[a] & holders[b]:
                break
        else:
            colors = {eid: target[c] for eid, c in coloring.colors.items()}
            return EdgeColoring(coloring.graph, colors)
        holders[a] |= holders.pop(b)
        target = {c: a if t == b else t for c, t in target.items()}


class LowerBoundCheck(NamedTuple):
    applicable: bool
    satisfied: bool


def check_lower_bound_theorem(result: PaletteIndexResult) -> LowerBoundCheck:
    """Check that graphs with max degree >= 2 and no spanning even subgraph
    without isolated vertices have palette index above their min degree.

    ``result`` is the graph's ``palette_index``; the graph is
    ``result.coloring.graph``.  When two colors lie in every palette of
    ``result.coloring``, their classes are two disjoint perfect matchings,
    whose union is a spanning 2-regular subgraph, so the hypothesis fails
    without the cycle-space search.  On an even graph that search exits at
    once, more cheaply than this test, so the test runs only when some
    degree is odd.
    """
    graph = result.coloring.graph
    if max(graph.degrees, default=0) < 2:
        return LowerBoundCheck(False, True)
    if any(d % 2 for d in graph.degrees) and _two_colors_in_every_palette(result.coloring):
        return LowerBoundCheck(False, True)
    exists, _ = has_spanning_even_subgraph_no_isolated(graph)
    if exists:
        return LowerBoundCheck(False, True)
    return LowerBoundCheck(True, result.s_check > min(graph.degrees))


def _two_colors_in_every_palette(coloring: EdgeColoring) -> bool:
    """Whether at least two colors lie in the palette of every vertex."""
    common = set(coloring.colors.values())
    for palette in coloring.vertex_palettes:
        common &= palette
        if len(common) < 2:
            return False
    return True
