"""Proper edge colorings, exact chromatic index and palette extraction.

``EdgeColoring`` builds each vertex's palette in the pass that checks
properness and keeps them as ``vertex_palettes``; ``palette``,
``palettes_of`` and every palette count elsewhere read them rather than
recompute them from the colors.

``_search`` is the one backtracking kernel of both exact searches.  The
chromatic index runs it with t = n palettes, a bound that never prunes:
n distinct completed palettes means every vertex is complete, and with
n - 1 of them at most one vertex is open, whose colors always fit one palette.
Its edge order is the endpoint order unless the caller passes another, as
``palette_index`` passes its proof order.  The kernel reads each vertex's
closing position off the edge order once per search.  It visits the same
nodes in the same order, and returns the same coloring, as the reference
copy in ``tests/frozen.py``, which counts uncolored edges at every node.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ImproperColoring
from .multigraph import FrozenValue, MultiGraph, is_regular


class EdgeColoring(FrozenValue):
    """A proper assignment of positive integer colors to every edge.

    Properness (incident edges get distinct colors) is validated at
    construction, so instances are proper by invariant.  The colors are a
    dict, so a coloring compares by value but cannot be hashed.

    The properness check builds ``vertex_palettes``, the tuple of each
    vertex's palette: a vertex is proper exactly when its palette has as
    many colors as it has edges.  It is derived from the fields, so it takes
    no part in equality, hashing or ``repr``.
    """

    graph: MultiGraph
    colors: dict[int, int]

    def __init__(self, graph: MultiGraph, colors):
        colors = dict(colors)
        if colors.keys() != graph.edge_ids:
            raise ImproperColoring("assignment must be total on the edge set")
        for eid, c in colors.items():
            if not isinstance(c, int) or isinstance(c, bool) or c < 1:
                raise ImproperColoring(f"edge {eid}: color must be a positive integer")
        palettes = tuple([
            frozenset([colors[eid] for eid, _ in incident]) for incident in graph.incidence
        ])
        if tuple(map(len, palettes)) != graph.degrees:
            v = next(v for v, d in enumerate(graph.degrees) if len(palettes[v]) < d)
            seq = [colors[eid] for eid, _ in graph.incidence[v]]
            c = next(c for i, c in enumerate(seq) if c in seq[:i])
            raise ImproperColoring(f"vertex {v}: incident edges share color {c}")
        self.__dict__.update(graph=graph, colors=colors, vertex_palettes=palettes)

    def palette(self, v: int) -> frozenset[int]:
        return self.vertex_palettes[v]


class PaletteSystem(FrozenValue):
    """Distinct palettes of a coloring and the vertex classes they induce.

    Palettes are ordered lexicographically by sorted color list, with the
    empty palette (isolated vertices) first.
    """

    palettes: tuple[frozenset[int], ...]
    vertex_class: tuple[int, ...]

    def __init__(self, palettes, vertex_class):
        self.__dict__.update(palettes=palettes, vertex_class=vertex_class)

    def __len__(self) -> int:
        return len(self.palettes)

    def classes(self) -> tuple[frozenset[int], ...]:
        out: list[set[int]] = [set() for _ in self.palettes]
        for v, j in enumerate(self.vertex_class):
            out[j].add(v)
        return tuple(frozenset(s) for s in out)


def palettes_of(coloring: EdgeColoring) -> PaletteSystem:
    raw = coloring.vertex_palettes
    distinct = sorted(set(raw), key=sorted)
    index = {p: i for i, p in enumerate(distinct)}
    return PaletteSystem(tuple(distinct), tuple(index[p] for p in raw))


def _search_order(graph: MultiGraph) -> tuple[tuple[int, int, int], ...]:
    # Completing low vertices early keeps palette bookkeeping tight.
    return tuple(sorted(graph.edges, key=lambda e: (e[1], e[2], e[0])))


def _search(
    graph: MultiGraph,
    t: int,
    k_budget: int,
    order: tuple[tuple[int, int, int], ...],
) -> dict[int, int] | None:
    """Find a proper coloring with <= t distinct palettes and colors from
    {1..k_budget}, exploring canonical colorings (fresh colors in order).

    A budget below the maximum degree needs no early exit: a vertex of
    larger degree runs out of free colors at its own edges, and the search
    fails there.

    Palettes of completed vertices are final, so their distinct count is a
    lower bound on the final palette count; once it reaches t, every
    incomplete vertex must extend into one of the completed palettes.  At
    t - 1 one palette P is left, so every open vertex that fits no completed
    palette of its degree must end with P: those vertices share one degree
    d = |P| and their masks together hold at most d colors.  Both rules only
    cut subtrees without a solution, so the first coloring found is the same
    as without them.

    Both rules are checked incrementally: a sweep of every open vertex when
    the set of completed palettes changes, otherwise only the edge's two
    ends, with the lookahead's (d, union of masks) passed down the recursion.
    That state starts empty, so the first node checks only its two ends.
    This is exact as every package call passes t >= the number of distinct
    degrees: the first node has t - 1 completed palettes without completing
    one only when t <= 1, or t <= 2 with isolated vertices, so every open
    vertex has one degree, and only u and v hold a color.
    Completed palettes are indexed by size, which is their vertices' degree,
    so the fit test scans only the palettes an open vertex could end with.

    ``order`` holds every edge once.  A vertex is open after position i
    exactly when its last edge in the order comes later, so ``closing``
    (that position, per vertex) replaces counts of uncolored edges, and a
    sweep walks the tuple of vertices open after i, built the first time a
    sweep at i needs it.  The edge's two ends are completed inline, with
    one flag each for the undo instead of a list per color try, and a color
    is written to the result only on the way back from a success.  None of
    this changes a decision, so the search visits the same nodes in the
    same order, and returns the same coloring, as one that counts.
    """
    n = graph.n
    deg = graph.degrees
    masks = [0] * n
    closing = [-1] * n  # isolated vertices are never open
    for i, (_, u, v) in enumerate(order):
        closing[u] = closing[v] = i
    m = len(order)
    opened: list[tuple[int, ...] | None] = [None] * m
    completed: dict[int, int] = {}  # palette bitmask -> vertex multiplicity
    sized: list[list[int]] = [[] for _ in range(max(deg, default=0) + 1)]
    isolated = sum(1 for d in deg if d == 0)
    if isolated:
        completed[0] = isolated
        if t < 1:
            return None
    # Keyed in the order, so the result lists the edges as they are colored.
    assignment = dict.fromkeys([eid for eid, _, _ in order])

    def rec(i: int, maxused: int, d: int, union: int) -> bool:
        if i == m:
            return True
        eid, u, v = order[i]
        mu0, mv0 = masks[u], masks[v]
        cu, cv = closing[u] == i, closing[v] == i
        # Each branch restores the completed palettes before the next color.
        before = len(completed)
        # The colors 1..min(maxused + 1, k_budget) free at both ends, lowest
        # first.  Conditional expressions stand in for min and max: builtin
        # calls at every node cost about a tenth of the search's time.
        top = maxused + 1 if maxused < k_budget else k_budget
        free = ~(mu0 | mv0) & ((1 << top) - 1)
        while free:
            bit = free & -free
            free ^= bit
            c = bit.bit_length()
            mu = mu0 | bit
            mv = mv0 | bit
            masks[u], masks[v] = mu, mv
            # Whether u's and v's palettes were counted in ``completed``.
            au = av = False
            ok = True
            if cu:
                cnt = completed.get(mu)
                if cnt is not None:
                    completed[mu] = cnt + 1
                    au = True
                elif len(completed) < t:
                    completed[mu] = 1
                    sized[deg[u]].append(mu)
                    au = True
                else:
                    ok = False
            if cv and ok:
                cnt = completed.get(mv)
                if cnt is not None:
                    completed[mv] = cnt + 1
                    av = True
                elif len(completed) < t:
                    completed[mv] = 1
                    sized[deg[v]].append(mv)
                    av = True
                else:
                    ok = False
            count = len(completed)
            nd, nunion = d, union
            if ok and count >= t - 1:
                # Open vertices that fit no completed palette must all end
                # with the one palette left, or there is none left for them.
                last = count == t
                if count > before:
                    xs = opened[i]
                    if xs is None:
                        xs = opened[i] = tuple([x for x in range(n) if closing[x] > i])
                    nd = nunion = 0
                else:
                    xs = (u, v)
                for x in xs:
                    if closing[x] > i:
                        mx, dx = masks[x], deg[x]
                        for p in sized[dx]:
                            if mx & p == mx:
                                break
                        else:
                            if last or (nd and dx != nd):
                                ok = False
                                break
                            nd = dx
                            nunion |= mx
                if nunion.bit_count() > nd:
                    ok = False
            if ok and rec(i + 1, c if c > maxused else maxused, nd, nunion):
                assignment[eid] = c
                return True
            if av:
                if completed[mv] == 1:
                    del completed[mv]
                    sized[deg[v]].pop()
                else:
                    completed[mv] -= 1
            if au:
                if completed[mu] == 1:
                    del completed[mu]
                    sized[deg[u]].pop()
                else:
                    completed[mu] -= 1
        masks[u], masks[v] = mu0, mv0
        return False

    return dict(assignment) if rec(0, 0, 0, 0) else None


class ChromaticIndexResult(NamedTuple):
    chi_prime: int
    witness: EdgeColoring


def chromatic_index(
    graph: MultiGraph, order: tuple[tuple[int, int, int], ...] | None = None
) -> ChromaticIndexResult:
    """Exact chromatic index with a proper witness using that many colors.

    Searches upward from the maximum degree; Vizing's bound for multigraphs
    (max degree + max multiplicity) guarantees termination.  Each k is one
    ``_search`` with t = n, which never prunes a proper k-coloring.  The
    edges are colored in ``order``, by default the endpoint order; the
    order decides only the cost and which witness is found, never chi'.
    There is no edge cap here; callers apply their own before searching.
    """
    delta = max(graph.degrees, default=0)
    upper = delta + graph.max_multiplicity
    if order is None:
        order = _search_order(graph)
    for k in range(delta, upper + 1):
        assignment = _search(graph, graph.n, k, order)
        if assignment is not None:
            return ChromaticIndexResult(k, EdgeColoring(graph, assignment))
    raise AssertionError("chromatic index exceeded the Vizing bound")


def is_class1_regular(graph: MultiGraph) -> EdgeColoring | None:
    """The r-edge-coloring found by ``chromatic_index`` when the graph is
    r-regular and Class 1, else None."""
    r = is_regular(graph)
    if r is None:
        return None
    result = chromatic_index(graph)
    return result.witness if result.chi_prime == r else None
