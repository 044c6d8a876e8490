"""Frozen reference copies of the palette search, the parity filter and
the two-part certificate verifier.

This ``_search`` counts each vertex's uncolored edges at every node and
collects the palettes it completes in a list per color try; this
``_parity_ok`` counts the degree classes on every call.  The package's
``_search`` and ``_parity_ok`` must return the same values on every input,
so the tests compare them with these copies.  ``verify_decomposition_2``
is the verifier that checked (H0, H1) certificates on their own, before
they were read as three-set certificates; the package's verdict on every
split must be its verdict.  Nothing in the package imports this module;
leave the copies as they are.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product

from palette_kit.coloring import is_class1_regular
from palette_kit.multigraph import (
    MultiGraph,
    induced_edge_subgraph,
    is_regular,
)

PARITY_EFFORT_CAP = 20_000


def _search(
    graph: MultiGraph,
    t: int,
    k_budget: int,
    order: tuple[tuple[int, int, int], ...],
) -> dict[int, int] | None:
    """Find a proper coloring with <= t distinct palettes and colors from
    {1..k_budget}, exploring canonical colorings (fresh colors in order).

    A budget below the maximum degree admits no proper coloring, so it fails
    up front.  From the maximum degree up, a vertex with j colored edges has
    k_budget - j >= its uncolored edges free colors, so the loop over colors
    needs no budget test.

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
    Completed palettes are indexed by size, which is their vertices' degree,
    so the fit test scans only the palettes an open vertex could end with.
    """
    n = graph.n
    deg = graph.degrees
    if k_budget < max(deg, default=0):
        return None
    masks = [0] * n
    rem = list(deg)
    completed: dict[int, int] = {}  # palette bitmask -> vertex multiplicity
    sized: list[list[int]] = [[] for _ in range(max(deg, default=0) + 1)]
    isolated = sum(1 for d in deg if d == 0)
    if isolated:
        completed[0] = isolated
        if t < 1:
            return None
    m = len(order)
    assignment: dict[int, int] = {}

    def rec(i: int, maxused: int, d: int, union: int) -> bool:
        if i == m:
            return True
        eid, u, v = order[i]
        mu0, mv0 = masks[u], masks[v]
        ru, rv = rem[u] - 1, rem[v] - 1
        rem[u], rem[v] = ru, rv
        closes = ru == 0 or rv == 0
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
            # Entries of deeper edges left by failed branches are overwritten
            # before any success reads them.
            assignment[eid] = c
            ok = True
            count = before
            if closes:
                added: list[int] = []
                for x, mx in ((u, mu), (v, mv)):
                    if rem[x] == 0:
                        cnt = completed.get(mx)
                        if cnt is None:
                            if len(completed) == t:
                                ok = False
                                break
                            completed[mx] = 1
                            sized[deg[x]].append(mx)
                        else:
                            completed[mx] = cnt + 1
                        added.append(mx)
                count = len(completed)
            nd, nunion = d, union
            if ok and count >= t - 1:
                # Open vertices that fit no completed palette must all end
                # with the one palette left, or there is none left for them.
                last = count == t
                if count > before or d < 0:
                    xs, nd, nunion = range(n), 0, 0
                else:
                    xs = (u, v)
                for x in xs:
                    if rem[x]:
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
                return True
            if closes:
                for mx in reversed(added):
                    if completed[mx] == 1:
                        del completed[mx]
                        sized[mx.bit_count()].pop()
                    else:
                        completed[mx] -= 1
        masks[u], masks[v] = mu0, mv0
        rem[u], rem[v] = ru + 1, rv + 1
        return False

    # d = -1 asks the first node for a full sweep, as the root state is unchecked.
    return dict(assignment) if rec(0, 0, -1, 0) else None


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
    zeros has an even sum, and the choices tried do not depend on k.
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
        if sum(max(o, 1) for o in odd) > budget:
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


def verify_decomposition_2(
    graph: MultiGraph, h0: frozenset[int] | None, h1: frozenset[int] | None
) -> tuple[bool, tuple[tuple[str, bool, str], ...]]:
    """The verdict and clauses of a two-part certificate, each present
    part proved Class 1 by χ′."""
    deg = graph.degrees
    delta_max = max(deg, default=0)
    delta_min = min(deg, default=0)
    clauses: list[tuple[str, bool, str]] = []
    clauses.append(("delta-gap", delta_max > delta_min, "max degree exceeds min degree"))
    parts = tuple((name, s) for name, s in (("H0", h0), ("H1", h1)) if s is not None)
    clauses.append(("parts-present", bool(parts), "at least one part is present"))
    nonempty = all(len(s) > 0 for _, s in parts)
    clauses.append(("parts-nonempty", nonempty, "every present part has an edge"))
    used: set[int] = set()
    disjoint = True
    for _, s in parts:
        if used & s:
            disjoint = False
        used |= s
    clauses.append(("edge-disjoint", disjoint, "parts share no edge"))
    clauses.append(("edges-cover", used == set(graph.edge_ids), "parts cover E(G)"))
    if h0 is not None and len(h0) > 0:
        view = induced_edge_subgraph(graph, h0)
        spanning = set(view.vertex_labels or ()) == set(range(graph.n))
        clauses.append(("h0-spanning", spanning, "H0 covers every vertex"))
        clauses.append(("h0-regular", is_regular(view) == delta_min, f"H0 is {delta_min}-regular"))
        clauses.append(("h0-class1", is_class1_regular(view) is not None, "H0 is Class 1"))
    if h1 is not None and len(h1) > 0:
        view = induced_edge_subgraph(graph, h1)
        want = delta_max - delta_min
        clauses.append(("h1-regular", is_regular(view) == want, f"H1 is {want}-regular"))
        clauses.append(("h1-class1", is_class1_regular(view) is not None, "H1 is Class 1"))
    return all(ok for _, ok, _ in clauses), tuple(clauses)
