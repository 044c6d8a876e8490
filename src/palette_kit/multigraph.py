"""Loopless undirected multigraphs with stable edge identities.

Vertices of a graph are the indices 0..n-1.  Every edge carries an integer
id that survives subgraph extraction: a subgraph view keeps the parent's
edge ids and remembers, through ``vertex_labels``, which parent vertex each
of its local vertices corresponds to.  An edge set is a frozenset of ids.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Container, Iterator
from functools import cached_property

from .errors import LoopRejected, MalformedInput, ResourceLimit

EVEN_SUBGRAPH_DIMENSION_CAP = 25


class FrozenValue:
    """An immutable value whose fields are the names its class annotates.

    A subclass's ``__init__`` validates its arguments and stores the fields
    through ``__dict__``.  Instances then compare and hash by their fields,
    show them in ``repr``, and raise ``AttributeError`` on assignment.
    ``cached_property`` also writes through ``__dict__``, so it still works.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", {}))

    def _values(self) -> tuple:
        return tuple(self.__dict__[f] for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")


class MultiGraph(FrozenValue):
    """An immutable multigraph; parallel edges allowed, loops rejected."""

    n: int
    edges: tuple[tuple[int, int, int], ...]
    vertex_labels: tuple[int, ...] | None

    def __init__(self, n: int, edges, vertex_labels=None):
        if n < 0:
            raise MalformedInput("vertex count must be nonnegative")
        seen: set[int] = set()
        norm = []
        for eid, u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise MalformedInput(f"edge {eid}: endpoint out of range 0..{n - 1}")
            if u == v:
                raise LoopRejected(f"edge {eid}: loop at vertex {u}")
            if eid in seen:
                raise MalformedInput(f"duplicate edge id {eid}")
            seen.add(eid)
            norm.append((eid, u, v) if u < v else (eid, v, u))
        if vertex_labels is not None:
            vertex_labels = tuple(vertex_labels)
            if len(vertex_labels) != n:
                raise MalformedInput("vertex_labels must have one entry per vertex")
        self.__dict__.update(n=n, edges=tuple(norm), vertex_labels=vertex_labels)

    @classmethod
    def from_pairs(cls, n: int, pairs) -> MultiGraph:
        """Build a graph with edge ids 0..m-1 assigned in input order."""
        return cls(n, tuple((i, u, v) for i, (u, v) in enumerate(pairs)))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_ids(self) -> frozenset[int]:
        return frozenset(e[0] for e in self.edges)

    @cached_property
    def by_id(self) -> dict[int, tuple[int, int, int]]:
        return {e[0]: e for e in self.edges}

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for _, u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    @cached_property
    def incidence(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex, the (edge id, other endpoint) pairs of incident edges."""
        inc: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for eid, u, v in self.edges:
            inc[u].append((eid, v))
            inc[v].append((eid, u))
        return tuple(tuple(entries) for entries in inc)

    @cached_property
    def max_multiplicity(self) -> int:
        if not self.edges:
            return 0
        return max(Counter((u, v) for _, u, v in self.edges).values())


def is_regular(graph: MultiGraph) -> int | None:
    """Return the common degree if every vertex has it, else None.

    An edgeless graph with at least one vertex is 0-regular.
    """
    deg = graph.degrees
    if not deg:
        return 0
    r = deg[0]
    return r if all(d == r for d in deg) else None


def induced_edge_subgraph(graph: MultiGraph, ids: frozenset[int]) -> MultiGraph:
    """The subgraph induced by a set of edge ids; isolated vertices are dropped.

    Edge ids are preserved; ``vertex_labels`` maps the view's local vertices
    back to the parent's (recursively, to the root graph's labels).
    """
    unknown = ids - graph.edge_ids
    if unknown:
        raise MalformedInput(f"edge ids {sorted(unknown)} not present in parent graph")
    if not ids:
        raise MalformedInput("empty edge subsets do not induce a subgraph")
    touched: set[int] = set()
    kept = []
    for eid, u, v in graph.edges:
        if eid in ids:
            kept.append((eid, u, v))
            touched.add(u)
            touched.add(v)
    verts = sorted(touched)
    local = {v: i for i, v in enumerate(verts)}
    edges = tuple((eid, local[u], local[v]) for eid, u, v in kept)
    root = graph.vertex_labels or range(graph.n)
    labels = tuple(root[v] for v in verts)
    return MultiGraph(len(verts), edges, vertex_labels=labels)


def connected_components(graph: MultiGraph) -> tuple[frozenset[int], ...]:
    seen = [False] * graph.n
    comps = []
    for start in range(graph.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = [start]
        while stack:
            x = stack.pop()
            for _, y in graph.incidence[x]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    stack.append(y)
        comps.append(frozenset(comp))
    return tuple(comps)


def is_connected(graph: MultiGraph) -> bool:
    return len(connected_components(graph)) <= 1


def perfect_matchings(
    graph: MultiGraph, avoid: Container[int] = frozenset()
) -> Iterator[tuple[int, ...]]:
    """Yield every perfect matching once, as a sorted tuple of edge ids.

    A matching uses no edge whose id is in ``avoid``: the search runs on
    G − avoid in place.  It always matches the lowest uncovered vertex,
    through its incident edges in incidence order, so parallel edges give
    distinct matchings.  Two rules cut branches that hold no perfect
    matching, so neither changes what is yielded or in which order: a
    covered vertex set that led to no matching is remembered and never
    expanded again, and an edge v–w is skipped when it leaves an uncovered
    neighbour of v or w with no uncovered neighbour of its own (neighbour
    bitmasks, built once per call without the avoided edges).  Exact, and
    exponential on a dense graph without a perfect matching; the package
    passes cubic and 4-regular graphs on at most 16 vertices, and a blossom
    algorithm would be polynomial on every graph.
    """
    n = graph.n
    if n % 2:
        return
    nbrs = [0] * n
    for eid, u, v in graph.edges:
        if eid not in avoid:
            nbrs[u] |= 1 << v
            nbrs[v] |= 1 << u
    if not all(nbrs):
        return
    full = (1 << n) - 1
    incidence = graph.incidence
    dead: set[int] = set()
    acc: list[int] = []

    def rec(covered: int) -> Iterator[tuple[int, ...]]:
        if covered == full:
            yield tuple(sorted(acc))
            return
        v = (~covered & (covered + 1)).bit_length() - 1
        found = False
        for eid, w in incidence[v]:
            after = covered | 1 << v | 1 << w
            if covered >> w & 1 or eid in avoid or after in dead:
                continue
            free = full ^ after
            # An uncovered neighbour of v or w that no uncovered vertex
            # neighbours can never be matched below this edge.
            rest = (nbrs[v] | nbrs[w]) & free
            while rest:
                low = rest & -rest
                if not nbrs[low.bit_length() - 1] & free:
                    break
                rest ^= low
            if rest:
                continue
            acc.append(eid)
            for matching in rec(after):
                found = True
                yield matching
            acc.pop()
        if not found:
            dead.add(covered)

    yield from rec(0)


def has_perfect_matching(graph: MultiGraph) -> tuple[bool, tuple[int, ...] | None]:
    """Decide whether a perfect matching exists; return a verified witness.

    The witness is the first of ``perfect_matchings``: edge ids, pairwise
    vertex-disjoint and covering every vertex.
    """
    witness = next(perfect_matchings(graph), None)
    if witness is None:
        return False, None
    _check_matching_witness(graph, witness)
    return True, witness


def disjoint_perfect_matchings(
    graph: MultiGraph,
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Return the first pair of edge-disjoint perfect matchings, or None.

    For each perfect matching M, in ``perfect_matchings`` order, search for
    a perfect matching of G − M and stop at the first hit.  G − M is searched
    in place, as ``perfect_matchings`` with M's edge ids to avoid; its
    neighbour check prunes only branches without a perfect matching, so the
    pair returned is the one a plain search in the same order would return.
    Exact: if A and B are disjoint, B is a perfect matching of G − A, so a
    pair is found no later than at A.  Both members are sorted edge-id
    tuples and are verified before they are returned.  The empty graph's
    only perfect matching is the empty one, so it has no pair.
    """
    if graph.n == 0:
        return None
    for first in perfect_matchings(graph):
        taken = set(first)
        second = next(perfect_matchings(graph, avoid=taken), None)
        if second is not None:
            _check_matching_witness(graph, first)
            _check_matching_witness(graph, second)
            if not taken.isdisjoint(second):
                raise AssertionError("perfect matchings are not edge-disjoint")
            return first, second
    return None


def _check_matching_witness(graph: MultiGraph, witness: tuple[int, ...]) -> None:
    covered: set[int] = set()
    for eid in witness:
        _, u, v = graph.by_id[eid]
        if u in covered or v in covered:
            raise AssertionError("matching witness is not vertex-disjoint")
        covered.add(u)
        covered.add(v)
    if len(covered) != graph.n:
        raise AssertionError("matching witness does not cover all vertices")


def has_spanning_even_subgraph_no_isolated(
    graph: MultiGraph,
) -> tuple[bool, tuple[int, ...] | None]:
    """Search for an edge set with all degrees even and >= 2.

    When every degree is even (and >= 2) the whole edge set is the witness,
    before any elimination or cap.

    Otherwise, a bundle of two or more parallel edges can carry either
    parity and always covers both its ends: take one or two of its edges.
    So the search runs over the cycle space of the underlying simple graph,
    and only the vertices on no such bundle must be covered.  That cycle
    space is the GF(2) kernel of the vertex rows of the incidence matrix,
    and its basis comes from one elimination of those rows; its dimension
    is m - rank = m - n + #components.  A vertex to cover that no basis
    vector reaches lies on no cycle, which decides the answer before any
    cap.  Otherwise the walk over every GF(2) combination of the basis is exact,
    and raises ResourceLimit when the dimension exceeds
    ``EVEN_SUBGRAPH_DIMENSION_CAP``.
    """
    if graph.n == 0:
        return True, ()
    if min(graph.degrees) < 2:
        # A vertex of degree < 2 can never reach even degree >= 2.
        return False, None
    if all(d % 2 == 0 for d in graph.degrees):
        # An even graph is its own witness, whatever its cycle space.
        return True, tuple(sorted(graph.edge_ids))
    bundles: dict[tuple[int, int], list[int]] = {}
    for eid, u, v in graph.edges:
        bundles.setdefault((u, v), []).append(eid)
    on_bundle = {x for pair, ids in bundles.items() if len(ids) > 1 for x in pair}
    need = [v for v in range(graph.n) if v not in on_bundle]
    # Bit i stands for the i-th simple pair of ``bundles``.
    vertex_mask = [0] * graph.n
    for i, (u, v) in enumerate(bundles):
        vertex_mask[u] |= 1 << i
        vertex_mask[v] |= 1 << i

    # Reduced row echelon form of the vertex rows, as pivot bit -> row.
    pivots: dict[int, int] = {}
    for row in vertex_mask:
        for p, r in pivots.items():
            if row >> p & 1:
                row ^= r
        if row:
            low = (row & -row).bit_length() - 1
            pivots = {p: r ^ row if r >> low & 1 else r for p, r in pivots.items()}
            pivots[low] = row
    # Each free bit f spans the kernel with the pivots whose row has bit f.
    basis = [
        1 << f | sum(1 << p for p, r in pivots.items() if r >> f & 1)
        for f in range(len(bundles))
        if f not in pivots
    ]
    reach = 0
    for vec in basis:
        reach |= vec
    if any(not reach & vertex_mask[v] for v in need):
        return False, None
    dim = len(basis)
    if dim > EVEN_SUBGRAPH_DIMENSION_CAP:
        raise ResourceLimit("cycle-space dimension", dim, EVEN_SUBGRAPH_DIMENSION_CAP)

    current = 0
    for step in range(1 << dim):
        # Gray-code walk: flip the basis element at the lowest set bit.
        if step:
            current ^= basis[(step & -step).bit_length() - 1]
        if all(current & vertex_mask[v] for v in need):
            # An edge in the walk's set takes one edge of its bundle; any
            # other bundle takes two, which covers its ends at even parity.
            witness = []
            for i, ids in enumerate(bundles.values()):
                if current >> i & 1:
                    witness.append(ids[0])
                elif len(ids) > 1:
                    witness += ids[:2]
            return True, tuple(sorted(witness))
    return False, None
