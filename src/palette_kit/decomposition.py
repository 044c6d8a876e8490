"""Decompositions into Class 1 regular subgraphs: extraction from minimal
colorings, synthesis of colorings from certificates, and verification.

Extraction groups the colors of a minimal coloring by the palettes that hold
them, that is by the hyperedges of the associated hypergraph
(``hypergraphs.hyperedges_of``).  The A-sets are the vertex classes of the
palettes.  Every color of a hyperedge is a perfect matching of the union of
its A-sets, so the colors of one hyperedge span a regular Class 1 part.
Minimality makes the hyperedges pairwise intersecting, which leaves five
possible hyperedges over three A-sets and so at most four parts.  With two
palettes the certificate is the three-set one without H2 and H3, its A-sets
V − V(H1), V(H1) and ∅.

A certificate flows ``palette_index`` → ``extract_decomposition_3`` →
``verify_decomposition_3`` → ``synthesize_coloring_3(graph, dec, report)``.
Extraction only reads the minimal coloring and does not check what it
returns.  Verification takes the coloring the certificate came from, when
there is one, and proves each part Class 1 by its restriction: renumbered
to 1..r, that is a proper r-coloring of the r-regular part exactly when it
uses r colors.  χ′ runs on a part only when no coloring is given (a
certificate read from a file) or its restriction uses more colors.  The
report carries each Class 1 part's edge-coloring, from which synthesis
builds without another search.  ``certify_3`` runs the three-set path
once, and every caller that needs that certificate takes it from there.
``regular_corollary_check(graph, dec, report)`` appends the corollary's
clauses (shape, three parts, degree parity, equal degrees) to that same
report, and ``two_palette_check(graph, dec, report)`` thm-s2's (a degree
gap, no H2 or H3, H0 δ_min-regular, H1 (Δ − δ_min)-regular), so every
certificate has one verdict, its ``ClauseReport``.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import NamedTuple

from .coloring import (
    EdgeColoring,
    PaletteSystem,
    is_class1_regular,
    palettes_of,
)
from .errors import (
    InvalidCertificate,
    MalformedInput,
    NonMinimalColoring,
    NotConnected,
    NotCubic,
    NotRegular,
    TooManyPalettes,
)
from .hypergraphs import hyperedges_of
from .multigraph import (
    EdgeSubset,
    MultiGraph,
    VertexPartition,
    has_perfect_matching,
    induced_edge_subgraph,
    is_connected,
    is_regular,
)

SHAPE_A3 = "A3"
SHAPE_A1A2 = "A1A2"


class Decomposition3(NamedTuple):
    h0: EdgeSubset | None
    h1: EdgeSubset | None
    h2: EdgeSubset | None
    h3: EdgeSubset | None
    partition: VertexPartition
    shape: str | None

    def parts(self) -> tuple[tuple[str, EdgeSubset], ...]:
        named = (("H0", self.h0), ("H1", self.h1), ("H2", self.h2), ("H3", self.h3))
        return tuple((name, s) for name, s in named if s is not None)


class ClauseReport(NamedTuple):
    """The clauses checked on a certificate.  ``witnesses`` maps each part
    name that passed its Class 1 clause to the r-edge-coloring proving it."""

    ok: bool
    clauses: tuple[tuple[str, bool, str], ...]
    witnesses: dict[str, EdgeColoring]

    def failures(self) -> tuple[tuple[str, str], ...]:
        return tuple((name, detail) for name, passed, detail in self.clauses if not passed)

    def require_ok(self) -> ClauseReport:
        """Return the report, or raise InvalidCertificate naming the first
        failed clause."""
        if not self.ok:
            raise InvalidCertificate(*self.failures()[0])
        return self


def _edge_partition_clauses(
    graph: MultiGraph, parts: tuple[tuple[str, EdgeSubset], ...]
) -> list[tuple[str, bool, str]]:
    clauses: list[tuple[str, bool, str]] = []
    nonempty = all(len(s) > 0 for _, s in parts)
    clauses.append(("parts-nonempty", nonempty, "every present part has an edge"))
    used: set[int] = set()
    disjoint = True
    for _, s in parts:
        if used & s.members:
            disjoint = False
        used |= s.members
    cover = used == set(graph.edge_ids)
    clauses.append(("edge-disjoint", disjoint, "parts share no edge"))
    clauses.append(("edges-cover", cover, "parts cover E(G)"))
    return clauses


def _class1_clause(
    name: str,
    view: MultiGraph,
    r: int | None,
    coloring: EdgeColoring | None,
    witnesses: dict[str, EdgeColoring],
) -> tuple[str, bool, str]:
    """The part's Class 1 clause; ``r`` is ``is_regular(view)``.

    The coloring's restriction to the part, renumbered to 1..r, is a proper
    r-coloring of an r-regular graph, and so proves Class 1, exactly when it
    uses r colors.  Only otherwise, or without a coloring, does χ′ run.
    """
    witness = None
    if coloring is not None and r:
        colors = {eid: coloring.colors[eid] for eid, _, _ in view.edges}
        used = sorted(set(colors.values()))
        if len(used) == r:
            rank = {c: i for i, c in enumerate(used, 1)}
            witness = EdgeColoring(view, {eid: rank[c] for eid, c in colors.items()})
    if witness is None:
        witness = is_class1_regular(view)
    if witness is not None:
        witnesses[name] = witness
    return (f"{name.lower()}-class1", witness is not None, f"{name} is Class 1")


def verify_decomposition_3(
    graph: MultiGraph, dec: Decomposition3, coloring: EdgeColoring | None = None
) -> ClauseReport:
    """Check a certificate of at most four parts.  Each present part's
    Class 1 clause reads ``coloring``, a proper coloring of ``graph``, when
    given (see ``_class1_clause``), and otherwise runs χ′ on the part."""
    if coloring is not None and coloring.graph is not graph and coloring.graph != graph:
        raise MalformedInput("coloring belongs to a different graph")
    clauses: list[tuple[str, bool, str]] = []
    witnesses: dict[str, EdgeColoring] = {}
    covered = frozenset().union(*dec.partition.parts)
    parts = dec.parts()
    clauses.append(
        ("partition-covers", covered == set(range(graph.n)), "A-sets cover V(G)")
    )
    clauses.append(
        (
            "partition-width",
            len(dec.partition.parts) == 3,
            "exactly three (possibly empty) A-sets",
        )
    )
    clauses.append(
        ("parts-present", bool(parts) or not graph.m, "a nonempty graph has parts")
    )
    clauses.extend(_edge_partition_clauses(graph, parts))
    shape_ok = (dec.h3 is None) == (dec.shape is None) and dec.shape in (
        None,
        SHAPE_A3,
        SHAPE_A1A2,
    )
    clauses.append(("shape-consistent", shape_ok, "shape flag matches H3 presence"))
    views: dict[str, MultiGraph] = {}
    for name, subset in parts:
        if len(subset) == 0:
            continue
        view = induced_edge_subgraph(graph, subset)
        views[name] = view
        r = is_regular(view)
        clauses.append((f"{name.lower()}-regular", r is not None, f"{name} is regular"))
        clauses.append(_class1_clause(name, view, r, coloring, witnesses))
    if "H0" in views:
        spanning = set(views["H0"].vertex_labels or ()) == set(range(graph.n))
        clauses.append(("h0-spanning", spanning, "H0 covers every vertex"))
    if len(dec.partition.parts) == 3:
        a1, a2, a3 = dec.partition.parts
        if "H1" in views:
            got = frozenset(views["H1"].vertex_labels or ())
            clauses.append(("h1-vertices", got == a2 | a3, "V(H1) = A2 u A3"))
        if "H2" in views:
            got = frozenset(views["H2"].vertex_labels or ())
            clauses.append(("h2-vertices", got == a1 | a3, "V(H2) = A1 u A3"))
        if "H3" in views and dec.shape in (SHAPE_A3, SHAPE_A1A2):
            want = a3 if dec.shape == SHAPE_A3 else a1 | a2
            got = frozenset(views["H3"].vertex_labels or ())
            clauses.append(
                ("h3-vertices", got == want, "V(H3) matches the shape flag")
            )
    return ClauseReport(all(ok for _, ok, _ in clauses), tuple(clauses), witnesses)


# The part, and the shape flag it sets, of each hyperedge (0-based A-set
# indices) of a minimal coloring: A1A2A3 -> H0, A2A3 -> H1, A1A3 -> H2, and
# H3 from A1A2 or from A3 alone.  The singletons A1 and A2 cannot occur.
_PART_OF_HYPEREDGE = {
    frozenset({0, 1, 2}): (0, None),
    frozenset({1, 2}): (1, None),
    frozenset({0, 2}): (2, None),
    frozenset({0, 1}): (3, SHAPE_A1A2),
    frozenset({2}): (3, SHAPE_A3),
}


def _read_certificate(coloring: EdgeColoring, system: PaletteSystem) -> Decomposition3:
    """The certificate of a coloring with at most three palettes.

    Two disjoint hyperedges raise NonMinimalColoring, so at most one
    palette holds a color that no other palette holds; it goes last.
    Padding with empty A-sets up to three, each holding every color
    vacuously, makes a one- or two-palette coloring read like a
    three-palette one.
    """
    holders = hyperedges_of(system)
    hyperedges = set(holders.values())
    if any(not x & y for x, y in combinations(hyperedges, 2)):
        raise NonMinimalColoring(
            "two colors share no palette (the associated hypergraph is not "
            "pairwise intersecting); run reduce_colors first"
        )
    private = [i for e in hyperedges if len(e) == 1 for i in e]
    order = [i for i in range(len(system)) if i not in private] + private
    position = {i: j for j, i in enumerate(order)}
    padding = frozenset(range(len(system), 3))
    part_of: dict[int, int] = {}
    shape = None
    for color, members in holders.items():
        part, part_shape = _PART_OF_HYPEREDGE[
            frozenset(position[i] for i in members) | padding
        ]
        part_of[color] = part
        shape = part_shape or shape
    edges: list[set[int]] = [set(), set(), set(), set()]
    for eid, color in coloring.colors.items():
        edges[part_of[color]].add(eid)
    h0, h1, h2, h3 = (
        EdgeSubset(coloring.graph, frozenset(s)) if s else None for s in edges
    )
    classes = system.classes()
    partition = VertexPartition(
        tuple(classes[i] for i in order) + (frozenset(),) * len(padding)
    )
    return Decomposition3(h0, h1, h2, h3, partition, shape)


def _stack(
    graph: MultiGraph,
    parts: tuple[tuple[str, EdgeSubset], ...],
    witnesses: dict[str, EdgeColoring],
) -> EdgeColoring:
    """Put each part's witness coloring on the next interval of colors, as
    long as the part's degree."""
    mapping: dict[int, int] = {}
    offset = 0
    for name, _ in parts:
        witness = witnesses[name]
        mapping.update({eid: c + offset for eid, c in witness.colors.items()})
        offset += is_regular(witness.graph)
    return EdgeColoring(graph, mapping)


def extract_decomposition_3(coloring: EdgeColoring) -> Decomposition3:
    """Read the at-most-three-palette decomposition off a minimal coloring.

    The A-sets are the vertex classes of the palettes, padded with empty
    ones to three.  A coloring whose associated hypergraph is not pairwise
    intersecting raises NonMinimalColoring; run reduce_colors first.  The
    result is not verified; callers run ``verify_decomposition_3``.
    """
    system = palettes_of(coloring)
    if len(system) > 3:
        raise TooManyPalettes(f"coloring induces {len(system)} palettes, need at most 3")
    return _read_certificate(coloring, system)


def synthesize_coloring_3(
    graph: MultiGraph, dec: Decomposition3, report: ClauseReport
) -> EdgeColoring:
    """Color each present part in exactly its degree on a disjoint color
    interval, taking each part's coloring from ``report``, the verification
    of ``dec``; vertices in the same A-set end with equal palettes.  A
    failing report raises InvalidCertificate."""
    coloring = _stack(graph, dec.parts(), report.require_ok().witnesses)
    if len(palettes_of(coloring)) > 3:
        raise AssertionError("synthesized coloring exceeds three palettes")
    for part in dec.partition.parts:
        if len({coloring.palette(v) for v in part}) > 1:
            raise AssertionError("an A-set received two distinct palettes")
    return coloring


def certify_3(
    graph: MultiGraph, coloring: EdgeColoring
) -> tuple[Decomposition3, ClauseReport, EdgeColoring | None]:
    """The certificate of a minimal coloring with at most three palettes,
    its verification, and the coloring synthesized from it (None when the
    report fails): the one path from a coloring to a checked certificate."""
    dec = extract_decomposition_3(coloring)
    report = verify_decomposition_3(graph, dec, coloring)
    synth = synthesize_coloring_3(graph, dec, report) if report.ok else None
    return dec, report, synth


def regular_corollary_check(
    graph: MultiGraph, dec: Decomposition3, report: ClauseReport
) -> ClauseReport:
    """``report``, the verification of ``dec``, with the corollary's clauses
    appended; a failing report comes back unchanged.

    The corollary concerns a k-regular graph with palette index 3, and the
    caller checks s = 3.  Its certificate is an optional r-regular spanning
    part H0 plus three (k - r)/2-regular Class 1 parts.
    """
    k = is_regular(graph)
    if k is None:
        raise NotRegular("regular_corollary_check requires a regular graph")
    if not report.ok:
        return report
    degree = {name: is_regular(w.graph) for name, w in report.witnesses.items()}
    r = degree.get("H0", 0)
    want = (k - r) // 2
    clauses = list(report.clauses)
    clauses += [
        ("shape-a1a2", dec.shape != SHAPE_A3, "V(H3)=A3 cannot occur for a regular graph"),
        ("three-parts", all(h is not None for h in (dec.h1, dec.h2, dec.h3)),
         "H1, H2, H3 must all be present"),
        ("degree-parity", 0 <= r < k and (k - r) % 2 == 0,
         f"k - r = {k - r} must be even and positive"),
    ]
    clauses.extend(
        ("equal-degrees", degree[name] == want,
         f"{name} is {degree[name]}-regular, expected {want}")
        for name in ("H1", "H2", "H3") if name in degree
    )
    return ClauseReport(all(ok for _, ok, _ in clauses), tuple(clauses), report.witnesses)


def two_palette_check(
    graph: MultiGraph, dec: Decomposition3, report: ClauseReport
) -> ClauseReport:
    """``report``, the verification of ``dec``, with thm-s2's clauses
    appended; a failing report comes back unchanged.

    Two palettes need a graph whose degrees differ and a certificate of at
    most two parts: an optional delta_min-regular spanning H0 and an
    optional (delta_max - delta_min)-regular H1.
    """
    if not report.ok:
        return report
    delta_max = max(graph.degrees, default=0)
    delta_min = min(graph.degrees, default=0)
    want = {"H0": delta_min, "H1": delta_max - delta_min}
    degree = {name: is_regular(w.graph) for name, w in report.witnesses.items()}
    clauses = list(report.clauses)
    clauses += [
        ("delta-gap", delta_max > delta_min, "max degree exceeds min degree"),
        ("two-parts", dec.h2 is None and dec.h3 is None, "H2 and H3 must be absent"),
    ]
    clauses.extend(
        (f"{name.lower()}-degree", degree[name] == want[name],
         f"{name} is {degree[name]}-regular, expected {want[name]}")
        for name in ("H0", "H1") if name in degree
    )
    return ClauseReport(all(ok for _, ok, _ in clauses), tuple(clauses), report.witnesses)


def classify_cubic(graph: MultiGraph, chi_prime: int) -> int:
    """Palette index of a connected cubic graph without a palette search,
    after Horňák, Kalinowski, Meszka and Woźniak (2014): 1 when its
    chromatic index ``chi_prime`` is 3 (Class 1), else 3 exactly when a
    perfect matching exists, else 4.  The caller computes ``chi_prime``;
    the corpus passes the one its palette search already found."""
    if is_regular(graph) != 3:
        raise NotCubic("classify_cubic requires a 3-regular graph")
    if not is_connected(graph):
        raise NotConnected("classify_cubic requires a connected graph")
    if chi_prime == 3:
        return 1
    found, _ = has_perfect_matching(graph)
    return 3 if found else 4


def _ids(subset: EdgeSubset | None):
    return sorted(subset.members) if subset is not None else None


def decomposition3_to_json(dec: Decomposition3) -> str:
    return json.dumps(
        {
            "H0": _ids(dec.h0),
            "H1": _ids(dec.h1),
            "H2": _ids(dec.h2),
            "H3": _ids(dec.h3),
            "A": [sorted(p) for p in dec.partition.parts],
            "shape": dec.shape,
        }
    )


def _subset_from_json(graph: MultiGraph, value) -> EdgeSubset | None:
    if value is None:
        return None
    if not _is_id_list(value):
        raise MalformedInput("part must be null or a list of edge ids")
    return EdgeSubset(graph, frozenset(value))


def _is_id_list(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(x, int) and not isinstance(x, bool) for x in value)


def decomposition_from_json(graph: MultiGraph, payload: str | dict) -> Decomposition3:
    """Parse a certificate.  One without "A" is the two-part form, H0 and
    H1 alone, read with the A-sets V − V(H1), V(H1) and ∅."""
    try:
        obj = json.loads(payload) if isinstance(payload, str) else payload
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedInput("certificate must be a JSON object")
    if "A" in obj:
        a_sets = obj.get("A")
        if not isinstance(a_sets, list) or len(a_sets) != 3 or not all(map(_is_id_list, a_sets)):
            raise MalformedInput('"A" must be a list of three vertex lists')
        shape = obj.get("shape")
        if shape not in (None, SHAPE_A3, SHAPE_A1A2):
            raise MalformedInput('"shape" must be "A3", "A1A2" or null')
        return Decomposition3(
            _subset_from_json(graph, obj.get("H0")),
            _subset_from_json(graph, obj.get("H1")),
            _subset_from_json(graph, obj.get("H2")),
            _subset_from_json(graph, obj.get("H3")),
            VertexPartition(tuple(frozenset(p) for p in a_sets)),
            shape,
        )
    h0 = _subset_from_json(graph, obj.get("H0"))
    h1 = _subset_from_json(graph, obj.get("H1"))
    held = h1.members if h1 is not None else frozenset()
    a2 = frozenset(x for eid, u, v in graph.edges if eid in held for x in (u, v))
    partition = VertexPartition((frozenset(range(graph.n)) - a2, a2, frozenset()))
    return Decomposition3(h0, h1, None, None, partition, None)
