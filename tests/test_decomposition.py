from __future__ import annotations

import json

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from palette_kit import (
    Decomposition3,
    EdgeColoring,
    InvalidCertificate,
    MalformedInput,
    MultiGraph,
    NonMinimalColoring,
    NotConnected,
    NotCubic,
    NotRegular,
    TooManyPalettes,
    chromatic_index,
    classify_cubic,
    decomposition3_to_json,
    decomposition_from_json,
    extract_decomposition_3,
    induced_edge_subgraph,
    is_regular,
    lex_min_witness,
    palette_index,
    palettes_of,
    reduce_colors,
    regular_corollary_check,
    synthesize_coloring_3,
    two_palette_check,
    verify_decomposition_3,
)
from palette_kit import cli, decomposition
from palette_kit import coloring as coloring_module
from palette_kit.decomposition import certify_3
from palette_kit import families as fam

from bruteforce import (
    bf_associated_hypergraph,
    bf_valid_decomposition2_exists,
    pairwise_intersecting,
)
from conftest import multigraphs, nx_line, random_proper_coloring, random_simple_graph
import frozen


def labels(graph, subset):
    return frozenset(induced_edge_subgraph(graph, subset).vertex_labels)


def two_part(graph, h0, h1):
    """The certificate that ``verify`` reads {"H0": h0, "H1": h1} into."""
    return decomposition_from_json(graph, {"H0": h0, "H1": h1})


def verified_2(graph, dec, coloring=None):
    """The three-set verification of dec with thm-s2's clauses appended."""
    return two_palette_check(graph, dec, verify_decomposition_3(graph, dec, coloring))


def synthesized_2(graph, dec):
    coloring = synthesize_coloring_3(graph, dec, verified_2(graph, dec))
    assert len(palettes_of(coloring)) == 2
    return coloring


def synthesized_3(graph, dec):
    return synthesize_coloring_3(graph, dec, verify_decomposition_3(graph, dec))


def b_a_c_d_path():
    # vertices a=0, b=1, c=2, d=3; edges ab=0, ac=1, cd=2
    return MultiGraph.from_pairs(4, [(0, 1), (0, 2), (2, 3)])


def test_extract2_path_example():
    g = b_a_c_d_path()
    coloring = EdgeColoring(g, {0: 1, 1: 2, 2: 1})
    dec = extract_decomposition_3(coloring)
    assert dec.h0 == frozenset({0, 2})
    assert dec.h1 == frozenset({1})
    view0 = induced_edge_subgraph(g, dec.h0)
    assert is_regular(view0) == 1
    assert labels(g, dec.h0) == frozenset(range(4))


def test_extract2_with_isolated_vertex():
    g = fam.disjoint_union(fam.complete_graph(4), fam.edgeless(1))
    result = palette_index(g)
    assert result.s_check == 2
    dec = extract_decomposition_3(result.coloring)
    assert dec.h0 is None
    assert dec.h1 == g.edge_ids
    assert dec.h2 is dec.h3 is None


def test_extract2_rejects_other_palette_counts(tmp_path, capsys):
    # Only `decompose --target 2` asks for two palettes; C5 has three, K4 one.
    for graph, palettes in [(fam.cycle_graph(5), 3), (fam.complete_graph(4), 1)]:
        path = tmp_path / "g.g6"
        path.write_text(nx_line(graph) + "\n")
        assert cli.cli_main(["decompose", "--target", "2", str(path)]) == 1
        assert capsys.readouterr().err == f"error: coloring induces {palettes} palettes, need 2\n"


def test_extract2_rejects_non_nested():
    g = fam.disjoint_union(fam.path_graph(2), fam.path_graph(2))
    coloring = EdgeColoring(g, {0: 1, 1: 2})  # two palettes {1},{2}, not nested
    with pytest.raises(NonMinimalColoring):
        extract_decomposition_3(coloring)


def test_synthesize2_path():
    g = b_a_c_d_path()
    dec = extract_decomposition_3(EdgeColoring(g, {0: 1, 1: 2, 2: 1}))
    coloring = synthesized_2(g, dec)
    assert set(palettes_of(coloring)) == {frozenset({1}), frozenset({1, 2})}


def test_synthesize2_isolated_vertex_palettes():
    g = fam.disjoint_union(fam.complete_graph(4), fam.edgeless(1))
    dec = extract_decomposition_3(palette_index(g).coloring)
    coloring = synthesized_2(g, dec)
    assert set(palettes_of(coloring)) == {
        frozenset(),
        frozenset({1, 2, 3}),
    }


def test_synthesize2_invalid_certificate_names_clause():
    g = b_a_c_d_path()
    bad = two_part(g, None, sorted(g.edge_ids))
    with pytest.raises(InvalidCertificate) as err:
        synthesized_2(g, bad)
    assert err.value.clause == "h1-regular"


def test_verify2_against_bruteforce(rng):
    # a valid (H0, H1) split exists if and only if the palette index is 2
    hits = 0
    for _ in range(40):
        g = random_simple_graph(rng, rng.randrange(2, 6), 0.5)
        if not 1 <= g.m <= 9:
            continue
        expected = palette_index(g).s_check == 2
        assert bf_valid_decomposition2_exists(g) == expected
        hits += expected
    assert hits


def two_part_splits(graph):
    """Every (H0, H1) split of E(G), an empty side given both as absent and
    as an empty list."""
    ids = sorted(graph.edge_ids)
    for mask in range(1 << len(ids)):
        h0 = [e for i, e in enumerate(ids) if mask >> i & 1]
        h1 = [e for e in ids if e not in h0]
        for a in [h0] if h0 else [None, []]:
            for b in [h1] if h1 else [None, []]:
                yield a, b


def frozen_verdict(graph, h0, h1):
    def subset(ids):
        return None if ids is None else frozenset(ids)
    return frozen.verify_decomposition_2(graph, subset(h0), subset(h1))[0]


# Graphs with s = 2, so that some of their splits pass.
@example(fam.path_graph(4))
@example(MultiGraph.from_pairs(3, [(0, 1)]))
@example(fam.disjoint_union(fam.complete_graph(4), fam.edgeless(1)))
@example(MultiGraph.from_pairs(4, [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3)]))
@settings(max_examples=120, deadline=None)
@given(multigraphs(max_n=5, max_m=6))
def test_two_palette_verdict_matches_the_frozen_two_part_verifier(g):
    for h0, h1 in two_part_splits(g):
        assert verified_2(g, two_part(g, h0, h1)).ok == frozen_verdict(g, h0, h1), (h0, h1)


def test_two_palette_check_returns_a_failing_report_unchanged():
    g = b_a_c_d_path()
    dec = two_part(g, [1], [0, 2])
    report = verify_decomposition_3(g, dec)
    assert not report.ok
    assert two_palette_check(g, dec, report) is report


def k7_fig3_certificate():
    k7 = fam.complete_graph(7)
    eid = {(u, v): e for e, u, v in k7.edges}

    def within(vs):
        return frozenset(eid[(u, v)] for u in vs for v in vs if u < v)

    def across(a, b):
        return frozenset(eid[(min(u, v), max(u, v))] for u in a for v in b)

    dec = Decomposition3(
        None,
        within((0, 4, 5, 6)),
        within((0, 1, 2, 3)),
        across((1, 2, 3), (4, 5, 6)),
        (frozenset({1, 2, 3}), frozenset({4, 5, 6}), frozenset({0})),
        "A1A2",
    )
    return k7, dec


def test_k7_fig3_certificate_verifies():
    k7, dec = k7_fig3_certificate()
    report = verify_decomposition_3(k7, dec)
    assert report.ok, report.failures()


def test_k7_fig3_synthesis():
    k7, dec = k7_fig3_certificate()
    coloring = synthesized_3(k7, dec)
    assert len(set(coloring.colors.values())) == 9
    palettes = palettes_of(coloring)
    assert sorted(len(p) for p in palettes) == [6, 6, 6]
    # three cubic Class 1 parts certify the palette index without a search:
    # K7 is regular Class 2, so 1 and 2 are excluded
    assert len(palettes) == 3


def test_k7_tampered_certificate_fails_regularity():
    k7, dec = k7_fig3_certificate()
    moved = next(iter(dec.h2))
    bad = Decomposition3(
        None,
        dec.h1,
        dec.h2 - {moved},
        dec.h3 | {moved},
        dec.partition,
        dec.shape,
    )
    report = verify_decomposition_3(k7, bad)
    assert not report.ok
    failed = {name for name, _ in report.failures()}
    assert failed & {"h2-regular", "h3-regular", "h2-vertices", "h3-vertices"}


def test_verify3_odd_cycle_part_fails_class1():
    c5 = fam.cycle_graph(5)
    dec = Decomposition3(
        None,
        c5.edge_ids,
        None,
        None,
        (frozenset(), frozenset(range(5)), frozenset()),
        None,
    )
    report = verify_decomposition_3(c5, dec)
    assert not report.ok
    assert ("h1-class1", "H1 is Class 1") in report.failures()


def test_verify_rejects_overlapping_a_sets():
    # K2 read with A1 = A2 = {0, 1} would pass every clause.
    k2 = MultiGraph.from_pairs(2, [(0, 1)])
    dec = Decomposition3(
        frozenset({0}), None, None, None, (frozenset({0, 1}), frozenset(), frozenset()), None)
    assert verify_decomposition_3(k2, dec).ok
    overlapping = dec._replace(partition=(frozenset({0, 1}),) * 2 + (frozenset(),))
    with pytest.raises(MalformedInput, match="^partition parts must be pairwise disjoint$"):
        verify_decomposition_3(k2, overlapping)


def test_extract3_c5():
    c5 = fam.cycle_graph(5)
    coloring = EdgeColoring(c5, {0: 1, 1: 2, 2: 1, 3: 2, 4: 3})
    dec = extract_decomposition_3(coloring)
    assert dec.h0 is None
    parts = {s for _, s in dec.parts()}
    classes = {
        frozenset(e for e, c in coloring.colors.items() if c == color)
        for color in (1, 2, 3)
    }
    assert parts == classes
    assert verify_decomposition_3(c5, dec).ok


def test_extract3_degenerate_one_palette():
    k4 = fam.complete_graph(4)
    dec = extract_decomposition_3(palette_index(k4).coloring)
    assert dec.h0 == k4.edge_ids
    assert dec.h1 is dec.h2 is dec.h3 is None
    assert dec.partition[0] == frozenset(range(4))
    assert verify_decomposition_3(k4, dec).ok


def test_extract3_degenerate_two_palettes():
    g = b_a_c_d_path()
    dec = extract_decomposition_3(EdgeColoring(g, {0: 1, 1: 2, 2: 1}))
    assert dec.h2 is None and dec.h3 is None
    assert dec.shape is None
    a1, a2, a3 = dec.partition
    assert a1 == frozenset({1, 3})  # small-palette class
    assert a2 == frozenset({0, 2})
    assert a3 == frozenset()
    assert verify_decomposition_3(g, dec).ok


def test_extract3_edgeless():
    g = fam.edgeless(3)
    dec = extract_decomposition_3(palette_index(g).coloring)
    assert dec.parts() == ()
    assert dec.partition[0] == frozenset(range(3))
    assert verify_decomposition_3(g, dec).ok


def test_extract3_private_region_shape_a3():
    # K4 plus an isolated vertex plus a pendant path gives 3 nested-ish palettes?
    # use a star with palettes of three sizes instead: K_{1,3} has 4 palettes,
    # so build the paw graph: triangle with a pendant edge
    g = MultiGraph.from_pairs(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    result = palette_index(g)
    if result.s_check == 3:
        dec = extract_decomposition_3(result.coloring)
        assert verify_decomposition_3(g, dec).ok


def test_extract3_rejects_too_many():
    with pytest.raises(TooManyPalettes):
        extract_decomposition_3(palette_index(fam.star(3)).coloring)


def test_extract3_rejects_mergeable_private_regions():
    g = fam.disjoint_union(fam.path_graph(2), fam.path_graph(2), fam.path_graph(2))
    coloring = EdgeColoring(g, {0: 1, 1: 2, 2: 3})
    with pytest.raises(NonMinimalColoring):
        extract_decomposition_3(coloring)


@settings(max_examples=150, deadline=None)
@given(
    multigraphs(max_n=6, max_m=8),
    st.randoms(use_true_random=False),
    st.integers(0, 2),
)
def test_extraction_refuses_exactly_the_non_minimal_colorings(g, r, spread):
    # Minimal means a pairwise intersecting associated hypergraph, built here
    # without the package's own color -> palettes map.
    coloring = random_proper_coloring(r, g, spread=spread)
    t = len(palettes_of(coloring))
    assume(t <= 3)
    minimal = pairwise_intersecting(bf_associated_hypergraph(coloring))
    try:
        extract_decomposition_3(coloring)
    except NonMinimalColoring:
        assert not minimal
    else:
        assert minimal
    reduced = reduce_colors(coloring)
    assert verify_decomposition_3(g, extract_decomposition_3(reduced)).ok


def test_synthesize3_rejects_overlapping_parts():
    k7, dec = k7_fig3_certificate()
    shared = next(iter(dec.h1))
    bad = Decomposition3(
        None,
        dec.h1,
        dec.h2 | {shared},
        dec.h3,
        dec.partition,
        dec.shape,
    )
    with pytest.raises(InvalidCertificate):
        synthesized_3(k7, bad)


def test_round_trip_on_small_graphs(rng):
    for _ in range(30):
        g = random_simple_graph(rng, rng.randrange(1, 7), 0.5)
        if g.m > 12:
            continue
        result = palette_index(g)
        if result.s_check > 3:
            with pytest.raises(TooManyPalettes):
                extract_decomposition_3(result.coloring)
            continue
        dec = extract_decomposition_3(result.coloring)
        assert verify_decomposition_3(g, dec).ok
        coloring = synthesized_3(g, dec)
        assert len(palettes_of(coloring)) <= 3


COROLLARY_CLAUSES = ["shape-a1a2", "three-parts", "degree-parity"] + ["equal-degrees"] * 3


def corollary(graph, **kwargs):
    """The certificate of the graph's minimal coloring and its report with
    the corollary's clauses."""
    dec, report, _ = certify_3(graph, palette_index(graph, **kwargs).coloring)
    return dec, regular_corollary_check(graph, dec, report)


def test_regular_corollary_petersen():
    pet = fam.petersen_graph()
    dec, report = corollary(pet)
    assert report.ok
    assert [name for name, _, _ in report.clauses[-6:]] == COROLLARY_CLAUSES
    # r = 1: a 1-regular spanning H0 and three 1-regular parts.
    assert is_regular(report.witnesses["H0"].graph) == 1
    assert ("degree-parity", True, "k - r = 2 must be even and positive") in report.clauses
    assert dec.h0 is not None
    for part in (dec.h1, dec.h2, dec.h3):
        assert is_regular(induced_edge_subgraph(pet, part)) == 1
    assert dec.shape == "A1A2"
    coloring = synthesize_coloring_3(pet, dec, report)
    assert len(palettes_of(coloring)) == 3


def test_regular_corollary_k4_false(monkeypatch):
    # K4 has s = 1, so cor-regular3 passes without a corollary report.
    def refuse(*args):
        raise AssertionError("regular_corollary_check called at s != 3")

    monkeypatch.setattr(cli, "regular_corollary_check", refuse)
    monkeypatch.setattr(decomposition, "regular_corollary_check", refuse)
    k4 = fam.complete_graph(4)
    record = cli._corpus_record(
        (0, "k4", k4.n, k4.edges, ("cor-regular3",), cli.PALETTE_INDEX_EDGE_CAP))
    assert record["checks"] == {"cor-regular3": "pass"}


def test_regular_corollary_requires_regular():
    p4 = fam.path_graph(4)
    dec, report, _ = certify_3(p4, palette_index(p4).coloring)
    with pytest.raises(NotRegular):
        regular_corollary_check(p4, dec, report)


def test_regular_corollary_returns_a_failing_report_unchanged():
    pet = fam.petersen_graph()
    dec = extract_decomposition_3(palette_index(pet).coloring)
    dec = dec._replace(h0=None)
    report = verify_decomposition_3(pet, dec)
    assert not report.ok
    assert regular_corollary_check(pet, dec, report) is report


def test_regular_corollary_k7():
    dec, report = corollary(fam.complete_graph(7), max_edges=21)
    assert report.ok
    assert [name for name, _, _ in report.clauses[-6:]] == COROLLARY_CLAUSES
    # r = 0: no H0 and three 3-regular parts.
    assert dec.h0 is None and "H0" not in report.witnesses
    assert ("degree-parity", True, "k - r = 6 must be even and positive") in report.clauses
    for part in (dec.h1, dec.h2, dec.h3):
        assert is_regular(induced_edge_subgraph(fam.complete_graph(7), part)) == 3


def test_classify_cubic():
    def classify(g):
        return classify_cubic(g, chromatic_index(g).chi_prime)

    assert classify(fam.complete_graph(4)) == 1
    assert classify(fam.petersen_graph()) == 3
    assert classify(fam.no_perfect_matching_cubic()) == 4
    with pytest.raises(NotCubic):
        classify(fam.cycle_graph(5))
    with pytest.raises(NotConnected):
        classify(fam.disjoint_union(fam.complete_graph(4), fam.complete_graph(4)))


def test_certificate_json_round_trip():
    k7, dec = k7_fig3_certificate()
    payload = decomposition3_to_json(dec)
    back = decomposition_from_json(k7, payload)
    assert isinstance(back, Decomposition3)
    assert back.h1 == dec.h1
    assert back.partition == dec.partition
    assert back.shape == "A1A2"
    obj = json.loads(payload)
    assert obj["H0"] is None
    assert obj["shape"] == "A1A2"


def test_certificate_json_d2():
    g = b_a_c_d_path()
    dec = decomposition_from_json(g, '{"H0": [0, 2], "H1": [1]}')
    assert isinstance(dec, Decomposition3)
    assert dec.partition == (frozenset({1, 3}), frozenset({0, 2}), frozenset())
    assert (dec.h2, dec.h3, dec.shape) == (None, None, None)
    assert verified_2(g, dec).ok


def petersen_corollary_certificate():
    # The certificate of Petersen's lex-min witness, which `decompose` prints.
    pet = fam.petersen_graph()
    return pet, extract_decomposition_3(lex_min_witness(palette_index(pet)).coloring)


def b_a_c_d_path_certificate():
    g = b_a_c_d_path()
    return g, extract_decomposition_3(EdgeColoring(g, {0: 1, 1: 2, 2: 1}))


# Pinned from the synthesis that ran chromatic_index on every part itself;
# the report's witnesses are the same kernel colorings of the same part views.
@pytest.mark.parametrize(
    "certificate,synthesize,colors",
    [
        (k7_fig3_certificate, synthesized_3,
         [4, 5, 6, 1, 2, 3, 6, 5, 7, 8, 9, 4, 8, 9, 7, 9, 7, 8, 3, 2, 1]),
        (petersen_corollary_certificate, synthesized_3,
         [1, 4, 1, 4, 3, 4, 3, 3, 3, 1, 1, 1, 4, 2, 2]),
        (b_a_c_d_path_certificate, synthesized_2, [1, 2, 1]),
    ],
    ids=["k7-fig3", "petersen-cor-regular3", "b-a-c-d-path"],
)
def test_synthesized_colorings_are_pinned(certificate, synthesize, colors):
    graph, dec = certificate()
    coloring = synthesize(graph, dec)
    assert [coloring.colors[i] for i in sorted(coloring.colors)] == colors


@st.composite
def small_simple_graphs(draw):
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))
    return MultiGraph.from_pairs(n, chosen)


@settings(max_examples=60, deadline=None)
@given(small_simple_graphs())
def test_synthesis_uses_the_verification_witnesses(g):
    result = palette_index(g)
    assume(result.s_check <= 3)
    dec = extract_decomposition_3(result.coloring)
    report = verify_decomposition_3(g, dec)
    assert report.ok
    assert report.witnesses.keys() == {name for name, _ in dec.parts()}
    rebuilt: dict[int, int] = {}
    offset = 0
    for name, subset in dec.parts():
        view = induced_edge_subgraph(g, subset)
        r = is_regular(view)
        witness = report.witnesses[name]
        # A proper r-edge-coloring of exactly this part's edges.
        assert witness.colors.keys() == subset
        assert set(witness.colors.values()) == set(range(1, r + 1))
        EdgeColoring(view, witness.colors)
        rebuilt.update({e: c + offset for e, c in chromatic_index(view).witness.colors.items()})
        offset += r
    assert synthesize_coloring_3(g, dec, report).colors == rebuilt


def assert_part_witnesses(graph, dec, report):
    """Every witness is a proper r-coloring, in 1..r, of its r-regular part."""
    parts = dict(dec.parts())
    for name, witness in report.witnesses.items():
        view = induced_edge_subgraph(graph, parts[name])
        r = is_regular(view)
        assert witness.graph == view
        assert witness.colors.keys() == parts[name]
        assert set(witness.colors.values()) == set(range(1, r + 1))


@settings(max_examples=150, deadline=None)
@given(
    multigraphs(max_n=6, max_m=8),
    st.randoms(use_true_random=False),
    st.integers(0, 2),
)
def test_verification_from_the_coloring_matches_the_search(g, r, spread):
    # A certificate's own coloring proves its parts Class 1 by restriction;
    # the verdict, clause by clause, is the one the χ′ search gives.
    coloring = reduce_colors(random_proper_coloring(r, g, spread=spread))
    t = len(palettes_of(coloring))
    assume(t <= 3)
    dec = extract_decomposition_3(coloring)
    for verify in [verify_decomposition_3] + ([verified_2] if t == 2 else []):
        searched = verify(g, dec)
        restricted = verify(g, dec, coloring)
        assert (restricted.ok, restricted.clauses) == (searched.ok, searched.clauses)
        assert restricted.witnesses.keys() == searched.witnesses.keys()
        assert_part_witnesses(g, dec, restricted)


@pytest.mark.parametrize("n", [4, 5], ids=["c4-class1", "c5-class2"])
def test_verification_searches_when_the_restriction_uses_extra_colors(monkeypatch, n):
    # A proper 3-coloring of a 2-regular cycle is no Class 1 witness, so
    # verification falls back to χ′: C4 still passes and C5 still fails.
    cycle = fam.cycle_graph(n)
    three = EdgeColoring(
        cycle, {eid: 3 if eid == n - 1 else 1 + eid % 2 for eid in cycle.edge_ids})
    dec = Decomposition3(
        cycle.edge_ids, None, None, None,
        (frozenset(range(n)), frozenset(), frozenset()), None,
    )
    searched = verify_decomposition_3(cycle, dec)
    calls = []
    real = coloring_module.chromatic_index
    monkeypatch.setattr(coloring_module, "chromatic_index", lambda g: calls.append(g) or real(g))
    report = verify_decomposition_3(cycle, dec, three)
    assert len(calls) == 1
    assert report == searched
    assert report.ok == (n % 2 == 0)
    assert_part_witnesses(cycle, dec, report)


def test_verification_refuses_a_coloring_of_another_graph():
    k4 = fam.complete_graph(4)
    dec = extract_decomposition_3(palette_index(k4).coloring)
    c4 = fam.cycle_graph(4)
    with pytest.raises(MalformedInput):
        verify_decomposition_3(k4, dec, EdgeColoring(c4, {e: 1 + e % 2 for e in c4.edge_ids}))
