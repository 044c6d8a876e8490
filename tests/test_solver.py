from __future__ import annotations

import json
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from palette_kit import (
    EdgeColoring,
    MultiGraph,
    ResourceLimit,
    associated_hypergraph,
    chromatic_index,
    check_lower_bound_theorem,
    decode_graph6,
    has_spanning_even_subgraph_no_isolated,
    is_regular,
    lex_min_witness,
    palette_index,
    palette_index_oracle,
    palettes_of,
    read_graph_file,
    reduce_colors,
)
from palette_kit import families as fam
from palette_kit.coloring import _search_order
from palette_kit import solver
from palette_kit.solver import _parity_ok, _search

import frozen
from bruteforce import (
    bf_min_palettes,
    bf_min_palettes_with_colors,
    bf_odd_cover,
    bf_reduce_colors,
    pairwise_intersecting,
    palette_count,
    proper_colorings,
)
from conftest import multigraphs, random_proper_coloring, random_simple_graph

ATLAS = Path(__file__).resolve().parents[1] / "bench" / "fixtures" / "atlas.g6"
RELABELLED = Path(__file__).resolve().parent / "data" / "relabelled.g6"


def test_oracle_examples():
    assert palette_index_oracle(fam.path_graph(3)) == 3
    assert palette_index_oracle(fam.path_graph(2)) == 1
    assert palette_index_oracle(fam.cycle_graph(5)) == 3


def test_oracle_against_naive_bruteforce(rng):
    # the naive oracle shares nothing with either package implementation
    for _ in range(25):
        g = random_simple_graph(rng, rng.randrange(1, 6), 0.5)
        if g.m > 7:
            continue
        assert palette_index_oracle(g) == bf_min_palettes(g)


@settings(max_examples=30, deadline=None)
@given(multigraphs(max_n=5, max_m=6))
@example(MultiGraph.from_pairs(3, [(0, 1), (0, 1), (1, 2)]))
def test_oracle_matches_naive_bruteforce_on_multigraphs(g):
    # Parallel edges included: both enumerate colorings, with no pruning.
    assert palette_index_oracle(g) == bf_min_palettes(g)


def test_palette_index_matches_oracle_on_the_atlas():
    # Every graph of the atlas with at most ORACLE_EDGE_CAP edges (713).
    small = [g for _, g in read_graph_file(str(ATLAS)) if g.m <= solver.ORACLE_EDGE_CAP]
    assert len(small) == 713
    for g in small:
        assert palette_index(g).s_check == palette_index_oracle(g)


def test_palette_index_named_graphs():
    assert palette_index(fam.complete_graph(4)).s_check == 1
    result = palette_index(fam.path_graph(4))
    assert (result.s_check, result.k_min) == (2, 2)
    assert palette_index(fam.star(3)).s_check == 4
    assert palette_index(fam.complete_graph(3)).s_check == 3
    assert palette_index(fam.edgeless(4)).s_check == 1
    assert palette_index(fam.edgeless(4)).k_min == 0


def test_palette_index_matches_oracle(rng):
    for _ in range(30):
        g = random_simple_graph(rng, rng.randrange(1, 6), 0.55)
        if g.m > 10:
            continue
        assert palette_index(g).s_check == palette_index_oracle(g)


def test_palette_index_multigraph():
    g = MultiGraph.from_pairs(3, [(0, 1), (0, 1), (1, 2)])
    result = palette_index(g)
    assert result.s_check == palette_index_oracle(g) == 3


def test_witness_properties(rng):
    for _ in range(20):
        g = random_simple_graph(rng, 6, 0.5)
        if g.m > 12:
            continue
        result = palette_index(g)
        assert len(palettes_of(result.coloring)) == result.s_check
        assert len(set(result.coloring.colors.values())) == result.k_min
        assert set(result.coloring.colors.values()) == set(range(1, result.k_min + 1))


def test_witness_is_lexicographically_minimal():
    # P4: minimal witnesses use 2 colors; the lex-min assignment is (1,2,1)
    result = lex_min_witness(palette_index(fam.path_graph(4)))
    assert [result.coloring.colors[i] for i in range(3)] == [1, 2, 1]
    # C5: s=3, k_min=3; lex-min proper assignment with 3 palettes
    result = lex_min_witness(palette_index(fam.cycle_graph(5)))
    assert [result.coloring.colors[i] for i in range(5)] == [1, 2, 1, 2, 3]


def test_s_minimality_of_witness(rng):
    # with fewer colors than k_min, s_check palettes are unreachable
    for g in (fam.path_graph(4), fam.cycle_graph(5), fam.star(3), fam.complete_graph(4)):
        result = palette_index(g)
        if result.k_min <= chromatic_index(g).chi_prime:
            continue
        fewer = bf_min_palettes_with_colors(g, result.k_min - 1)
        assert fewer is None or fewer > result.s_check
    for _ in range(10):
        g = random_simple_graph(rng, 5, 0.5)
        if not 1 <= g.m <= 8:
            continue
        result = palette_index(g)
        fewer = bf_min_palettes_with_colors(g, result.k_min - 1)
        assert fewer is None or fewer > result.s_check


def test_color_budget_relabel_property(rng):
    # any proper coloring relabels onto 1..#used without changing palettes,
    # and #used is at most (palette count) * max degree
    for _ in range(25):
        g = random_simple_graph(rng, 6, 0.5)
        if g.m == 0:
            continue
        coloring = random_proper_coloring(rng, g, spread=4)
        scrambled = EdgeColoring(
            g, {e: 7 * c + 3 for e, c in coloring.colors.items()}
        )
        used = sorted(set(scrambled.colors.values()))
        relabel = {c: i + 1 for i, c in enumerate(used)}
        canonical = EdgeColoring(
            g, {e: relabel[c] for e, c in scrambled.colors.items()}
        )
        before = palettes_of(scrambled)
        after = palettes_of(canonical)
        assert len(before) == len(after)
        assert len(used) <= len(before) * max(g.degrees)


def test_palette_index_cap():
    with pytest.raises(ResourceLimit):
        palette_index(fam.complete_graph(7), max_edges=20)
    with pytest.raises(ResourceLimit):
        palette_index_oracle(fam.complete_graph(6))


def test_result_json():
    payload = json.loads(palette_index(fam.path_graph(4)).to_json())
    assert payload == {"s_check": 2, "k_min": 2, "colors": [1, 2, 1]}


def test_reduce_colors_path_example():
    # b-a-c-d path colored with three colors collapses to two
    g = MultiGraph.from_pairs(4, [(0, 1), (0, 2), (2, 3)])
    coloring = EdgeColoring(g, {0: 1, 1: 2, 2: 3})
    assert len(palettes_of(coloring)) == 4
    reduced = reduce_colors(coloring)
    assert len(set(reduced.colors.values())) == 2
    assert len(palettes_of(reduced)) == 2


def test_reduce_colors_two_disjoint_edges():
    g = MultiGraph.from_pairs(4, [(0, 1), (2, 3)])
    reduced = reduce_colors(EdgeColoring(g, {0: 1, 1: 2}))
    assert set(reduced.colors.values()) == {1}


def test_reduce_colors_fixed_point_on_solver_output(rng):
    for g in (fam.path_graph(4), fam.cycle_graph(5), fam.star(3)):
        witness = palette_index(g).coloring
        assert reduce_colors(witness).colors == witness.colors


@settings(max_examples=100, deadline=None)
@given(multigraphs(max_n=6, max_m=12, min_m=1), st.randoms(use_true_random=False))
def test_reduce_colors_properties(g, r):
    coloring = random_proper_coloring(r, g, spread=4)
    reduced = reduce_colors(coloring)
    assert len(palettes_of(reduced)) <= len(palettes_of(coloring))
    assert pairwise_intersecting(associated_hypergraph(reduced))
    # Pins the output itself: which colors merge, and into which.
    assert reduced.colors == bf_reduce_colors(coloring).colors


def test_lower_bound_examples():
    star = fam.star(3)
    assert check_lower_bound_theorem(palette_index(star)) == (True, True)
    assert check_lower_bound_theorem(palette_index(fam.cycle_graph(5))).applicable is False
    assert check_lower_bound_theorem(palette_index(fam.path_graph(4))) == (True, True)
    # Max degree below 2, the empty graph included: the theorem does not apply.
    for graph in (MultiGraph(0, ()), fam.edgeless(3), fam.path_graph(2)):
        assert check_lower_bound_theorem(palette_index(graph)) == (False, True)


@st.composite
def two_perfect_matchings_and_more(draw):
    """A proper coloring whose colors 1 and 2 are perfect matchings, with
    further edges in colors of their own."""
    n = 2 * draw(st.integers(1, 4))
    pairs, colors = [], []
    for color in (1, 2):
        perm = draw(st.permutations(range(n)))
        pairs += zip(perm[::2], perm[1::2])
        colors += [color] * (n // 2)
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    for extra in draw(st.lists(pair, max_size=4)):
        pairs.append(extra)
        colors.append(len(colors) + 3)
    return EdgeColoring(MultiGraph.from_pairs(n, pairs), dict(enumerate(colors)))


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    two_perfect_matchings_and_more(),
    multigraphs(max_n=6, max_m=8).map(lambda g: palette_index(g).coloring),
))
def test_two_common_colors_give_a_spanning_even_subgraph(coloring):
    # check_lower_bound_theorem skips the cycle-space search when two colors
    # lie in every palette; below its cap that search must then agree.
    if solver._two_colors_in_every_palette(coloring):
        assert has_spanning_even_subgraph_no_isolated(coloring.graph)[0]


def test_lower_bound_check_skips_the_search_on_two_common_colors(monkeypatch):
    # The prism (Class 1 cubic, s = 1) has all three colors in every
    # palette; K_{1,3} and Petersen (three palettes of four colors) do not.
    def refuse(graph):
        raise AssertionError("cycle-space search ran")

    monkeypatch.setattr(solver, "has_spanning_even_subgraph_no_isolated", refuse)
    prism = decode_graph6("E{Sw")
    assert check_lower_bound_theorem(palette_index(prism)) == (False, True)
    for g in (fam.star(3), fam.petersen_graph()):
        assert not solver._two_colors_in_every_palette(palette_index(g).coloring)


def test_lemma_not2_small_regular():
    for g in (
        fam.complete_graph(3),
        fam.complete_graph(4),
        fam.cycle_graph(4),
        fam.cycle_graph(5),
        fam.cycle_graph(6),
        fam.complete_bipartite(3, 3),
        fam.petersen_graph(),
    ):
        assert palette_index(g).s_check != 2


def test_complete_graphs_match_the_literature():
    # Hornak, Kalinowski, Meszka and Wozniak, Graphs Combin. 30 (2014):
    # s(K_n) is 1 for even n, 3 for n = 3 (mod 4) and 4 for n = 1 (mod 4).
    values = [palette_index(fam.complete_graph(n)).s_check for n in range(2, 9)]
    assert values == [1, 3, 1, 4, 1, 3, 1]


def test_class2_regular_fixtures_lie_in_the_literature_range():
    # The same paper: a Class 2 r-regular graph has 3 <= s <= r + 1.  A test,
    # not a corpus check, so the corpus report is unchanged.
    count = 0
    for census in ("cubic10", "cubic12", "quartic9", "quartic10"):
        for _, g in read_graph_file(str(ATLAS.with_name(f"{census}.g6"))):
            r, result = is_regular(g), palette_index(g)
            if result.chi_prime == r + 1:
                count += 1
                assert 3 <= result.s_check <= r + 1, census
    assert count == 24


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_n=6, max_m=8, min_m=1))
def test_full_budget_search_decides_each_target(g):
    # palette_index proves each target t with one search at budget t * Delta;
    # that is sound only if feasibility is monotone in the color budget.
    delta = max(g.degrees)
    chi = chromatic_index(g).chi_prime
    for order in (tuple(sorted(g.edges)), tuple(sorted(g.edges, key=lambda e: e[1:]))):
        for t in range(1, g.n + 1):
            full = _search(g, t, t * delta, order) is None
            every = all(
                _search(g, t, k, order) is None for k in range(chi, t * delta + 1)
            )
            assert full == every


@settings(max_examples=40, deadline=None)
@given(multigraphs(max_n=6, max_m=6))
def test_search_finds_the_lex_first_coloring(g):
    # The kernel's pruning rules may only cut subtrees without a solution,
    # so in edge-id order it must return the lexicographically first proper
    # coloring with <= t palettes, and in search order fail exactly when
    # that one does not exist.  t = n is the chromatic-index search.
    first: dict[tuple[int, int], tuple[int, ...]] = {}
    for combo in proper_colorings(g, g.m + 1):
        count, top = palette_count(g, combo), max(combo, default=0)
        for t in range(count, g.n + 1):
            for k in range(top, g.m + 2):
                first.setdefault((t, k), combo)
    id_order = tuple(sorted(g.edges))
    for t in range(g.n + 1):
        for k in range(g.m + 2):
            expected = first.get((t, k))
            found = _search(g, t, k, id_order)
            assert found == (None if expected is None else dict(enumerate(expected)))
            assert (_search(g, t, k, _search_order(g)) is None) == (expected is None)


@settings(max_examples=40, deadline=None)
@given(multigraphs(max_n=6, max_m=6))
# The descent succeeds at k = 3 below the first success's largest color 4.
@example(MultiGraph.from_pairs(5, [(0, 1), (0, 2), (0, 4), (2, 3), (2, 4)]))
def test_witness_is_the_lex_first_coloring_at_k_min(g):
    # Drawn ids follow draw order, which mostly differs from endpoint order;
    # renumbered in endpoint order they follow it.  Either way the witness
    # must be the lex-first proper coloring in edge-id order with at most
    # s_check palettes and colors up to k_min.
    renumbered = MultiGraph.from_pairs(g.n, sorted((u, v) for _, u, v in g.edges))
    for graph in (g, renumbered):
        result = lex_min_witness(palette_index(graph))
        expected = next(
            combo for combo in proper_colorings(graph, result.k_min)
            if palette_count(graph, combo) <= result.s_check
        )
        ids = [eid for eid, _, _ in graph.edges]
        assert result.coloring.colors == dict(zip(ids, expected))


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_n=6, max_m=8))
def test_palette_index_returns_a_minimal_coloring(g):
    # palette_index returns some minimal coloring: s_check palettes and the
    # colors 1..k_min.  lex_min_witness keeps the numbers and returns the
    # first such coloring in edge-id order.
    result = palette_index(g)
    assert len(palettes_of(result.coloring)) == result.s_check
    assert set(result.coloring.colors.values()) == set(range(1, result.k_min + 1))
    canonical = lex_min_witness(result)
    assert (canonical.s_check, canonical.k_min, canonical.chi_prime) == (
        result.s_check, result.k_min, result.chi_prime)
    assert canonical.coloring.colors == _search(
        g, result.s_check, result.k_min, tuple(sorted(g.edges)))


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_n=6, max_m=9, min_m=1))
def test_k_min_is_the_least_feasible_budget(g):
    # The ascent that palette_index used before descending from its first
    # success: the least k >= chi' at which the winning t is feasible.
    result = palette_index(g)
    order = _search_order(g)
    k = result.chi_prime
    while _search(g, result.s_check, k, order) is None:
        k += 1
    assert result.k_min == k


@settings(max_examples=150, deadline=None)
@given(multigraphs(max_n=6, max_m=5))
@example(MultiGraph.from_pairs(2, []))  # k = 0 and no odd classes
def test_parity_filter_accepts_every_feasible_pair(g):
    # The filter may only skip searches that fail: whenever some proper
    # coloring with colors in 1..k has at most t palettes, it must accept.
    degrees = tuple(sorted(g.degrees))
    delta = max(degrees)
    for k in range(delta, g.m + 1):
        best = bf_min_palettes_with_colors(g, k)
        for t in range(1, g.n + 1):
            if best is not None and best <= t:
                assert _parity_ok(degrees, t, k)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=8),
    st.integers(1, 8),
    st.integers(0, 12),
)
def test_parity_filter_is_monotone_in_the_budget(degrees, t, k):
    # palette_index ends its descent at the filter's first rejection, which
    # is sound only if every larger budget is accepted as well.
    degrees = tuple(sorted(degrees))
    if _parity_ok(degrees, t, k):
        assert _parity_ok(degrees, t, k + 1)


def test_odd_cover_is_exact():
    # Exact, not merely sound: a wrong False would skip a search that
    # succeeds, and a wrong True would run one the filter should skip.
    for length in range(1, 6):
        for rows in combinations_with_replacement(range(4, 0, -1), length):
            for cols in range(1, 5):
                assert solver._odd_cover(list(rows), cols) == bf_odd_cover(rows, cols), (rows, cols)


def test_parity_filter_examples():
    # K7: three palettes of 6 colors out of 8 each miss two colors, so every
    # color lies in exactly two of the three odd classes; that needs nine.
    k7 = tuple(sorted(fam.complete_graph(7).degrees))
    assert not _parity_ok(k7, 3, 8)
    assert _parity_ok(k7, 3, 9)
    # C5: two palettes leave a single class of odd size.
    c5 = tuple(sorted(fam.cycle_graph(5).degrees))
    assert not _parity_ok(c5, 2, 4)
    assert _parity_ok(c5, 3, 3)
    # Fewer targets than distinct degrees, or fewer colors than Delta.
    assert not _parity_ok(tuple(sorted(fam.star(3).degrees)), 1, 3)
    assert not _parity_ok(k7, 7, 5)


def test_parity_filter_answers_feasible_past_its_cap(monkeypatch):
    # Verdicts are cached, so the capped ones are dropped on both sides.
    monkeypatch.setattr(solver, "PARITY_EFFORT_CAP", 0)
    _parity_ok.cache_clear()
    try:
        assert _parity_ok(tuple(sorted(fam.complete_graph(7).degrees)), 2, 8)
        assert not _parity_ok((1, 2, 2, 2, 2, 3), 6, 2)  # Delta > k needs no search
    finally:
        _parity_ok.cache_clear()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 6), min_size=1, max_size=9),
    st.integers(0, 10),
    st.integers(0, 16),
)
def test_parity_filter_matches_the_frozen_filter(degrees, t, k):
    # The degree classes come from a cache and the palettes are counted as
    # sum(odd) + odd.count(0); the verdict must be the frozen copy's.
    degrees = tuple(sorted(degrees))
    assert _parity_ok(degrees, t, k) == frozen._parity_ok(degrees, t, k)


@settings(max_examples=150, deadline=None)
@given(multigraphs(max_n=7, max_m=10))
def test_targets_start_at_the_number_of_distinct_degrees(g):
    # Vertices of different degrees never share a palette, so palette_index
    # neither searches nor asks the filter about a lower target.
    targets = []

    def filtered(degrees, t, k):
        targets.append(t)
        return _parity_ok(degrees, t, k)

    def searched(graph, t, k, order):
        targets.append(t)
        return _search(graph, t, k, order)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_parity_ok", filtered)
        mp.setattr(solver, "_search", searched)
        result = palette_index(g)
    assert all(t >= len(set(g.degrees)) for t in targets)
    assert result.s_check >= len(set(g.degrees))


def spy_searches(monkeypatch) -> tuple[list, list]:
    """Record (t, k, order) of every palette search and each proof order built."""
    searches, built = [], []
    real_order = solver._proof_order

    def searched(graph, t, k, order):
        searches.append((t, k, order))
        return _search(graph, t, k, order)

    def ordered(graph):
        built.append(graph)
        return real_order(graph)

    monkeypatch.setattr(solver, "_search", searched)
    monkeypatch.setattr(solver, "_proof_order", ordered)
    return searches, built


def test_parity_filter_skips_searches_on_atlas_1248(monkeypatch):
    # Fvx~w: the filter rules out t = 2 and k = 7 at t = 3, leaving the
    # full-budget search at t = 3 (4 searches before the filter).  It
    # searches in the proof order and succeeds at k = 8; lex_min_witness
    # then finds the witness with one search in edge-id order.
    searches, _ = spy_searches(monkeypatch)
    graph, expected = PINNED_PALETTE_INDEX[-1]
    assert lex_min_witness(palette_index(graph)).to_json() == expected
    assert [(t, k) for t, k, _ in searches] == [(3, 18), (3, 8)]
    assert [order for _, _, order in searches] == [
        solver._proof_order(graph), tuple(sorted(graph.edges))]


@pytest.mark.parametrize(
    "text", ["C~", "E{Sw", "IEJS@ObQ_"], ids=["K4", "prism", "relabelled-cubic10"])
def test_class1_regular_graph_searches_once_in_id_order(monkeypatch, text):
    # The chi' witness of a Class 1 regular graph has one palette, so it is
    # the t = 1 result and no palette search runs.  lex_min_witness finds the
    # witness with one search in edge-id order, on graph6 input and with the
    # edge ids reversed (edge-list input) alike.  The proof order is built
    # once per graph, and chi' is searched in it: on record 0 of
    # relabelled.g6 that gives another witness than the endpoint order.
    graph = decode_graph6(text)
    delta = max(graph.degrees)
    reversed_ids = MultiGraph(
        graph.n, tuple((graph.m - 1 - eid, u, v) for eid, u, v in graph.edges))
    proofs = [solver._proof_order(g) for g in (graph, reversed_ids)]
    searches, built = spy_searches(monkeypatch)
    for g, proof in zip((graph, reversed_ids), proofs):
        searches.clear()
        found = palette_index(g)
        assert found.coloring == chromatic_index(g, proof).witness
        result = lex_min_witness(found)
        assert (result.s_check, result.k_min, result.chi_prime) == (1, delta, delta)
        assert result.coloring.colors == _search(g, 1, delta, tuple(sorted(g.edges)))
        assert searches == [(1, delta, tuple(sorted(g.edges)))]
    assert built == [graph, reversed_ids]


@pytest.mark.parametrize(
    "graph,expected",
    [(MultiGraph(0, ()), (0, 0, 0)), (fam.edgeless(3), (1, 0, 0))],
    ids=["empty", "edgeless3"],
)
def test_edgeless_graphs_return_the_chi_prime_witness(monkeypatch, graph, expected):
    # The chi' witness of an edgeless graph has one palette, or none without
    # vertices, so it is the result: no palette search, and the proof order
    # is built once, for chi'.
    searches, built = spy_searches(monkeypatch)
    result = palette_index(graph)
    assert (result.s_check, result.k_min, result.chi_prime) == expected
    assert result.coloring.colors == {}
    assert searches == [] and built == [graph]


def test_isolated_vertices_cost_linear_time():
    # The proof order skips isolated vertices, so a graph of 200,000 of them
    # (a 27-byte edge-list file) is answered without a quadratic pass.
    result = palette_index(MultiGraph(200_000, ()))
    assert (result.s_check, result.k_min, result.chi_prime) == (1, 0, 0)


@pytest.mark.parametrize("text", ["I_`T_p`J?", "IheA@GUAo"], ids=["relabelled", "native"])
def test_petersen_refutes_two_in_the_proof_order(monkeypatch, text):
    # Petersen's chi' witness has 3 palettes, so the palette search runs.
    # t = 2 is refuted and t = 3 succeeds at k = chi' = 4, both in the proof
    # order, so no descent follows; lex_min_witness then searches once in
    # edge-id order at (3, 4).
    graph = decode_graph6(text)
    proof = solver._proof_order(graph)
    searches, built = spy_searches(monkeypatch)
    result = palette_index(graph)
    assert (result.s_check, result.k_min) == (3, 4)
    assert searches == [(2, 6, proof), (3, 9, proof)]
    assert len(built) == 1
    searches.clear()
    lex_min_witness(result)
    assert searches == [(3, 4, tuple(sorted(graph.edges)))]


def test_palette_index_searches_only_in_the_proof_order(monkeypatch):
    # Every palette search of palette_index runs in the proof order, whatever
    # the chi' witness's palette count and whatever the labelling, and
    # lex_min_witness makes exactly one search, in edge-id order at
    # (s_check, k_min).  Petersen native and relabelled, then the first 50
    # relabelled census graphs.
    texts = ["IheA@GUAo", "I_`T_p`J?"]
    texts += [text for text, _ in read_graph_file(str(RELABELLED))[:50]]
    searches, _ = spy_searches(monkeypatch)
    for text in texts:
        graph = decode_graph6(text)
        proof = solver._proof_order(graph)
        searches.clear()
        result = palette_index(graph)
        assert all(order == proof for _, _, order in searches), text
        searches.clear()
        lex_min_witness(result)
        assert searches == [(result.s_check, result.k_min, tuple(sorted(graph.edges)))], text


@settings(max_examples=40, deadline=None)
@given(multigraphs(max_n=6, max_m=8))
def test_proof_order_decides_every_target_as_id_order_does(g):
    # The proof order only changes the cost of a search, never its answer.
    proof = solver._proof_order(g)
    assert sorted(proof) == sorted(g.edges)
    id_order = tuple(sorted(g.edges))
    delta = max(g.degrees, default=0)
    for t in range(1, g.n + 1):
        for k in range(t * delta + 1):
            assert (_search(g, t, k, proof) is None) == (_search(g, t, k, id_order) is None)


PINNED_PALETTE_INDEX = [
    (fam.petersen_graph(),
     '{"s_check": 3, "k_min": 4, "colors": [1, 2, 1, 2, 3, 2, 3, 3, 3, 1, 1, 1, 2, 4, 4]}'),
    (fam.complete_graph(4), '{"s_check": 1, "k_min": 3, "colors": [1, 2, 3, 3, 2, 1]}'),
    (fam.path_graph(4), '{"s_check": 2, "k_min": 2, "colors": [1, 2, 1]}'),
    (fam.star(3), '{"s_check": 4, "k_min": 3, "colors": [1, 2, 3]}'),
    (fam.cycle_graph(5), '{"s_check": 3, "k_min": 3, "colors": [1, 2, 1, 2, 3]}'),
    (MultiGraph.from_pairs(4, [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (0, 3), (0, 2)]),
     '{"s_check": 2, "k_min": 4, "colors": [1, 2, 3, 1, 2, 3, 4]}'),
    (decode_graph6("E~@_"), '{"s_check": 5, "k_min": 4, "colors": [1, 2, 3, 3, 2, 4, 4, 1]}'),
    (decode_graph6("E~~G"),
     '{"s_check": 4, "k_min": 5, "colors": [1, 2, 3, 4, 5, 3, 4, 5, 2, 5, 1, 2, 3]}'),
    (decode_graph6("Fh?Dw"), '{"s_check": 6, "k_min": 5, "colors": [1, 2, 2, 1, 3, 4, 1, 5]}'),
    (decode_graph6("F?~wG"),
     '{"s_check": 5, "k_min": 6, "colors": [1, 2, 2, 1, 3, 4, 4, 3, 5, 6]}'),
    (decode_graph6("FjvGG"),
     '{"s_check": 6, "k_min": 5, "colors": [1, 2, 3, 2, 4, 3, 5, 1, 5, 1, 2]}'),
    (decode_graph6("FJnVW"),
     '{"s_check": 4, "k_min": 6, "colors": [1, 2, 3, 1, 4, 3, 2, 5, 4, 6, 6, 1, 5, 4]}'),
    (decode_graph6("Ffw}w"),
     '{"s_check": 3, "k_min": 6, "colors": [1, 2, 3, 4, 3, 4, 2, 5, 6, 1, 4, 6, 2, 5, 3]}'),
    # Atlas index 1248 (bench/fixtures/atlas.g6), the densest graph of the
    # benchmark's atlas slice: s = 3, chi' = 6, k_min = 8.
    (decode_graph6("Fvx~w"),
     '{"s_check": 3, "k_min": 8, "colors": [1, 2, 3, 4, 5, 2, 5, 3, 4, 6, 3, 7, 8, 8, 7, 2, 1, 6]}'),
]


@pytest.mark.parametrize(
    "graph,expected",
    PINNED_PALETTE_INDEX,
    ids=["petersen", "K4", "P4", "K1,3", "C5", "multigraph", "E~@_", "E~~G", "Fh?Dw",
         "F?~wG", "FjvGG", "FJnVW", "Ffw}w", "atlas-1248"],
)
def test_palette_index_json_is_pinned(graph, expected):
    # Strings produced by the k-ascent-per-target search that scanned every
    # k for every t (atlas-1248: by the ascent at the winning t only);
    # s_check, k_min and the lex-min witness must not move.
    assert lex_min_witness(palette_index(graph)).to_json() == expected
