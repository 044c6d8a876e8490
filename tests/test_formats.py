from __future__ import annotations

import glob
import json
import os
import re

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from palette_kit import (
    LoopRejected,
    MalformedInput,
    MultiGraph,
    ResourceLimit,
    decode_edge_list_json,
    decode_graph6,
    decode_sparse6,
    encode_edge_list_json,
    read_graph_file,
)
from palette_kit import families as fam
from palette_kit.formats import MAX_VERTICES

from conftest import multigraphs, nx_line, random_simple_graph

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def edge_pairs(graph):
    return sorted((u, v) for _, u, v in graph.edges)


def test_graph6_known_string_round_trip():
    # D?{ is the star K_{1,4} centred at vertex 4.
    g = decode_graph6("D?{")
    assert (g.n, edge_pairs(g)) == (5, [(0, 4), (1, 4), (2, 4), (3, 4)])
    assert nx_line(g) == "D?{"


def test_graph6_header_accepted():
    assert edge_pairs(decode_graph6(">>graph6<<D?{")) == edge_pairs(decode_graph6("D?{"))


@st.composite
def simple_graphs(draw, max_n: int = 70) -> MultiGraph:
    """Simple graphs on 0..max_n vertices; from n = 63 graph6 and sparse6
    spend four bytes on the vertex count."""
    n = draw(st.integers(0, max_n))
    if n < 2:
        return MultiGraph(n, ())
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] < p[1]
    )
    return MultiGraph.from_pairs(n, sorted(draw(st.sets(pair, max_size=2 * n))))


FOUR_BYTE_SIZE = MultiGraph.from_pairs(63, [(0, 62), (5, 40)])


@settings(max_examples=150, deadline=None)
@given(simple_graphs())
@example(FOUR_BYTE_SIZE)
def test_graph6_round_trip_random(g):
    # networkx writes the line; the decoder gives edge i the i-th sorted pair.
    back = decode_graph6(nx_line(g))
    assert (back.n, back.edges) == (g.n, g.edges)


def test_graph6_bad_length():
    with pytest.raises(MalformedInput):
        decode_graph6("D?")
    with pytest.raises(MalformedInput):
        decode_graph6("D?{{")


def test_graph6_nonzero_padding_rejected():
    # n=5 needs 10 bits in 2 bytes, leaving 2 padding bits; set the last one.
    assert decode_graph6("D??").m == 0
    with pytest.raises(MalformedInput):
        decode_graph6("D?@")


def test_graph6_rejects_out_of_range_byte():
    with pytest.raises(MalformedInput):
        decode_graph6("D?\x1f")


@settings(max_examples=150, deadline=None)
@given(simple_graphs())
@example(FOUR_BYTE_SIZE)
def test_sparse6_round_trip_random(g):
    back = decode_sparse6(nx_line(g, nx.to_sparse6_bytes))
    assert (back.n, back.edges) == (g.n, g.edges)


def test_sparse6_parallel_edges():
    # networkx, like nauty, writes a repeated pair as a parallel edge.
    g = decode_sparse6(":B_n")
    assert (g.n, edge_pairs(g)) == (3, [(0, 1), (0, 1), (1, 2)])
    shannon = decode_sparse6(":B__H")
    assert (shannon.n, edge_pairs(shannon)) == (3, sorted(2 * [(0, 1), (0, 2), (1, 2)]))


@settings(max_examples=150, deadline=None)
@given(multigraphs(max_n=8, max_m=16))
def test_sparse6_round_trip_multigraphs(g):
    # The same edge multiset comes back, edge ids in sorted pair order.
    back = decode_sparse6(nx_line(g, nx.to_sparse6_bytes))
    assert back.n == g.n
    assert [(u, v) for _, u, v in back.edges] == edge_pairs(g)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_sparse6_power_of_two_padding(rng, n):
    # padding can only be misread when n is a power of two
    for _ in range(20):
        g = random_simple_graph(rng, n, 0.5)
        back = decode_sparse6(nx_line(g, nx.to_sparse6_bytes))
        assert edge_pairs(back) == edge_pairs(g)


def test_sparse6_loop_rejected():
    # ':An' encodes n=2 with bit group (b=1, x=1): vertex jumps to 1 then a
    # loop at 1; build it manually: bits 1 1 1111 -> value 0b111111 = chr(126)
    with pytest.raises(LoopRejected):
        decode_sparse6(":A~")


@pytest.mark.parametrize("body", [":B_!", ":B_\x7f", ":B!\x7f"], ids=["below", "above", "two"])
def test_sparse6_rejects_out_of_range_byte(body):
    # The message names the first byte outside 63..126.
    bad = next(ch for ch in body[2:] if not 63 <= ord(ch) <= 126)
    with pytest.raises(MalformedInput, match=f"^byte {re.escape(repr(bad))} outside printable range$"):
        decode_sparse6(body)


def test_sparse6_requires_colon():
    with pytest.raises(MalformedInput):
        decode_sparse6("D?{")


def size_field(n):
    """The graph6/sparse6 size bytes of n in the 18-bit form, 63 <= n < 2^18."""
    return "~" + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))


@pytest.mark.parametrize(
    "decode,text,n",
    [
        # Nine bytes state n = 2^36 - 1.  Without the cap a command would
        # build per-vertex tables that long, so only the decoder sees it.
        (decode_sparse6, ":~~~~~~~~", (1 << 36) - 1),
        (decode_sparse6, ":" + size_field(MAX_VERTICES + 1), MAX_VERTICES + 1),
        (decode_graph6, size_field(MAX_VERTICES + 1), MAX_VERTICES + 1),
        (decode_edge_list_json, json.dumps({"n": MAX_VERTICES + 1, "edges": []}), MAX_VERTICES + 1),
    ],
    ids=["sparse6-36-bit", "sparse6", "graph6", "json"],
)
def test_readers_refuse_a_vertex_count_above_the_cap(decode, text, n):
    with pytest.raises(ResourceLimit) as err:
        decode(text)
    assert (err.value.what, err.value.size, err.value.cap) == ("vertex count", n, MAX_VERTICES)


def test_readers_accept_a_vertex_count_at_the_cap():
    graph = decode_sparse6(":" + size_field(MAX_VERTICES))
    assert (graph.n, graph.m) == (MAX_VERTICES, 0)
    graph = decode_edge_list_json({"n": MAX_VERTICES, "edges": [[0, MAX_VERTICES - 1]]})
    assert (graph.n, graph.m) == (MAX_VERTICES, 1)


def test_edge_list_json_multigraph():
    g = decode_edge_list_json('{"n": 2, "edges": [[0, 1], [0, 1]]}')
    assert g.n == 2
    assert g.m == 2
    assert g.max_multiplicity == 2


def test_edge_list_json_loop_rejected():
    with pytest.raises(LoopRejected):
        decode_edge_list_json('{"n": 2, "edges": [[0, 0]]}')


def test_edge_list_json_bad_shapes():
    with pytest.raises(MalformedInput):
        decode_edge_list_json('{"edges": []}')
    with pytest.raises(MalformedInput):
        decode_edge_list_json('{"n": 2, "edges": [[0, 1, 2]]}')
    with pytest.raises(MalformedInput):
        decode_edge_list_json('{"n": 2, "edges": [[0, 7]]}')
    with pytest.raises(MalformedInput):
        decode_edge_list_json("not json")


def test_edge_list_json_round_trip():
    g = decode_edge_list_json('{"n": 3, "edges": [[1, 0], [0, 1], [2, 1]]}')
    assert g.edges == ((0, 0, 1), (1, 0, 1), (2, 1, 2))
    assert encode_edge_list_json(g) == '{"n":3,"edges":[[0,1],[0,1],[1,2]]}'


@settings(max_examples=150, deadline=None)
@given(multigraphs(max_n=8, max_m=16))
def test_edge_list_json_round_trip_multigraphs(g):
    # Parallel edges survive, and edge ids keep their order.
    line = json.dumps({"n": g.n, "edges": [[u, v] for _, u, v in g.edges]}, separators=(",", ":"))
    back = decode_edge_list_json(line)
    assert (back.n, back.edges) == (g.n, g.edges)
    assert encode_edge_list_json(back) == line


def test_read_graph_file_lines(tmp_path):
    path = tmp_path / "corpus.g6"
    lines = [nx_line(fam.complete_graph(4)), nx_line(fam.cycle_graph(5), nx.to_sparse6_bytes)]
    path.write_text("\n".join(lines) + "\n")
    got = read_graph_file(str(path))
    assert [t for t, _ in got] == lines
    assert [g.n for _, g in got] == [4, 5]


def test_read_graph_file_refuses_an_unreadable_file(tmp_path):
    # A missing file, a directory and bytes that are not UTF-8 are malformed
    # input that names the file, not an OSError or a UnicodeDecodeError.
    (tmp_path / "dir").mkdir()
    (tmp_path / "bytes.g6").write_bytes(b"\xff\xfe")
    for name in ("missing.g6", "dir", "bytes.g6"):
        path = str(tmp_path / name)
        with pytest.raises(MalformedInput, match=f"^cannot read {path}: "):
            read_graph_file(path)


def test_read_graph_file_json_array(tmp_path):
    path = tmp_path / "graphs.json"
    payload = [
        {"n": 2, "edges": [[0, 1]]},
        {"n": 3, "edges": [[0, 1], [1, 2]]},
    ]
    path.write_text(json.dumps(payload))
    got = read_graph_file(str(path))
    assert [g.n for _, g in got] == [2, 3]


def test_read_graph_file_reports_line(tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("D?{\nD?\n")
    with pytest.raises(MalformedInput) as err:
        read_graph_file(str(path))
    assert "bad.g6:2" in str(err.value)


@pytest.mark.parametrize(
    "write", [nx.to_graph6_bytes, nx.to_sparse6_bytes], ids=["graph6", "sparse6"])
@pytest.mark.parametrize("n", [27, 28, 29, 59, 60, 61])
@pytest.mark.parametrize("first", [True, False], ids=["first-line", "later-line"])
def test_read_graph_file_lines_of_any_order(tmp_path, write, n, first):
    # graph6 starts n = 28 with '[' and n = 60 with '{'; neither is JSON.
    lines = [nx_line(fam.cycle_graph(n), write), nx_line(fam.complete_graph(4), write)]
    if not first:
        lines.reverse()
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(lines) + "\n")
    got = read_graph_file(str(path))
    assert [t for t, _ in got] == lines
    assert sorted(g.n for _, g in got) == [4, n]
    cycle = next(g for _, g in got if g.n == n)
    assert edge_pairs(cycle) == edge_pairs(fam.cycle_graph(n))


def test_committed_fixtures_decode_as_networkx_writes_them():
    # Every graph6 line the benchmark and the digests read is the line
    # networkx writes for the graph it decodes to.
    paths = sorted(glob.glob(os.path.join(ROOT, "bench", "fixtures", "*.g6")))
    paths.append(os.path.join(ROOT, "tests", "data", "relabelled.g6"))
    count = 0
    for path in paths:
        for text, graph in read_graph_file(path):
            assert nx_line(graph) == text, (path, text)
            count += 1
    assert count == 2865
