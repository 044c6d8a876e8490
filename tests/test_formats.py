from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from palette_kit import (
    LoopRejected,
    MalformedInput,
    MultiGraph,
    decode_edge_list_json,
    decode_graph6,
    decode_sparse6,
    encode_edge_list_json,
    encode_graph6,
    encode_sparse6,
    read_graph_file,
)
from palette_kit import families as fam

from conftest import multigraphs, random_simple_graph


def edge_pairs(graph):
    return sorted((u, v) for _, u, v in graph.edges)


def test_graph6_known_string_round_trip():
    g = decode_graph6("D?{")
    assert g.n == 5
    assert encode_graph6(g) == "D?{"


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
    line = encode_graph6(g)
    back = decode_graph6(line)
    assert back.n == g.n
    assert edge_pairs(back) == edge_pairs(g)
    assert encode_graph6(back) == line


def test_graph6_bad_length():
    with pytest.raises(MalformedInput):
        decode_graph6("D?")
    with pytest.raises(MalformedInput):
        decode_graph6("D?{{")


def test_graph6_nonzero_padding_rejected():
    # n=5 needs 10 bits in 2 bytes, leaving 2 padding bits; set the last one.
    good = encode_graph6(fam.edgeless(5))
    tampered = good[:-1] + chr(ord(good[-1]) + 1)
    with pytest.raises(MalformedInput):
        decode_graph6(tampered)


def test_graph6_rejects_out_of_range_byte():
    with pytest.raises(MalformedInput):
        decode_graph6("D?\x1f")


def test_graph6_rejects_multigraph_encode():
    g = fam.MultiGraph.from_pairs(2, [(0, 1), (0, 1)])
    with pytest.raises(MalformedInput):
        encode_graph6(g)


@settings(max_examples=150, deadline=None)
@given(simple_graphs())
@example(FOUR_BYTE_SIZE)
def test_sparse6_round_trip_random(g):
    line = encode_sparse6(g)
    assert line.startswith(":")
    back = decode_sparse6(line)
    assert back.n == g.n
    assert edge_pairs(back) == edge_pairs(g)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_sparse6_power_of_two_padding(rng, n):
    # padding can only be misread when n is a power of two
    for _ in range(20):
        g = random_simple_graph(rng, n, 0.5)
        back = decode_sparse6(encode_sparse6(g))
        assert edge_pairs(back) == edge_pairs(g)


def test_sparse6_loop_rejected():
    # ':An' encodes n=2 with bit group (b=1, x=1): vertex jumps to 1 then a
    # loop at 1; build it manually: bits 1 1 1111 -> value 0b111111 = chr(126)
    with pytest.raises(LoopRejected):
        decode_sparse6(":A~")


def test_sparse6_requires_colon():
    with pytest.raises(MalformedInput):
        decode_sparse6("D?{")


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
    g = fam.MultiGraph.from_pairs(3, [(0, 1), (0, 1), (1, 2)])
    back = decode_edge_list_json(encode_edge_list_json(g))
    assert edge_pairs(back) == edge_pairs(g)


@settings(max_examples=150, deadline=None)
@given(multigraphs(max_n=8, max_m=16))
def test_edge_list_json_round_trip_multigraphs(g):
    # Parallel edges survive, and edge ids keep their order.
    line = encode_edge_list_json(g)
    back = decode_edge_list_json(line)
    assert (back.n, back.edges) == (g.n, g.edges)
    assert encode_edge_list_json(back) == line


def test_read_graph_file_lines(tmp_path):
    path = tmp_path / "corpus.g6"
    lines = [encode_graph6(fam.complete_graph(4)), encode_sparse6(fam.cycle_graph(5))]
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


@pytest.mark.parametrize("encode", [encode_graph6, encode_sparse6], ids=["graph6", "sparse6"])
@pytest.mark.parametrize("n", [27, 28, 29, 59, 60, 61])
@pytest.mark.parametrize("first", [True, False], ids=["first-line", "later-line"])
def test_read_graph_file_lines_of_any_order(tmp_path, encode, n, first):
    # graph6 starts n = 28 with '[' and n = 60 with '{'; neither is JSON.
    lines = [encode(fam.cycle_graph(n)), encode(fam.complete_graph(4))]
    if not first:
        lines.reverse()
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(lines) + "\n")
    got = read_graph_file(str(path))
    assert [t for t, _ in got] == lines
    assert sorted(g.n for _, g in got) == [4, n]
    cycle = next(g for _, g in got if g.n == n)
    assert edge_pairs(cycle) == edge_pairs(fam.cycle_graph(n))
