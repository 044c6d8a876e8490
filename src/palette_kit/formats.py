"""Graph ingestion: readers for graph6, sparse6 and edge-list JSON.

graph6 and sparse6 follow the nauty text formats (6-bit big-endian groups
stored in printable bytes 63..126).  graph6 describes simple graphs; sparse6
and edge-list JSON also carry parallel edges, a repeated pair being one more
edge.  The package writes neither graph6 nor sparse6: networkx's
``to_graph6_bytes`` and ``to_sparse6_bytes`` do.  Every reader gives edge i
the i-th pair, and the graph6 and sparse6 readers sort the pairs first.
"""

from __future__ import annotations

import json

from .errors import LoopRejected, MalformedInput, ResourceLimit
from .multigraph import MultiGraph

GRAPH6_HEADER = ">>graph6<<"
SPARSE6_HEADER = ">>sparse6<<"


# Every reader refuses a stated vertex count above this before it builds
# anything per vertex: nine sparse6 bytes can state n = 2^36 - 1.
MAX_VERTICES = 1 << 16


def _check_vertex_count(n: int) -> None:
    if n > MAX_VERTICES:
        raise ResourceLimit("vertex count", n, MAX_VERTICES)


def _decode_n(data: str, pos: int) -> tuple[int, int]:
    def val(i: int) -> int:
        if i >= len(data):
            raise MalformedInput("truncated size field")
        x = ord(data[i]) - 63
        if not 0 <= x <= 63:
            raise MalformedInput(f"byte {data[i]!r} outside printable range")
        return x

    if val(pos) < 63:
        return val(pos), pos + 1
    # 18 bits after one 126 byte, 36 bits after two.
    start, width = (pos + 1, 3) if val(pos + 1) < 63 else (pos + 2, 6)
    n = 0
    for i in range(start, start + width):
        n = n << 6 | val(i)
    _check_vertex_count(n)
    return n, start + width


# Each printable byte 63..126 as the six bits it stores, most significant first.
_SIX_BITS = {chr(63 + x): format(x, "06b") for x in range(64)}


def _bits_of(data: str, pos: int) -> str:
    """The bits of data[pos:] as a string of '0' and '1'."""
    try:
        return "".join([_SIX_BITS[ch] for ch in data[pos:]])
    except KeyError as exc:
        raise MalformedInput(f"byte {exc.args[0]!r} outside printable range") from None


def decode_graph6(line: str) -> MultiGraph:
    data = line.strip()
    if data.startswith(GRAPH6_HEADER):
        data = data[len(GRAPH6_HEADER):]
    if data.startswith(":"):
        raise MalformedInput("sparse6 data passed to the graph6 decoder")
    n, pos = _decode_n(data, 0)
    need = n * (n - 1) // 2
    nbytes = (need + 5) // 6
    if len(data) - pos != nbytes:
        raise MalformedInput(
            f"graph6 body has {len(data) - pos} bytes, expected {nbytes} for n={n}"
        )
    bits = _bits_of(data, pos)
    if "1" in bits[need:]:
        raise MalformedInput("nonzero padding bits in graph6 data")
    # Column j holds the pairs (i, j), i < j, at bits j(j-1)/2 + i.
    pairs = []
    start = 0
    for j in range(1, n):
        end = start + j
        k = bits.find("1", start, end)
        while k >= 0:
            pairs.append((k - start, j))
            k = bits.find("1", k + 1, end)
        start = end
    pairs.sort()
    return MultiGraph.from_pairs(n, pairs)


def decode_sparse6(line: str) -> MultiGraph:
    data = line.strip()
    if data.startswith(SPARSE6_HEADER):
        data = data[len(SPARSE6_HEADER):]
    if not data.startswith(":"):
        raise MalformedInput("sparse6 data must start with ':'")
    n, pos = _decode_n(data, 1)
    k = 1
    while (1 << k) < n:
        k += 1
    bits = _bits_of(data, pos)
    pairs: list[tuple[int, int]] = []
    v = 0
    i = 0
    while i + k < len(bits):
        if bits[i] == "1":
            v += 1
        x = int(bits[i + 1:i + 1 + k], 2)
        i += 1 + k
        if v >= n or x >= n:
            break
        if x > v:
            v = x
        elif x == v:
            raise LoopRejected(f"sparse6 data encodes a loop at vertex {v}")
        else:
            pairs.append((x, v))
    pairs.sort()
    return MultiGraph.from_pairs(n, pairs)


def decode_edge_list_json(payload: str | bytes | dict) -> MultiGraph:
    if isinstance(payload, (str, bytes)):
        try:
            obj = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise MalformedInput(f"invalid JSON: {exc}") from exc
    else:
        obj = payload
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise MalformedInput('edge-list JSON must be {"n": int, "edges": [[u,v],...]}')
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise MalformedInput("field 'n' must be a nonnegative integer")
    _check_vertex_count(n)
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise MalformedInput("field 'edges' must be a list of pairs")
    for idx, item in enumerate(edges):
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in item)
        ):
            raise MalformedInput(f"edge {idx} is not a pair of integers")
    # MultiGraph refuses endpoints out of range and loops; edge idx has id idx.
    return MultiGraph.from_pairs(n, edges)


def encode_edge_list_json(graph: MultiGraph) -> str:
    edges = [[u, v] for _, u, v in sorted(graph.edges)]
    return json.dumps({"n": graph.n, "edges": edges}, separators=(",", ":"))


def read_text(path: str) -> str:
    """The file's contents as UTF-8 text.  A file that cannot be read (it is
    missing or a directory, say) or is not UTF-8 raises MalformedInput."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc


def read_graph_file(path: str) -> list[tuple[str, MultiGraph]]:
    """Read a file of graphs; returns (canonical input string, graph) pairs.

    Files may contain graph6/sparse6 lines (one graph per line) or JSON:
    either a single edge-list object or an array of them.  A file holding
    a '"' is read as JSON, any other file as lines.  A file that cannot be
    read as UTF-8 text raises MalformedInput, as malformed contents do.
    """
    content = read_text(path)
    out: list[tuple[str, MultiGraph]] = []
    # Edge-list JSON always holds a '"' (the key "n"); graph6 and sparse6
    # bytes lie in 63..126, which excludes it.  A leading '{' or '[' is no
    # sign of JSON: graph6 starts n = 60 with '{' and n = 28 with '['.
    if '"' in content:
        try:
            obj = json.loads(content)
        except json.JSONDecodeError as exc:
            raise MalformedInput(f"invalid JSON in {path}: {exc}") from exc
        items = obj if isinstance(obj, list) else [obj]
        for item in items:
            graph = decode_edge_list_json(item)
            out.append((encode_edge_list_json(graph), graph))
        return out
    for lineno, line in enumerate(content.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        decode = decode_sparse6 if line.startswith((":", SPARSE6_HEADER)) else decode_graph6
        try:
            out.append((line, decode(line)))
        except MalformedInput as exc:
            raise MalformedInput(f"{path}:{lineno}: {exc}") from exc
    return out
