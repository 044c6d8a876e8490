"""Pinned certificate bytes.

Each digest hashes, line by line, two lines per coloring of a fixed set:
the ``decomposition3_to_json`` output of extraction, and the two-part form
of that certificate (its H0 and H1 alone, as ``decompose --target 2``
prints it), or the exception class name where either is refused.  The
two-part form is refused with ``NotTwoPalettes`` unless the coloring has two
palettes.  A change to how certificates are read off a coloring shows up
here as a new digest.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from palette_kit import (
    NotTwoPalettes,
    PaletteKitError,
    decomposition3_to_json,
    extract_decomposition_3,
    lex_min_witness,
    palette_index,
    palettes_of,
    read_graph_file,
    reduce_colors,
)

from conftest import random_multigraph, random_proper_coloring

ATLAS = Path(__file__).resolve().parents[1] / "bench" / "fixtures" / "atlas.g6"

def three_set(coloring) -> str:
    return decomposition3_to_json(extract_decomposition_3(coloring))


def two_part(coloring) -> str:
    palettes = len(palettes_of(coloring))
    if palettes != 2:
        raise NotTwoPalettes(f"coloring induces {palettes} palettes, need 2")
    certificate = json.loads(three_set(coloring))
    return json.dumps({"H0": certificate["H0"], "H1": certificate["H1"]})


def certificate_lines(coloring):
    for line in (three_set, two_part):
        try:
            yield line(coloring)
        except PaletteKitError as exc:
            yield type(exc).__name__


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def random_colorings(seed: int, count: int):
    """Proper colorings of small random multigraphs with few spare colors,
    so that at most three palettes are common."""
    r = random.Random(seed)
    for _ in range(count):
        graph = random_multigraph(r, r.randint(2, 6), r.randint(1, 8))
        yield random_proper_coloring(r, graph, spread=r.randint(0, 1))


def test_atlas_witness_certificates_are_pinned():
    lines = (
        line
        for _, graph in read_graph_file(str(ATLAS))
        for line in certificate_lines(lex_min_witness(palette_index(graph)).coloring)
    )
    assert digest(lines) == (
        "edcc961a340949977b9e0f960045b9534f5d3612b21034dbe06a6e3219d1bd5f"
    )


def test_random_coloring_certificates_are_pinned():
    # Also pins reduce_colors: its colors and the certificates read off them.
    def lines():
        for coloring in random_colorings(16, 2000):
            yield from certificate_lines(coloring)
            reduced = reduce_colors(coloring)
            yield str([reduced.colors[eid] for eid in sorted(reduced.colors)])
            yield from certificate_lines(reduced)

    assert digest(lines()) == (
        "895dc8bcbc628a789a482013cabcf2fc44f2819909c72bbef38910b56a79613b"
    )
