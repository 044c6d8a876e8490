"""The hypergraph associated to a coloring.

The associated hypergraph has one vertex per distinct palette and one
hyperedge per used color collecting the palettes containing it.  Loops
(size-1 hyperedges) and parallel hyperedges are permitted.

``associated_hypergraph`` is the one place that decides which palettes
hold each color; the decomposition extraction and ``reduce_colors`` read
that color -> palette indices map off its ``hyperedges``.  A coloring is
minimal in the paper's sense when its hyperedges pairwise intersect: two
colors that no palette holds together could be merged into one.
"""

from __future__ import annotations

import json

from .coloring import EdgeColoring, palettes_of
from .errors import MalformedInput
from .multigraph import FrozenValue


class Hypergraph(FrozenValue):
    """Vertices carry labels (palettes, for associated hypergraphs);
    hyperedges are (id, set of vertex indices) with positive integer ids."""

    vertices: tuple
    hyperedges: tuple[tuple[int, frozenset[int]], ...]

    def __init__(self, vertices: tuple, hyperedges):
        if len(set(vertices)) != len(vertices):
            raise MalformedInput("hypergraph vertex labels must be distinct")
        norm = []
        seen_ids: set[int] = set()
        for hid, members in hyperedges:
            members = frozenset(members)
            if not isinstance(hid, int) or isinstance(hid, bool) or hid < 1:
                raise MalformedInput("hyperedge ids must be positive integers")
            if hid in seen_ids:
                raise MalformedInput(f"duplicate hyperedge id {hid}")
            seen_ids.add(hid)
            if not members:
                raise MalformedInput(f"hyperedge {hid} is empty")
            if not all(0 <= x < len(vertices) for x in members):
                raise MalformedInput(f"hyperedge {hid} references unknown vertices")
            norm.append((hid, members))
        self.__dict__.update(vertices=vertices, hyperedges=tuple(norm))

    @property
    def order(self) -> int:
        return len(self.vertices)

    def to_json(self) -> str:
        def label(x):
            return sorted(x) if isinstance(x, frozenset) else x

        return json.dumps(
            {
                "vertices": [label(v) for v in self.vertices],
                "hyperedges": [sorted(members) for _, members in self.hyperedges],
            }
        )

    def render_text(self) -> str:
        """Plain-text adjacency view: size-2 hyperedges as edges, size-1 as loops."""
        def name(i: int) -> str:
            v = self.vertices[i]
            return "{" + ",".join(map(str, sorted(v))) + "}" if isinstance(v, frozenset) else str(v)

        lines = [f"vertices: {', '.join(name(i) for i in range(self.order))}"]
        for hid, members in self.hyperedges:
            ms = sorted(members)
            if len(ms) == 1:
                lines.append(f"h{hid}: loop at {name(ms[0])}")
            elif len(ms) == 2:
                lines.append(f"h{hid}: {name(ms[0])} -- {name(ms[1])}")
            else:
                lines.append(f"h{hid}: {{{', '.join(name(x) for x in ms)}}}")
        return "\n".join(lines)


def associated_hypergraph(coloring: EdgeColoring) -> Hypergraph:
    """The palettes of ``palettes_of``, in its order, and for each used
    color, in increasing order, the indices of the palettes that hold it."""
    palettes = palettes_of(coloring)
    holders: dict[int, set[int]] = {}
    for i, palette in enumerate(palettes):
        for color in palette:
            holders.setdefault(color, set()).add(i)
    return Hypergraph(palettes, [(color, holders[color]) for color in sorted(holders)])
