"""Regenerate the committed benchmark fixtures under bench/fixtures/.

    PYTHONPATH=src python3 bench/make_fixtures.py [--skip-fig4-scan]

Writes the census graph6 files, the Fig. 4 base graph, the reference table of
every workload graph, and the Fig. 4 reference.  The reference table is the
program's own answer at the commit that generated it, cross-checked against
``palette_index_oracle`` on every graph with at most ORACLE_EDGE_CAP edges.
The Fig. 4 reference decides fragility (no two edge-disjoint perfect
matchings) with the matching enumeration below, which shares no code with
``palette_kit``; the exact solver is used only for the palette index of the
fragile candidates.  The full scan takes about ten minutes on a 2-vCPU Xeon
virtual machine.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import networkx as nx

import workloads as wl

sys.path.insert(0, wl.ROOT)
from tests.censuses import regular_connected  # noqa: E402

from palette_kit import MultiGraph, cli, families  # noqa: E402
from palette_kit.solver import ORACLE_EDGE_CAP, palette_index, palette_index_oracle  # noqa: E402

CENSUS_SOURCES = {
    "cubic10": (10, 3),
    "cubic12": (12, 3),
    "quartic9": (9, 4),
    "quartic10": (10, 4),
}


def write_census(name: str, graphs) -> None:
    lines = []
    for g in graphs:
        index = {v: i for i, v in enumerate(sorted(g.nodes()))}
        pairs = [(index[u], index[v]) for u, v in g.edges()]
        lines.append(wl.encode_graph6(len(index), pairs))
    with open(os.path.join(wl.FIXTURES, f"{name}.g6"), "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    wl.load_census(name)  # asserts the census sizes


def reference_row(key: str, n: int, pairs) -> dict:
    graph = MultiGraph.from_pairs(n, pairs)
    task = (0, key, n, tuple(graph.edges), wl.CHECK_NAMES, wl.DEFAULT_MAX_EDGES)
    rec = cli._corpus_record(task)
    if rec["error"] or any(v in ("fail", "capped") for v in rec["checks"].values()):
        raise SystemExit(f"{key}: workload graph must pass every check, got {rec}")
    if graph.m <= ORACLE_EDGE_CAP and palette_index_oracle(graph) != rec["s_check"]:
        raise SystemExit(f"{key}: solver and oracle disagree")
    fields = ("n", "m", "max_degree", "min_degree", "chi_prime", "class", "s_check", "k_min", "checks")
    return {f: rec[f] for f in fields}


def perfect_matchings(adj: list[int]):
    """Yield every perfect matching as a mate array (adjacency bitmasks)."""
    n = len(adj)
    full = (1 << n) - 1
    mate = [0] * n

    def rec(covered: int):
        if covered == full:
            yield mate
            return
        v = (~covered & -~covered).bit_length() - 1
        options = adj[v] & ~covered
        while options:
            w = options & -options
            options ^= w
            mate[v], mate[w.bit_length() - 1] = w.bit_length() - 1, v
            yield from rec(covered | 1 << v | w)

    yield from rec(0)


def has_perfect_matching(adj: list[int]) -> bool:
    full = (1 << len(adj)) - 1
    dead: set[int] = set()

    def rec(covered: int) -> bool:
        if covered == full:
            return True
        if covered in dead:
            return False
        v = (~covered & -~covered).bit_length() - 1
        options = adj[v] & ~covered
        while options:
            w = options & -options
            options ^= w
            if rec(covered | 1 << v | w):
                return True
        dead.add(covered)
        return False

    return rec(0)


def fragility(n: int, pairs) -> tuple[bool, int]:
    """(no two edge-disjoint perfect matchings, number of perfect matchings)."""
    adj = [0] * n
    for u, v in pairs:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    count = 0
    fragile = True
    for mate in perfect_matchings(adj):
        count += 1
        if fragile:
            rest = [adj[v] & ~(1 << mate[v]) for v in range(n)]
            if has_perfect_matching(rest):
                fragile = False
    return fragile, count


def fig4_reference(pool: wl.Fig4Pool) -> dict:
    fragile = {}
    witnesses = {}
    start = time.time()
    for rank in range(pool.size):
        pairs = pool.candidate(rank)
        is_fragile, count = fragility(pool.n, pairs)
        if is_fragile:
            s = palette_index(MultiGraph.from_pairs(pool.n, pairs), max_edges=len(pairs)).s_check
            fragile[rank] = {"perfect_matchings": count, "s_check": s}
            if s == 3:
                witnesses[rank] = fragile[rank]
        if rank % 20000 == 0:
            print(f"fig4 scan {rank}/{pool.size} {time.time() - start:.0f}s", flush=True)
    return {"pool_size": pool.size, "fragile": fragile, "witnesses": witnesses}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--skip-fig4-scan", action="store_true",
                        help="keep the committed fig4_reference.json")
    args = parser.parse_args()
    os.makedirs(wl.FIXTURES, exist_ok=True)

    write_census("atlas", nx.graph_atlas_g())
    for name, (n, r) in CENSUS_SOURCES.items():
        write_census(name, regular_connected(n, r))
    base = families.no_perfect_matching_cubic()
    with open(os.path.join(wl.FIXTURES, "fig4_base.g6"), "w", encoding="ascii") as fh:
        fh.write(wl.encode_graph6(base.n, [(u, v) for _, u, v in base.edges]) + "\n")

    reference = {}
    for key, n, pairs in wl.atlas_slice() + wl.regular_set():
        reference[key] = reference_row(key, n, pairs)
    with open(os.path.join(wl.FIXTURES, "reference.json"), "w", encoding="utf-8") as fh:
        rows = (f"{json.dumps(k)}: {json.dumps(reference[k], sort_keys=True)}" for k in sorted(reference))
        fh.write("{\n" + ",\n".join(rows) + "\n}\n")

    pool = wl.Fig4Pool()
    if not args.skip_fig4_scan:
        with open(os.path.join(wl.FIXTURES, "fig4_reference.json"), "w", encoding="utf-8") as fh:
            json.dump(fig4_reference(pool), fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
