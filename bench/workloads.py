"""Benchmark inputs: committed census fixtures, seeded relabelling, the Fig. 4
candidate pool, and the expected CLI output for each generated input.

Nothing here imports ``palette_kit``: the harness builds inputs and checks
outputs with its own graph6 codec and its own matching enumeration, so a
defect in the program cannot hide itself by also corrupting the check.
"""

from __future__ import annotations

import json
import os
import random

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
FIXTURES = os.path.join(BENCH_DIR, "fixtures")

CHECK_NAMES = ("lemma-not2", "thm-cubic", "thm-lower", "thm-s2", "thm-s3", "cor-regular3")
DEFAULT_MAX_EDGES = 30

# Published census sizes; a fixture that disagrees is refused.
CENSUS_SIZES = {
    "atlas": {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044},
    "cubic10": {10: 19},
    "cubic12": {12: 85},
    "quartic9": {9: 16},
    "quartic10": {10: 59},
}
FIG4_POOL_SIZE = 365_868

# Every ATLAS_STEP-th atlas graph, starting at ATLAS_OFFSET: evenly spaced, so
# every vertex count and edge count band is represented, the densest too.
ATLAS_STEP = 22
ATLAS_OFFSET = 16
REGULAR_CENSUSES = ("cubic10", "cubic12", "quartic10")
FIG4_DRAW = 400


class FixtureError(Exception):
    """A committed fixture is missing or disagrees with its census size."""


# ---------------------------------------------------------------- graph6


def encode_graph6(n: int, pairs) -> str:
    """graph6 text of a simple graph on n <= 62 vertices."""
    if not 0 <= n <= 62:
        raise ValueError("graph6 encoder handles 0..62 vertices")
    adj = {(min(u, v), max(u, v)) for u, v in pairs}
    bits = [1 if (i, j) in adj else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + sum(bits[i + t] << (5 - t) for t in range(6)))
        for i in range(0, len(bits), 6)
    )
    return chr(63 + n) + body


def decode_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    n = ord(text[0]) - 63
    if not 0 <= n <= 62 or len(text) != 1 + (n * (n - 1) // 2 + 5) // 6:
        raise FixtureError(f"not a small graph6 string: {text!r}")
    bits = [(ord(ch) - 63) >> s & 1 for ch in text[1:] for s in (5, 4, 3, 2, 1, 0)]
    pairs = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                pairs.append((i, j))
            k += 1
    return n, pairs


def relabel(n: int, pairs, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return n, sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in pairs)


# ---------------------------------------------------------------- fixtures


def load_census(name: str) -> list[tuple[str, int, list[tuple[int, int]]]]:
    """(key, n, pairs) for every graph of a committed census, in file order.

    Raises FixtureError when the per-vertex-count sizes differ from the
    published ones in CENSUS_SIZES.
    """
    path = os.path.join(FIXTURES, f"{name}.g6")
    try:
        with open(path, encoding="ascii") as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except OSError as exc:
        raise FixtureError(f"cannot read fixture {path}: {exc}") from exc
    graphs = []
    sizes: dict[int, int] = {}
    for i, text in enumerate(lines):
        n, pairs = decode_graph6(text)
        sizes[n] = sizes.get(n, 0) + 1
        graphs.append((f"{name}:{i}", n, pairs))
    if sizes != CENSUS_SIZES[name]:
        raise FixtureError(f"{name}: census sizes {sizes} != {CENSUS_SIZES[name]}")
    return graphs


def load_reference() -> dict[str, dict]:
    with open(os.path.join(FIXTURES, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def atlas_slice() -> list[tuple[str, int, list[tuple[int, int]]]]:
    return load_census("atlas")[ATLAS_OFFSET::ATLAS_STEP]


def regular_set() -> list[tuple[str, int, list[tuple[int, int]]]]:
    return [g for name in REGULAR_CENSUSES for g in load_census(name)]


# ---------------------------------------------------------------- Fig. 4 pool


class Fig4Pool:
    """Candidates T + M for the Fig. 4 search, where T is the 16-vertex cubic
    graph without a perfect matching and M ranges over the perfect matchings
    of T's complement, in a fixed order that can be unranked directly."""

    def __init__(self):
        with open(os.path.join(FIXTURES, "fig4_base.g6"), encoding="ascii") as fh:
            self.n, self.base = decode_graph6(fh.read().strip())
        edges = set(self.base)
        full = (1 << self.n) - 1
        self.free = [
            sum(1 << w for w in range(self.n) if w != v and (min(v, w), max(v, w)) not in edges)
            for v in range(self.n)
        ]
        self._counts: dict[int, int] = {full: 1}
        self.size = self._count(0)
        if self.size != FIG4_POOL_SIZE:
            raise FixtureError(f"fig4 pool has {self.size} candidates, expected {FIG4_POOL_SIZE}")

    def _count(self, covered: int) -> int:
        got = self._counts.get(covered)
        if got is None:
            v = (~covered & -~covered).bit_length() - 1
            got = 0
            options = self.free[v] & ~covered
            while options:
                w = options & -options
                options ^= w
                got += self._count(covered | 1 << v | w)
            self._counts[covered] = got
        return got

    def matching(self, rank: int) -> list[tuple[int, int]]:
        """The rank-th perfect matching of the complement, 0 <= rank < size."""
        covered = 0
        out = []
        full = (1 << self.n) - 1
        while covered != full:
            v = (~covered & -~covered).bit_length() - 1
            options = self.free[v] & ~covered
            while options:
                w = options & -options
                options ^= w
                below = self._count(covered | 1 << v | w)
                if rank < below:
                    out.append((v, w.bit_length() - 1))
                    covered |= 1 << v | w
                    break
                rank -= below
        return out

    def candidate(self, rank: int) -> list[tuple[int, int]]:
        return sorted(self.base + self.matching(rank))


def load_fig4_reference() -> dict:
    with open(os.path.join(FIXTURES, "fig4_reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- inputs


def invocation_rng(workload: str, seed: int, k: int) -> random.Random:
    # atlas and atlas-jobs2 share inputs so that their reports can be compared.
    family = "atlas" if workload.startswith("atlas") else workload
    return random.Random(f"{family}:{seed}:{k}")


def corpus_input(graphs, rng: random.Random) -> list[tuple[str, str]]:
    """(reference key, graph6 line) per graph, each under a fresh permutation."""
    return [(key, encode_graph6(*relabel(n, pairs, rng))) for key, n, pairs in graphs]


def fig4_input(pool: Fig4Pool, rng: random.Random, skip) -> list[tuple[int, str]]:
    """FIG4_DRAW distinct candidates, none of the ranks in ``skip``.

    The fragile candidates are skipped: the CLI runs the exact palette
    search on each of them, which takes minutes per graph, while this
    workload is meant to measure the matching layer.
    """
    draw = rng.sample(range(pool.size), FIG4_DRAW + len(skip))
    ranks = [r for r in draw if r not in skip][:FIG4_DRAW]
    return [(r, encode_graph6(*relabel(pool.n, pool.candidate(r), rng))) for r in ranks]


# ---------------------------------------------------------------- expected output


def expected_record(index: int, text: str, ref: dict) -> dict:
    return {
        "index": index,
        "input": text,
        "n": ref["n"],
        "m": ref["m"],
        "error": None,
        "checks": dict(ref["checks"]),
        "max_degree": ref["max_degree"],
        "min_degree": ref["min_degree"],
        "chi_prime": ref["chi_prime"],
        "class": ref["class"],
        "s_check": ref["s_check"],
        "k_min": ref["k_min"],
    }


def expected_corpus_report(items, reference: dict) -> str:
    """The exact bytes ``corpus --format json`` must print for these inputs.

    Every field is isomorphism-invariant or the input text itself, so the
    same bytes are expected for any --jobs value.
    """
    records = [expected_record(i, text, reference[key]) for i, (key, text) in enumerate(items)]
    tallies = {name: {"pass": 0, "fail": 0, "skip": 0, "capped": 0} for name in CHECK_NAMES}
    for r in records:
        for name, outcome in r["checks"].items():
            tallies[name][outcome] += 1
    report = {
        "checks": list(CHECK_NAMES),
        "max_edges": DEFAULT_MAX_EDGES,
        "records": records,
        "tallies": tallies,
    }
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def failed_corpus_records(stdout: str, exit_code: int, items, reference: dict) -> int:
    """Records whose output is wrong, capped, errored or falsified.

    A nonzero exit or an unparsable report fails every record; a report that
    is right record by record but not byte-identical to the expected one
    fails every record too, because byte identity is part of its contract.
    """
    if exit_code != 0:
        return len(items)
    if stdout == expected_corpus_report(items, reference):
        return 0
    try:
        got = json.loads(stdout)["records"]
    except (ValueError, KeyError, TypeError):
        return len(items)
    if not isinstance(got, list) or len(got) != len(items):
        return len(items)
    bad = sum(
        1
        for i, ((key, text), rec) in enumerate(zip(items, got))
        if rec != expected_record(i, text, reference[key])
    )
    return bad or len(items)


def expected_fig4(items, fig4_ref: dict) -> dict:
    """First drawn candidate that is a Fig. 4 witness, else the not-found report."""
    witnesses = {int(r): w for r, w in fig4_ref["witnesses"].items()}
    for index, (rank, text) in enumerate(items):
        if rank in witnesses:
            w = witnesses[rank]
            return {
                "found": True,
                "index": index,
                "input": text,
                "n": 16,
                "perfect_matchings": w["perfect_matchings"],
                "s_check": 3,
                "synthesis_palettes": 3,
            }
    return {"found": False, "searched": len(items), "vertex_counts": [16]}


def fig4_ok(stdout: str, exit_code: int, items, fig4_ref: dict) -> bool:
    if exit_code != 0:
        return False
    try:
        got = json.loads(stdout)
    except ValueError:
        return False
    want = expected_fig4(items, fig4_ref)
    if not isinstance(got, dict):
        return False
    return all(got.get(k) == v for k, v in want.items()) and (
        want["found"] or set(got) == set(want)
    )
