"""Command-line front end and the exhaustive-corpus verification pipeline.

Every corpus check is a falsifiable statement from the underlying theory;
a failure prints the offending graph and certificate in full and the run
exits with status 2.  Reports are byte-identical across runs and across
--jobs settings.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from . import __version__
from .coloring import chromatic_index, palettes_of
from .decomposition import (
    certify_3,
    classify_cubic,
    decomposition3_to_json,
    decomposition_from_json,
    regular_corollary_check,
    two_palette_check,
    verify_decomposition_3,
)
from .errors import MalformedInput, NotTwoPalettes, PaletteKitError, ResourceLimit
from .hypergraphs import associated_hypergraph
from .multigraph import (
    MultiGraph,
    disjoint_perfect_matchings,
    is_connected,
    is_regular,
    perfect_matchings,
)
from .formats import read_graph_file, read_text
from .solver import (
    PALETTE_INDEX_EDGE_CAP,
    check_lower_bound_theorem,
    lex_min_witness,
    palette_index,
)

# The report's columns between the quoted input and the checks.
CSV_FIELDS = ("n", "m", "max_degree", "min_degree", "chi_prime", "class", "s_check", "k_min")
CSV_HEADER = ",".join(("index", "input") + CSV_FIELDS)
# corpus --jobs N forks N - 1 processes at once; a larger N is refused.
MAX_JOBS = 64


def _check_lemma_not2(graph, ctx):
    if ctx["regular"] is None:
        return "skip", None
    result = ctx["result"]
    if result.s_check != 2:
        return "pass", None
    colors = [result.coloring.colors[eid] for eid in sorted(graph.edge_ids)]
    return "fail", {"s_check": result.s_check, "coloring": colors}


def _check_thm_cubic(graph, ctx):
    if ctx["regular"] != 3 or not ctx["connected"]:
        return "skip", None
    got = classify_cubic(graph, ctx["result"].chi_prime)
    s_check = ctx["result"].s_check
    if got == s_check:
        return "pass", None
    return "fail", {"classify_cubic": got, "palette_index": s_check}


def _check_thm_lower(graph, ctx):
    # s > delta_min is the conclusion, so the hypothesis needs no search.
    if ctx["result"].s_check > ctx["min_degree"]:
        return "pass", None
    outcome = check_lower_bound_theorem(ctx["result"])
    if not outcome.applicable or outcome.satisfied:
        return "pass", None
    return "fail", {"s_check": ctx["result"].s_check, "min_degree": ctx["min_degree"]}


def _palette_count(result):
    """Outside the range of thm-s2 and thm-s3 only the record's own claim is
    checked: its coloring has s_check palettes.  The theorems' converse
    needs a certificate search of its own."""
    palettes = len(palettes_of(result.coloring))
    if palettes == result.s_check:
        return "pass", None
    return "fail", {"palettes": palettes, "s_check": result.s_check}


def _certificate(graph, ctx):
    """The record's ``certify_3``, built once for thm-s2, thm-s3 and
    cor-regular3."""
    if "certificate" not in ctx:
        ctx["certificate"] = certify_3(graph, ctx["result"].coloring)
    return ctx["certificate"]


def _check_thm_s2(graph, ctx):
    if ctx["result"].s_check != 2:
        return _palette_count(ctx["result"])
    dec, report, synth = _certificate(graph, ctx)
    report = two_palette_check(graph, dec, report)
    if not report.ok:
        return "fail", {"clauses": report.failures(), "certificate": decomposition3_to_json(dec)}
    if len(palettes_of(synth)) != 2:
        return "fail", {"reason": "synthesized coloring does not have two palettes"}
    return "pass", None


def _check_thm_s3(graph, ctx):
    if ctx["result"].s_check > 3:
        return _palette_count(ctx["result"])
    # Synthesis, run by certify_3, asserts at most three palettes, one per A-set.
    dec, report, _ = _certificate(graph, ctx)
    if not report.ok:
        return "fail", {"clauses": report.failures(), "certificate": decomposition3_to_json(dec)}
    return "pass", None


def _check_cor_regular3(graph, ctx):
    if ctx["regular"] is None:
        return "skip", None
    if ctx["result"].s_check != 3:
        return "pass", None
    dec, report, synth = _certificate(graph, ctx)
    report = regular_corollary_check(graph, dec, report)
    if not report.ok:
        return "fail", {"clauses": report.failures(), "certificate": decomposition3_to_json(dec)}
    if len(palettes_of(synth)) != 3:
        return "fail", {"certificate": decomposition3_to_json(dec)}
    return "pass", None


CHECKS = {
    "lemma-not2": _check_lemma_not2,
    "thm-cubic": _check_thm_cubic,
    "thm-lower": _check_thm_lower,
    "thm-s2": _check_thm_s2,
    "thm-s3": _check_thm_s3,
    "cor-regular3": _check_cor_regular3,
}
CHECK_NAMES = tuple(CHECKS)


def _corpus_record(task) -> dict:
    index, text, graph_n, graph_edges, checks, max_edges = task
    graph = MultiGraph(graph_n, tuple(graph_edges))
    record = {
        "index": index,
        "input": text,
        "n": graph.n,
        "m": graph.m,
        "error": None,
        "checks": {},
    }
    dmax = max(graph.degrees, default=0)
    dmin = min(graph.degrees, default=0)
    record["max_degree"] = dmax
    record["min_degree"] = dmin
    if graph.m > max_edges:
        record["error"] = f"skipped: {graph.m} edges exceed cap {max_edges}"
        record["checks"] = {name: "capped" for name in checks}
        return record
    result = palette_index(graph, max_edges=max_edges)
    record["chi_prime"] = result.chi_prime
    record["class"] = 1 if result.chi_prime == dmax else 2
    record["s_check"] = result.s_check
    record["k_min"] = result.k_min
    ctx = {
        "result": result,
        "regular": is_regular(graph),
        "connected": is_connected(graph),
        "min_degree": dmin,
    }
    for name in checks:
        try:
            outcome, detail = CHECKS[name](graph, ctx)
        except ResourceLimit as exc:
            outcome, detail = "capped", {"reason": str(exc)}
        except AssertionError as exc:
            # A synthesized coloring that breaks its theorem is a counterexample.
            outcome, detail = "fail", {"reason": str(exc)}
        record["checks"][name] = outcome
        if outcome == "fail":
            record.setdefault("counterexamples", {})[name] = detail
    return record


def _emit(out, text: str) -> None:
    out.write(text)
    if not text.endswith("\n"):
        out.write("\n")


def _share(tasks, w: int, jobs: int):
    """Records of tasks[w::jobs], up to the first that raises, and its error."""
    records = []
    try:
        for task in tasks[w::jobs]:
            records.append(_corpus_record(task))
    except Exception as exc:
        return records, exc
    return records, None


def _run_records(tasks, jobs: int) -> list[dict]:
    """The corpus records of tasks, in task order, from jobs processes.

    Worker w computes tasks[w::jobs].  This process is worker 0; each other
    worker is a forked child that pickles its share to its own pipe.  When
    records raise, the error of the first of them in task order is raised,
    as in a serial run.  Every child is reaped before this returns or
    raises; a child that is not yet reaped when this raises is killed first.
    With one job nothing is forked, and pickle and signal stay unimported.
    """
    children = {}  # worker -> (pid, pipe reader), until reaped
    if jobs > 1:
        import pickle
        import signal
    try:
        for w in range(1, jobs):
            reader, writer = os.pipe()
            pid = os.fork()
            if pid == 0:
                # Leave without the parent's exit handlers and without
                # flushing its buffered output a second time.
                code = 1
                try:
                    os.close(reader)
                    with open(writer, "wb") as sink:
                        sink.write(pickle.dumps(_share(tasks, w, jobs)))
                    code = 0
                finally:
                    os._exit(code)
            os.close(writer)
            children[w] = (pid, open(reader, "rb"))
        shares = [_share(tasks, 0, jobs)]
        for w in range(1, jobs):
            pid, source = children[w]
            with source:
                data = source.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[w]
            if code:
                # Killed, or it left before its pickle was written whole.
                raise PaletteKitError(
                    f"corpus worker {w} ended without sending its records (exit status {code})"
                )
            shares.append(pickle.loads(data))
    finally:
        for pid, source in children.values():
            source.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failures = [(w + len(done) * jobs, exc) for w, (done, exc) in enumerate(shares) if exc]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    records = [None] * len(tasks)
    for w, (done, _) in enumerate(shares):
        records[w::jobs] = done
    return records


def cmd_corpus(args, out) -> int:
    if args.jobs < 1:
        raise MalformedInput(f"--jobs must be at least 1, got {args.jobs}")
    if args.jobs > MAX_JOBS:
        raise MalformedInput(f"--jobs must be at most {MAX_JOBS}, got {args.jobs}")
    if args.jobs > 1 and not hasattr(os, "fork"):
        raise MalformedInput("--jobs above 1 needs os.fork, which this platform lacks")
    checks = args.checks.split(",") if args.checks else list(CHECK_NAMES)
    for i, name in enumerate(checks):
        if name not in CHECKS:
            raise MalformedInput(f"unknown check {name!r}; choose from {','.join(CHECK_NAMES)}")
        if name in checks[:i]:
            raise MalformedInput(f"check {name!r} is named twice in --checks")
    graphs = read_graph_file(args.file)
    tasks = [
        (i, text, g.n, tuple(g.edges), tuple(checks), args.max_edges)
        for i, (text, g) in enumerate(graphs)
    ]
    records = _run_records(tasks, max(1, min(args.jobs, len(tasks))))
    tallies = {
        name: {"pass": 0, "fail": 0, "skip": 0, "capped": 0} for name in checks
    }
    for record in records:
        for name, outcome in record["checks"].items():
            tallies[name][outcome] += 1
    report = {
        "checks": checks,
        "max_edges": args.max_edges,
        "records": records,
        "tallies": tallies,
    }
    if args.format == "json":
        _emit(out, json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        lines = [CSV_HEADER + "," + ",".join(checks) + ",error"]
        for r in records:
            row = [str(r["index"]), '"' + r["input"].replace('"', '""') + '"']
            row.extend(str(r.get(field, "")) for field in CSV_FIELDS)
            row.extend(r["checks"].get(name, "") for name in checks)
            row.append('"' + (r["error"] or "").replace('"', '""') + '"')
            lines.append(",".join(row))
        _emit(out, "\n".join(lines))
    if any(t["fail"] for t in tallies.values()):
        for record in records:
            for name, detail in record.get("counterexamples", {}).items():
                sys.stderr.write(
                    f"FALSIFIED {name} on graph {record['index']} "
                    f"({record['input']}): {json.dumps(detail, sort_keys=True)}\n"
                )
        return 2
    return 0


def _load_single(path: str, max_edges: int) -> MultiGraph:
    """The file's first graph, refused when it has more edges than the cap."""
    graphs = read_graph_file(path)
    if not graphs:
        raise MalformedInput(f"{path} contains no graphs")
    graph = graphs[0][1]
    if graph.m > max_edges:
        raise ResourceLimit("edge count", graph.m, max_edges)
    return graph


def _scan(graphs: list):
    """Each (text, graph) of graphs, in order, dropping its slot of the list
    as it is handed out: a scan holds one graph and the tables it cached."""
    for i, item in enumerate(graphs):
        graphs[i] = None
        yield item


def cmd_palette_index(args, out) -> int:
    for _, graph in _scan(read_graph_file(args.file)):
        result = lex_min_witness(palette_index(graph, max_edges=args.max_edges))
        _emit(out, result.to_json())
    return 0


def cmd_chromatic_index(args, out) -> int:
    for _, graph in _scan(read_graph_file(args.file)):
        if graph.m > args.max_edges:
            raise ResourceLimit("edge count", graph.m, args.max_edges)
        res = chromatic_index(graph)
        payload = {
            "chi_prime": res.chi_prime,
            "class": 1 if res.chi_prime == max(graph.degrees, default=0) else 2,
            "colors": [res.witness.colors[eid] for eid in sorted(graph.edge_ids)],
        }
        _emit(out, json.dumps(payload))
    return 0


def cmd_decompose(args, out) -> int:
    graph = _load_single(args.file, args.max_edges)
    coloring = lex_min_witness(palette_index(graph, max_edges=args.max_edges)).coloring
    palettes = len(palettes_of(coloring))
    if args.target == 2 and palettes != 2:
        raise NotTwoPalettes(f"coloring induces {palettes} palettes, need 2")
    dec, report, _ = certify_3(graph, coloring)
    text = decomposition3_to_json(dec)
    if args.target == 2:
        report = two_palette_check(graph, dec, report)
        # The two-part form, H0 and H1 alone, which `verify` reads back.
        text = json.dumps({k: v for k, v in json.loads(text).items() if k in ("H0", "H1")})
    # Extraction does not check its result; never print a failing certificate.
    report.require_ok()
    _emit(out, text)
    return 0


def cmd_verify(args, out) -> int:
    graph = _load_single(args.file, args.max_edges)
    payload = read_text(args.certificate)
    try:
        dec = decomposition_from_json(graph, payload)
    except MalformedInput as exc:
        _emit(out, json.dumps({"ok": False, "clauses": [["certificate-malformed", False, str(exc)]]}))
        return 2
    report = verify_decomposition_3(graph, dec)
    if "A" not in json.loads(payload):
        report = two_palette_check(graph, dec, report)
    _emit(
        out,
        json.dumps(
            {"ok": report.ok, "clauses": [list(c) for c in report.clauses]},
            sort_keys=True,
        ),
    )
    return 0 if report.ok else 2


def cmd_hypergraph(args, out) -> int:
    graph = _load_single(args.file, args.max_edges)
    result = lex_min_witness(palette_index(graph, max_edges=args.max_edges))
    hyper = associated_hypergraph(result.coloring)
    _emit(out, hyper.to_json())
    if args.render:
        _emit(out, hyper.render_text())
    return 0


def cmd_cubic_classify(args, out) -> int:
    graph = _load_single(args.file, args.max_edges)
    s_check = classify_cubic(graph, chromatic_index(graph).chi_prime)
    _emit(out, json.dumps({"s_check": s_check}))
    return 0


def _all_perfect_matchings(graph: MultiGraph) -> list[frozenset[int]]:
    return [frozenset(pm) for pm in perfect_matchings(graph)]


def cmd_fig4_witness(args, out) -> int:
    """Scan a 4-regular census for a graph with palette index 3, a perfect
    matching, and no two edge-disjoint perfect matchings."""
    searched = 0
    sizes: set[int] = set()
    for index, (text, graph) in enumerate(_scan(read_graph_file(args.file))):
        if is_regular(graph) != 4 or not is_connected(graph):
            continue
        searched += 1
        sizes.add(graph.n)
        if disjoint_perfect_matchings(graph) is not None:
            continue
        matchings = _all_perfect_matchings(graph)
        if not matchings:
            continue
        result = lex_min_witness(palette_index(graph, max_edges=args.max_edges))
        if result.s_check != 3:
            continue
        dec, report, synth = certify_3(graph, result.coloring)
        regular_corollary_check(graph, dec, report).require_ok()
        h0 = report.witnesses.get("H0")
        payload = {
            "found": True,
            "index": index,
            "input": text,
            "n": graph.n,
            "perfect_matchings": len(matchings),
            "s_check": result.s_check,
            "r": max(h0.graph.degrees) if h0 is not None else 0,
            "certificate": json.loads(decomposition3_to_json(dec)),
            "synthesis_palettes": len(palettes_of(synth)),
        }
        _emit(out, json.dumps(payload, sort_keys=True))
        return 0
    payload = {
        "found": False,
        "searched": searched,
        "vertex_counts": sorted(sizes),
    }
    _emit(out, json.dumps(payload, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="palette-kit",
        description="Exact palette index, minimal colorings and decomposition certificates",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("file", help="graph6/sparse6 lines or edge-list JSON")
        p.add_argument(
            "--max-edges",
            type=int,
            default=PALETTE_INDEX_EDGE_CAP,
            help=f"search cap (default {PALETTE_INDEX_EDGE_CAP})",
        )
        p.set_defaults(run=fn)
        return p

    add("palette-index", cmd_palette_index, help="exact palette index per graph")
    add("chromatic-index", cmd_chromatic_index, help="exact chromatic index per graph")
    p = add("decompose", cmd_decompose, help="extract a decomposition certificate")
    p.add_argument("--target", type=int, choices=(2, 3), default=3)
    p = add("verify", cmd_verify, help="verify a decomposition certificate")
    p.add_argument("--certificate", required=True, help="certificate JSON file")
    p = add("hypergraph", cmd_hypergraph, help="associated hypergraph of a minimal coloring")
    p.add_argument("--render", action="store_true", help="also print plain-text adjacency")
    add("cubic-classify", cmd_cubic_classify, help="palette index of a connected cubic graph")
    p = add("corpus", cmd_corpus, help="run falsifiable checks over a census file")
    p.add_argument("--checks", default=None, help=f"comma list from: {','.join(CHECK_NAMES)}")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add("fig4-witness", cmd_fig4_witness, help="search a 4-regular census for a fragile-matching witness")
    return parser


def cli_main(argv: list[str] | None = None, out: io.TextIOBase | None = None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.max_edges < 0:
            raise MalformedInput(f"--max-edges must be nonnegative, got {args.max_edges}")
        return args.run(args, out)
    except MalformedInput as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 1
    except PaletteKitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    try:
        code = cli_main()
        sys.stdout.flush()
    except OSError as exc:
        # A reader that closed stdout early (say, `| head`) needs no word;
        # any other failed write (say, a full disk) gets one line.  Point the
        # descriptor at /dev/null so the interpreter's flush at exit cannot
        # raise again and print a traceback.
        if not isinstance(exc, BrokenPipeError):
            sys.stderr.write(f"error: cannot write output: {exc}\n")
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 1
    raise SystemExit(code)
