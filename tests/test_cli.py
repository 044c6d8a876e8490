from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import random
import subprocess
import sys
import time

import pytest

from palette_kit import cli, coloring, decomposition, errors, multigraph, solver
from palette_kit import families as fam
from palette_kit.coloring import EdgeColoring
from palette_kit.formats import decode_graph6, read_graph_file
from palette_kit.multigraph import EdgeSubset, MultiGraph

from conftest import FIG4_FRAGILE_60800, nx_line

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
QUARTIC9 = os.path.join(ROOT, "bench", "fixtures", "quartic9.g6")

# P4, Petersen, K4, C5 and the star K_{1,3} in graph6, then K_{2,3} in sparse6.
MIXED = ["Ch", "IheA@GUAo", "C~", "Dhc", "Cs", ":Dg@_WF"]


# K5 and the six connected 4-regular graphs on 8 vertices.
QUARTIC = [
    "D~{",
    "Gtlai[", "Gthqq[", "Gthayw", "Gs`zro", "G|dIXk", "G|daW{",
]


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    code = cli.cli_main(argv, out)
    return code, out.getvalue()


@pytest.fixture
def mixed_file(tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_text("\n".join(MIXED) + "\n")
    return str(path)


@pytest.fixture
def quartic_file(tmp_path):
    path = tmp_path / "quartic.g6"
    path.write_text("\n".join(QUARTIC) + "\n")
    return str(path)


@pytest.mark.parametrize(
    "graph,check",
    [
        (MultiGraph.from_pairs(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)]), "thm-lower"),
        (fam.petersen_graph(), "cor-regular3"),
    ],
    ids=["tree", "class2-cubic"],
)
def test_corpus_record_solves_palette_index_once(monkeypatch, graph, check):
    calls = []
    real = solver.palette_index

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (cli, solver):
        monkeypatch.setattr(module, "palette_index", counting)
    task = (0, "g", graph.n, graph.edges, cli.CHECK_NAMES, solver.PALETTE_INDEX_EDGE_CAP)
    record = cli._corpus_record(task)
    assert set(record["checks"].values()) <= {"pass", "skip"}
    assert len(calls) == 1
    # The check really needed the palette index, which it used to re-solve.
    applies = {
        "thm-lower": lambda: solver.check_lower_bound_theorem(real(graph)).applicable,
        "cor-regular3": lambda: (result := real(graph)).s_check == 3
        and decomposition.regular_corollary_check(
            graph, *decomposition.certify_3(graph, result.coloring)[:2]).ok,
    }
    assert applies[check]()


def test_corpus_record_runs_no_id_order_search(monkeypatch):
    # Iu[@?KE@W (record 14 of relabelled.g6) has s = 3; every palette search
    # runs in the proof order, which is not its edge-id order.  The corpus
    # reads that minimal coloring as it is: no search in edge-id order
    # follows, and s_check and k_min are the lex-min witness's.
    text = "Iu[@?KE@W"
    graph = decode_graph6(text)
    proof, id_order = solver._proof_order(graph), tuple(sorted(graph.edges))
    assert proof != id_order
    searches = []
    real = solver._search

    def spy(g, t, k, order):
        searches.append((t, k, order))
        return real(g, t, k, order)

    monkeypatch.setattr(solver, "_search", spy)
    task = (14, text, graph.n, graph.edges, cli.CHECK_NAMES, solver.PALETTE_INDEX_EDGE_CAP)
    record = cli._corpus_record(task)
    assert searches and all(order == proof for _, _, order in searches)
    searches.clear()
    canonical = solver.lex_min_witness(solver.palette_index(graph))
    assert searches[-1] == (3, 4, id_order)
    assert (record["s_check"], record["k_min"]) == (canonical.s_check, canonical.k_min) == (3, 4)


# decompose and hypergraph --render on two relabelled census graphs with
# s = 3 below the chi' witness's palette count, as printed when palette_index
# still returned the lex-min witness.  The descent's own coloring gives other
# certificates on both, and another hypergraph on Iu[@?KE@W.
PRINTED_FROM_THE_LEX_MIN_WITNESS = {
    "Iu[@?KE@W": (
        '{"H0": [2, 4, 6, 9, 13], "H1": [7, 14], "H2": [1, 3, 10, 11], "H3": [0, 5, 8, 12], '
        '"A": [[0, 1, 2, 5, 6, 7], [4, 8], [3, 9]], "shape": "A1A2"}\n',
        '{"vertices": [[1, 2, 3], [1, 3, 4], [2, 3, 4]], '
        '"hyperedges": [[0, 1], [0, 2], [0, 1, 2], [1, 2]]}\n'
        "vertices: {1,2,3}, {1,3,4}, {2,3,4}\n"
        "h1: {1,2,3} -- {1,3,4}\n"
        "h2: {1,2,3} -- {2,3,4}\n"
        "h3: {{1,2,3}, {1,3,4}, {2,3,4}}\n"
        "h4: {1,3,4} -- {2,3,4}\n",
    ),
    "HelXLDb": (
        '{"H0": null, "H1": [7, 10, 13, 14, 15, 17], "H2": [1, 3, 5, 6, 8, 9, 12, 16], '
        '"H3": [0, 2, 4, 11], "A": [[0, 1, 3], [4], [2, 5, 6, 7, 8]], "shape": "A1A2"}\n',
        '{"vertices": [[1, 2, 3, 4], [1, 3, 5, 6], [2, 4, 5, 6]], '
        '"hyperedges": [[0, 1], [0, 2], [0, 1], [0, 2], [1, 2], [1, 2]]}\n'
        "vertices: {1,2,3,4}, {1,3,5,6}, {2,4,5,6}\n"
        "h1: {1,2,3,4} -- {1,3,5,6}\n"
        "h2: {1,2,3,4} -- {2,4,5,6}\n"
        "h3: {1,2,3,4} -- {1,3,5,6}\n"
        "h4: {1,2,3,4} -- {2,4,5,6}\n"
        "h5: {1,3,5,6} -- {2,4,5,6}\n"
        "h6: {1,3,5,6} -- {2,4,5,6}\n",
    ),
}


@pytest.mark.parametrize("text", sorted(PRINTED_FROM_THE_LEX_MIN_WITNESS))
def test_printing_commands_show_the_lex_min_witness(tmp_path, text):
    path = tmp_path / "g.g6"
    path.write_text(text + "\n")
    certificate, hypergraph = PRINTED_FROM_THE_LEX_MIN_WITNESS[text]
    assert run_cli(["decompose", str(path)]) == (0, certificate)
    assert run_cli(["hypergraph", "--render", str(path)]) == (0, hypergraph)


def test_cli_import_leaves_networkx_unloaded(mixed_file, quartic_file):
    # Importing the CLI loads no networkx, and with networkx made unimportable
    # corpus (Petersen reaches has_perfect_matching through classify_cubic)
    # and fig4-witness still succeed.
    script = (
        "import sys, json\n"
        "import palette_kit.cli\n"
        "assert 'networkx' not in sys.modules, 'networkx imported by palette_kit.cli'\n"
        "sys.modules['networkx'] = None\n"
        "from palette_kit import families\n"
        "from palette_kit.multigraph import has_perfect_matching\n"
        "print(json.dumps(has_perfect_matching(families.complete_graph(4))))\n"
        "assert palette_kit.cli.cli_main(['corpus', sys.argv[1]], sys.stderr) == 0\n"
        "assert palette_kit.cli.cli_main(['fig4-witness', sys.argv[2]], sys.stderr) == 0\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", script, mixed_file, quartic_file],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    found, witness = json.loads(proc.stdout)
    assert found and len(witness) == 2


def test_cli_import_leaves_the_process_pool_unloaded(mixed_file):
    # Neither importing the CLI nor a corpus run, with --jobs 1 or with
    # forked workers, loads a process pool or dataclasses (whose import pulls
    # in inspect); --jobs 2 prints the --jobs 1 bytes.
    script = (
        "import io, sys\n"
        "import palette_kit.cli as cli\n"
        "heavy = {'dataclasses', 'inspect', 'concurrent.futures', 'multiprocessing'}\n"
        "assert not heavy & sys.modules.keys(), sorted(heavy & sys.modules.keys())\n"
        "one, two = io.StringIO(), io.StringIO()\n"
        "assert cli.cli_main(['corpus', '--jobs', '1', sys.argv[1]], one) == 0\n"
        "assert not heavy & sys.modules.keys(), sorted(heavy & sys.modules.keys())\n"
        "assert cli.cli_main(['corpus', '--jobs', '2', sys.argv[1]], two) == 0\n"
        "assert not heavy & sys.modules.keys(), sorted(heavy & sys.modules.keys())\n"
        "assert two.getvalue() == one.getvalue()\n"
        "sys.stdout.write(one.getvalue())\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", script, mixed_file],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["records"]) == len(MIXED)


def test_fig4_witness_reports_no_witness(quartic_file):
    code, out = run_cli(["fig4-witness", quartic_file])
    assert code == 0
    assert out == '{"found": false, "searched": 7, "vertex_counts": [5, 8]}\n'


def test_fig4_witness_reports_a_found_witness(monkeypatch, tmp_path):
    # No fragile witness is known, so report every graph as having no two
    # edge-disjoint perfect matchings.  ItlAIKw@w is 4-regular on 10
    # vertices with s = 3 and a corollary certificate with r = 2.
    monkeypatch.setattr(cli, "disjoint_perfect_matchings", lambda graph: None)
    path = tmp_path / "quartic10.g6"
    path.write_text("ItlAIKw@w\n")
    code, out = run_cli(["fig4-witness", str(path)])
    assert code == 0
    assert json.loads(out) == {
        "found": True, "index": 0, "input": "ItlAIKw@w", "n": 10,
        "perfect_matchings": 18, "s_check": 3, "r": 2, "synthesis_palettes": 3,
        "certificate": {
            "H0": [0, 1, 4, 7, 10, 12, 13, 16, 18, 19], "H1": [11, 17],
            "H2": [3, 6, 9, 15], "H3": [2, 5, 8, 14],
            "A": [[0, 1, 2, 4, 5, 7], [3, 6], [8, 9]], "shape": "A1A2",
        },
    }


def test_fig4_witness_applies_the_edge_cap(tmp_path, capsys):
    path = tmp_path / "fragile.g6"
    path.write_text(FIG4_FRAGILE_60800 + "\n")
    code, out = run_cli(["fig4-witness", str(path)])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == "error: edge count is 32, which exceeds the cap of 30\n"


def test_fig4_witness_searches_a_fragile_candidate(tmp_path):
    # The fragile branch end to end: all matchings are counted, and the
    # exact palette search finds s = 4.
    path = tmp_path / "fragile.g6"
    path.write_text(FIG4_FRAGILE_60800 + "\n")
    code, out = run_cli(["fig4-witness", str(path), "--max-edges", "32"])
    assert (code, out) == (0, '{"found": false, "searched": 1, "vertex_counts": [16]}\n')


def test_fig4_witness_enumerates_no_matchings_without_a_fragile_graph(monkeypatch):
    # Every connected 4-regular graph on 10 vertices has two edge-disjoint
    # perfect matchings, so none of them reaches the full enumeration.
    def refuse(graph):
        raise AssertionError("enumerated the matchings of a non-fragile graph")

    monkeypatch.setattr(cli, "_all_perfect_matchings", refuse)
    code, out = run_cli(["fig4-witness", os.path.join(ROOT, "bench", "fixtures", "quartic10.g6")])
    assert (code, out) == (0, '{"found": false, "searched": 59, "vertex_counts": [10]}\n')


@pytest.mark.parametrize("command", ["corpus", "verify"])
def test_closed_stdout_exits_quietly(tmp_path, mixed_file, command):
    # Like `palette-kit corpus FILE | head -c 20`: the reader is gone before
    # the report is written.
    if command == "corpus":
        argv = ["corpus", mixed_file]
    else:
        cert = tmp_path / "cert.json"
        cert.write_text('{"H0": [0, 2], "H1": [1]}')
        argv = ["verify", write_graph(tmp_path, fam.path_graph(4)), "--certificate", str(cert)]
    proc = subprocess.Popen(
        [sys.executable, "-c", "from palette_kit.cli import main; main()", *argv],
        env=dict(os.environ, PYTHONPATH=SRC),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_write_is_one_error_line(mixed_file):
    # Like `palette-kit palette-index FILE > /dev/full`: every write fails.
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-c", "from palette_kit.cli import main; main()",
             "palette-index", mixed_file],
            env=dict(os.environ, PYTHONPATH=SRC),
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write output: [Errno 28] No space left on device\n"


def fork_spy(monkeypatch):
    """The pids that os.fork returned to this process, in fork order.  In a
    child, the list holds the pids of the children forked before it."""
    forked = []
    real = os.fork

    def spy():
        pid = real()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return forked


def assert_reaped(pids):
    # waitpid raises ChildProcessError once a child has been reaped.
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_corpus_starts_at_most_one_worker_per_record(monkeypatch, tmp_path):
    # This process computes a share too, so --jobs 64 on three graphs forks
    # two children, and --jobs 1 forks none.
    forked = fork_spy(monkeypatch)
    path = tmp_path / "three.g6"
    path.write_text("Ch\nC~\nDhc\n")
    one = run_cli(["corpus", "--jobs", "1", str(path)])
    assert forked == []
    assert run_cli(["corpus", "--jobs", "64", str(path)]) == one
    assert one[0] == 0
    assert len(forked) == 2
    assert_reaped(forked)


def test_palette_kit_errors_survive_pickling():
    # A corpus worker sends a record's error to its parent by pickle: the
    # type, the message and the attributes must all arrive.
    args = {
        errors.ResourceLimit: ("edge count", 31, 30),
        errors.InvalidCertificate: ("A-sets partition", "vertex 3 twice"),
    }
    pending, seen = [errors.PaletteKitError], []
    while pending:
        cls = pending.pop()
        seen.append(cls)
        pending.extend(cls.__subclasses__())
        exc = cls(*args.get(cls, ("some message",)))
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc)
        assert vars(back) == vars(exc)
    assert set(args) <= set(seen)


def raise_on(monkeypatch, failures):
    """Make the corpus record of each task index in failures raise its error."""
    real = cli._corpus_record

    def record(task):
        if task[0] in failures:
            raise failures[task[0]]
        return real(task)

    monkeypatch.setattr(cli, "_corpus_record", record)


def test_a_raising_record_reads_the_same_under_every_jobs(monkeypatch, capsys, mixed_file):
    # Records 3 and 4 raise.  With two jobs, record 3 is a child's and
    # record 4 this process's; either way the first in task order is
    # reported, as with one job.
    raise_on(monkeypatch, {
        3: errors.InvalidCertificate("A-sets partition", "vertex 3 twice"),
        4: errors.ResourceLimit("edge count", 31, 30),
    })
    outcomes = []
    for jobs in ("1", "2", "3"):
        outcomes.append((run_cli(["corpus", "--jobs", jobs, mixed_file]), capsys.readouterr().err))
    assert outcomes == [(
        (1, ""),
        "error: certificate clause failed: A-sets partition (vertex 3 twice)\n",
    )] * 3


def test_a_dead_worker_is_one_error_line(monkeypatch, capsys, mixed_file):
    # The first child leaves without sending its records, and the second
    # would run for a minute: it is killed, and both are reaped.
    forked = fork_spy(monkeypatch)
    parent, real = os.getpid(), cli._corpus_record

    def record(task):
        if os.getpid() == parent:
            return real(task)
        if not forked:
            os._exit(3)
        time.sleep(60)

    monkeypatch.setattr(cli, "_corpus_record", record)
    start = time.monotonic()
    assert run_cli(["corpus", "--jobs", "3", mixed_file]) == (1, "")
    assert time.monotonic() - start < 30
    assert capsys.readouterr().err == (
        "error: corpus worker 1 ended without sending its records (exit status 3)\n"
    )
    assert len(forked) == 2
    assert_reaped(forked)


def test_an_interrupted_corpus_kills_its_workers(monkeypatch, mixed_file):
    # Ctrl-C in this process while the children still work: no child is
    # left running.
    forked = fork_spy(monkeypatch)
    parent = os.getpid()

    def record(task):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(cli, "_corpus_record", record)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_cli(["corpus", "--jobs", "2", mixed_file])
    assert time.monotonic() - start < 30
    assert len(forked) == 1
    assert_reaped(forked)


def test_jobs_without_fork_are_an_input_error(monkeypatch, capsys, mixed_file):
    # Where os.fork is missing, --jobs 2 is refused rather than run serially.
    monkeypatch.delattr(os, "fork")
    assert run_cli(["corpus", "--jobs", "2", mixed_file]) == (1, "")
    assert capsys.readouterr().err == (
        "input error: --jobs above 1 needs os.fork, which this platform lacks\n"
    )
    assert run_cli(["corpus", "--jobs", "1", mixed_file])[0] == 0


def test_version_prints_the_package_version(capsys):
    # argparse writes the version to sys.stdout, not to the out stream.
    assert run_cli(["--version"]) == (0, "")
    assert capsys.readouterr() == ("0.1.0\n", "")


def test_python_m_runs_the_cli(tmp_path):
    # `python -m palette_kit` is the palette-kit entry point.
    path = tmp_path / "pet.g6"
    path.write_text("IheA@GUAo\n")
    env = dict(os.environ, PYTHONPATH=SRC)

    def run_module(*argv):
        return subprocess.run([sys.executable, "-m", "palette_kit", *argv],
                              env=env, capture_output=True, text=True, timeout=120)

    version = run_module("--version")
    assert (version.returncode, version.stdout) == (0, "0.1.0\n")
    index = run_module("palette-index", str(path))
    assert (index.returncode, index.stdout, index.stderr) == (
        0, run_cli(["palette-index", str(path)])[1], "")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_corpus_report_is_identical_across_jobs(mixed_file, fmt):
    code1, out1 = run_cli(["corpus", "--format", fmt, "--jobs", "1", mixed_file])
    code2, out2 = run_cli(["corpus", "--format", fmt, "--jobs", "2", mixed_file])
    assert code1 == code2 == 0
    assert out1 == out2
    if fmt == "json":
        report = json.loads(out1)
        assert len(report["records"]) == len(MIXED)
        assert all(t["fail"] == 0 and t["capped"] == 0 for t in report["tallies"].values())
    else:
        lines = out1.splitlines()
        assert lines[0].startswith(cli.CSV_HEADER)
        assert len(lines) == 1 + len(MIXED)


@pytest.mark.parametrize(
    "argv",
    [
        ["corpus", "--jobs", "0"],
        ["corpus", "--jobs", "-3"],
        ["corpus", "--max-edges", "-5"],
        ["palette-index", "--max-edges", "-1"],
    ],
)
def test_invalid_caps_and_jobs_are_rejected(capsys, mixed_file, argv):
    code, out = run_cli(argv + [mixed_file])
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize("bad", ["missing", "directory", "not-utf8"])
@pytest.mark.parametrize(
    "argv",
    [
        ["palette-index", "BAD"],
        ["corpus", "--jobs", "1", "BAD"],
        ["corpus", "--jobs", "2", "BAD"],
        ["verify", "GOOD", "--certificate", "BAD"],
    ],
    ids=["palette-index", "corpus-jobs1", "corpus-jobs2", "verify-certificate"],
)
def test_unreadable_input_is_an_input_error(capsys, tmp_path, argv, bad):
    # A missing file, a directory or bytes that are not UTF-8, as the graph
    # file or as the certificate, exit 1 with one line on stderr that names
    # the file, and no traceback.
    bad_path = tmp_path / bad
    if bad == "directory":
        bad_path.mkdir()
    elif bad == "not-utf8":
        bad_path.write_bytes(b"\xff\xfe")
    good = write_graph(tmp_path, fam.complete_graph(4))
    argv = [{"BAD": str(bad_path), "GOOD": good}.get(a, a) for a in argv]
    code, out = run_cli(argv)
    assert code == 1
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot read {bad_path}: ")
    assert err.count("\n") == 1


def test_palette_index_reads_parallel_edges_from_sparse6(tmp_path):
    # Shannon's triangle, every pair doubled: sparse6 sorts its pairs, so its
    # edge ids are those of the edge-list JSON with sorted edges.
    sparse6 = tmp_path / "shannon.s6"
    sparse6.write_text(":B__H\n")
    edge_list = tmp_path / "shannon.json"
    edge_list.write_text('{"n": 3, "edges": [[0, 1], [0, 1], [0, 2], [0, 2], [1, 2], [1, 2]]}')
    out = '{"s_check": 3, "k_min": 6, "colors": [1, 2, 3, 4, 5, 6]}\n'
    assert run_cli(["palette-index", str(sparse6)]) == (0, out)
    assert run_cli(["palette-index", str(edge_list)]) == (0, out)


def test_chromatic_index_uses_the_given_cap(tmp_path, capsys):
    path = tmp_path / "k4.g6"
    path.write_text("C~\n")
    code, _ = run_cli(["chromatic-index", "--max-edges", "1", str(path)])
    assert code == 1
    assert "exceeds" in capsys.readouterr().err
    code, out = run_cli(["chromatic-index", "--max-edges", "6", str(path)])
    assert code == 0
    assert json.loads(out)["chi_prime"] == 3


def test_corpus_reports_both_capped_paths(tmp_path, monkeypatch):
    # The first 31 edges of K9 are over the cap, so the record is skipped
    # unsolved.  thm-lower's cycle-space cap is lowered to 0: Petersen has
    # s = 3, not above its min degree 3, a cycle space of dimension 6, and
    # three palettes of four colors with one color in common, so its
    # thm-lower is capped.  27 parallel edges need no cycle at all, as two
    # of them form a spanning even subgraph.  K4 (s = 1) has all three
    # colors in every palette, and two of its color classes form a spanning
    # cycle, so it passes without the cycle-space search: above the cap a
    # report can only go from capped to pass.
    monkeypatch.setattr(multigraph, "EVEN_SUBGRAPH_DIMENSION_CAP", 0)
    k9 = [[u, v] for u in range(9) for v in range(u + 1, 9)][:31]
    k4 = [[u, v] for u in range(4) for v in range(u + 1, 4)]
    petersen = [[u, v] for _, u, v in fam.petersen_graph().edges]
    path = tmp_path / "capped.json"
    path.write_text(json.dumps([
        {"n": 9, "edges": k9}, {"n": 2, "edges": [[0, 1]] * 27},
        {"n": 10, "edges": petersen}, {"n": 4, "edges": k4},
    ]))
    code, out = run_cli(["corpus", "--max-edges", "30", str(path)])
    assert code == 0
    report = json.loads(out)
    skipped, parallel, cycle, common = report["records"]
    assert skipped["error"] == "skipped: 31 edges exceed cap 30"
    assert skipped["checks"] == {name: "capped" for name in cli.CHECK_NAMES}
    assert parallel["error"] is None
    assert parallel["checks"]["thm-lower"] == "pass"
    assert set(parallel["checks"].values()) <= {"pass", "skip"}
    assert cycle["checks"]["thm-lower"] == "capped"
    others = {name: o for name, o in cycle["checks"].items() if name != "thm-lower"}
    assert set(others.values()) <= {"pass", "skip"}
    assert (common["s_check"], common["min_degree"]) == (1, 3)
    assert set(common["checks"].values()) <= {"pass", "skip"}
    for name, tally in report["tallies"].items():
        assert sum(tally.values()) == 4
        assert tally["capped"] == (2 if name == "thm-lower" else 1)


def test_thm_lower_passes_without_search_when_s_exceeds_min_degree(tmp_path, monkeypatch):
    # C5 has s = 3 > min degree 2, the theorem's conclusion, so thm-lower
    # passes without the cycle-space search even with its cap at 0.
    monkeypatch.setattr(multigraph, "EVEN_SUBGRAPH_DIMENSION_CAP", 0)
    path = write_graph(tmp_path, fam.cycle_graph(5))
    code, out = run_cli(["corpus", "--checks", "thm-lower", path])
    assert code == 0
    record = json.loads(out)["records"][0]
    assert (record["s_check"], record["min_degree"]) == (3, 2)
    assert record["checks"] == {"thm-lower": "pass"}


def test_corpus_on_quartic9_matches_its_digest():
    # The report on the 16 connected 4-regular graphs on 9 vertices is
    # pinned byte for byte; CI checks the same digest through the entry point.
    with open(os.path.join(ROOT, "tests", "data", "quartic9_corpus.sha256")) as fh:
        expected = fh.read().split()[0]
    code, out = run_cli(["corpus", QUARTIC9])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected


@pytest.mark.parametrize("census", ["cubic12", "quartic10"])
def test_palette_index_on_even_regular_census_matches_its_digest(census):
    # s, k_min and the witness of every graph are pinned byte for byte; these
    # censuses hold t = 2 proofs of even-order Class 2 regular graphs, which
    # the atlas (at most 7 vertices) never reaches.  CI checks the same
    # digests through the entry point.
    with open(os.path.join(ROOT, "tests", "data", f"{census}_palette_index.sha256")) as fh:
        expected = fh.read().split()[0]
    code, out = run_cli(["palette-index", os.path.join(ROOT, "bench", "fixtures", f"{census}.g6")])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected


def test_relabelled_censuses_fixture_is_reproducible():
    # tests/data/relabelled.g6: every graph of five census fixtures, in this
    # order, relabelled by a permutation from one shared random.Random(2024).
    rng = random.Random(2024)
    lines = []
    for census in ("cubic10", "cubic12", "quartic10", "quartic9", "atlas"):
        for _, graph in read_graph_file(os.path.join(ROOT, "bench", "fixtures", f"{census}.g6")):
            perm = list(range(graph.n))
            rng.shuffle(perm)
            pairs = sorted(tuple(sorted((perm[u], perm[v]))) for _, u, v in graph.edges)
            lines.append(nx_line(MultiGraph.from_pairs(graph.n, pairs)) + "\n")
    with open(os.path.join(ROOT, "tests", "data", "relabelled.g6")) as fh:
        assert fh.read() == "".join(lines)


def test_palette_index_on_relabelled_censuses_matches_its_digest():
    # Native labellings often make the edge-id order the narrower one, so
    # these relabelled censuses pin the witnesses where the proof order
    # refutes targets below the chi' witness's palette count.  CI checks the
    # same digest through the entry point.
    with open(os.path.join(ROOT, "tests", "data", "relabelled_palette_index.sha256")) as fh:
        expected = fh.read().split()[0]
    code, out = run_cli(["palette-index", os.path.join(ROOT, "tests", "data", "relabelled.g6")])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected



def test_corpus_on_relabelled_censuses_matches_its_digest():
    # Every check on the 1432 relabelled census graphs, with the Class 1
    # facts read off the colorings each record already holds, is pinned byte
    # for byte.  CI checks the same digest through the entry point.
    with open(os.path.join(ROOT, "tests", "data", "relabelled_corpus.sha256")) as fh:
        expected = fh.read().split()[0]
    code, out = run_cli(["corpus", os.path.join(ROOT, "tests", "data", "relabelled.g6")])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected

def prism(n: int) -> MultiGraph:
    """C_n x K2: cubic, and bipartite for even n."""
    ring = [(i, (i + 1) % n) for i in range(n)]
    return MultiGraph.from_pairs(
        2 * n, ring + [(u + n, v + n) for u, v in ring] + [(i, i + n) for i in range(n)])


def test_chi_prime_has_no_cap_of_its_own(tmp_path):
    # The prism on 28 vertices has 42 edges, over the default cap of 30;
    # every χ′ search applies --max-edges and no cap of its own.
    path = write_graph(tmp_path, prism(14))
    code, out = run_cli(["corpus", "--max-edges", "50", path])
    assert code == 0
    record = json.loads(out)["records"][0]
    assert (record["m"], record["chi_prime"], record["s_check"]) == (42, 3, 1)
    assert "capped" not in record["checks"].values()
    assert run_cli(["cubic-classify", "--max-edges", "50", path]) == (0, '{"s_check": 1}\n')


def write_graph(tmp_path, graph, name="g.g6") -> str:
    path = tmp_path / name
    path.write_text(nx_line(graph) + "\n")
    return str(path)


@pytest.mark.parametrize(
    "graph,verifications,chi_searches",
    [(fam.complete_graph(4), 1, 1), (fam.petersen_graph(), 1, 1)],
    ids=["k4", "petersen"],
)
def test_corpus_record_verifies_each_certificate_once(
        monkeypatch, graph, verifications, chi_searches):
    # K4 (s = 1): thm-s3 verifies its one-part certificate; cor-regular3 has
    # none.  Petersen (s = 3): thm-s3 and cor-regular3 share one.  χ′ runs
    # once, on the whole graph in the palette search: classify_cubic takes
    # that χ′, and every part is proved Class 1 by the minimal coloring's
    # restriction to it.
    counts = {"verify": 0, "chi": 0}

    def counting(key, real):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return wrapper

    verify = counting("verify", decomposition.verify_decomposition_3)
    chi = counting("chi", coloring.chromatic_index)
    for module in (cli, decomposition):
        monkeypatch.setattr(module, "verify_decomposition_3", verify)
    for module in (cli, coloring, solver):
        monkeypatch.setattr(module, "chromatic_index", chi)
    task = (0, "g", graph.n, graph.edges, cli.CHECK_NAMES, solver.PALETTE_INDEX_EDGE_CAP)
    record = cli._corpus_record(task)
    assert set(record["checks"].values()) <= {"pass", "skip"}
    assert counts == {"verify": verifications, "chi": chi_searches}


def test_corpus_builds_each_certificate_once(monkeypatch):
    # 15 of the 16 connected 4-regular graphs on 9 vertices have s = 3: one
    # certificate each, shared by thm-s3 and cor-regular3.  The one with
    # s = 4 needs none: thm-s3 counts its coloring's palettes.
    counts = {}

    def counting(name):
        real = getattr(decomposition, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)
        return wrapper

    for name in ("extract_decomposition_3", "verify_decomposition_3", "synthesize_coloring_3"):
        wrapper = counting(name)
        for module in (cli, decomposition):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    assert run_cli(["corpus", QUARTIC9])[0] == 0
    assert counts == {"extract_decomposition_3": 15, "verify_decomposition_3": 15,
                      "synthesize_coloring_3": 15}


@pytest.mark.parametrize("checks", ["thm-s3", "cor-regular3", "cor-regular3,thm-s3"])
def test_certificate_checks_alone_match_the_full_run(checks):
    # Whichever of thm-s3 and cor-regular3 runs first builds the shared
    # certificate; each gives every record the outcome of the full run.
    full = json.loads(run_cli(["corpus", QUARTIC9])[1])["records"]
    code, out = run_cli(["corpus", "--checks", checks, QUARTIC9])
    assert code == 0
    names = checks.split(",")
    for alone, record in zip(json.loads(out)["records"], full, strict=True):
        assert alone["checks"] == {name: record["checks"][name] for name in names}


@pytest.mark.parametrize(
    "graph,check",
    [(fam.complete_graph(7), "thm-s3"), (fam.petersen_graph(), "cor-regular3")],
    ids=["k7", "petersen"],
)
def test_bad_certificate_falsifies_the_check(monkeypatch, capsys, tmp_path, graph, check):
    real = decomposition.extract_decomposition_3
    seen = []

    def tampered(col):
        dec = real(col)
        moved = min(dec.h2.members)
        dec = dec._replace(
            h2=EdgeSubset(col.graph, dec.h2.members - {moved}),
            h3=EdgeSubset(col.graph, dec.h3.members | {moved}),
        )
        seen.append(decomposition.decomposition3_to_json(dec))
        return dec

    monkeypatch.setattr(decomposition, "extract_decomposition_3", tampered)
    code, out = run_cli(["corpus", "--checks", check, write_graph(tmp_path, graph)])
    assert code == 2
    record = json.loads(out)["records"][0]
    assert record["checks"] == {check: "fail"}
    detail = record["counterexamples"][check]
    assert detail["certificate"] == seen[-1]
    failed = {name for name, _ in detail["clauses"]}
    assert failed and failed <= {"h2-regular", "h3-regular", "h2-class1", "h3-class1",
                                 "h2-vertices", "h3-vertices"}
    assert f"FALSIFIED {check} on graph 0" in capsys.readouterr().err


def test_certificate_without_the_corollary_shape_falsifies_cor_regular3(
        monkeypatch, capsys, tmp_path):
    # K4 claimed at s = 3: its one-part certificate (H0 = K4) passes every
    # verify clause, but it has no H1, H2, H3 and H0 is 3-regular.
    real = solver.palette_index

    def claims_three(graph, **kwargs):
        return real(graph, **kwargs)._replace(s_check=3)

    monkeypatch.setattr(cli, "palette_index", claims_three)
    code, out = run_cli(["corpus", "--checks", "cor-regular3",
                         write_graph(tmp_path, fam.complete_graph(4))])
    assert code == 2
    detail = json.loads(out)["records"][0]["counterexamples"]["cor-regular3"]
    assert detail["clauses"] == [
        ["three-parts", "H1, H2, H3 must all be present"],
        ["degree-parity", "k - r = 0 must be even and positive"],
    ]
    assert json.loads(detail["certificate"]) == {
        "H0": [0, 1, 2, 3, 4, 5], "H1": None, "H2": None, "H3": None,
        "A": [[0, 1, 2, 3], [], []], "shape": None,
    }
    assert "FALSIFIED cor-regular3 on graph 0" in capsys.readouterr().err


def test_palette_count_other_than_s_check_falsifies_the_converse_halves(
        monkeypatch, capsys, tmp_path):
    # K5 (s = 4) claimed at s = 5: outside their ranges thm-s2 and thm-s3
    # check that the record's coloring has s_check palettes; it has 4.
    real = solver.palette_index

    def claims_five(graph, **kwargs):
        return real(graph, **kwargs)._replace(s_check=5)

    monkeypatch.setattr(cli, "palette_index", claims_five)
    code, out = run_cli(["corpus", write_graph(tmp_path, fam.complete_graph(5))])
    assert code == 2
    record = json.loads(out)["records"][0]
    assert {name for name, outcome in record["checks"].items()
            if outcome == "fail"} == {"thm-s2", "thm-s3"}
    assert record["counterexamples"] == {
        "thm-s2": {"palettes": 4, "s_check": 5},
        "thm-s3": {"palettes": 4, "s_check": 5},
    }
    falsified = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("FALSIFIED")]
    assert falsified == [
        'FALSIFIED thm-s2 on graph 0 (D~{): {"palettes": 4, "s_check": 5}',
        'FALSIFIED thm-s3 on graph 0 (D~{): {"palettes": 4, "s_check": 5}',
    ]


def test_failed_synthesis_is_a_counterexample(monkeypatch, capsys, tmp_path):
    # A certificate whose synthesized coloring breaks thm-s3 (here one edge
    # gets a fresh color) fails the check with the synthesis's reason; the
    # report is still printed.
    real = decomposition._stack

    def fresh_color(graph, parts, witnesses):
        colors = dict(real(graph, parts, witnesses).colors)
        colors[min(colors)] = max(colors.values()) + 1
        return EdgeColoring(graph, colors)

    monkeypatch.setattr(decomposition, "_stack", fresh_color)
    code, out = run_cli(["corpus", "--checks", "thm-s3",
                         write_graph(tmp_path, fam.petersen_graph())])
    assert code == 2
    record = json.loads(out)["records"][0]
    assert record["checks"] == {"thm-s3": "fail"}
    assert record["counterexamples"] == {
        "thm-s3": {"reason": "synthesized coloring exceeds three palettes"}}
    assert "FALSIFIED thm-s3 on graph 0" in capsys.readouterr().err


PETERSEN_G6_CERTIFICATE = (
    '{"H0": [0, 5, 9, 10, 12], "H1": [11, 14], "H2": [2, 4, 6, 7], "H3": [1, 3, 8, 13], '
    '"A": [[0, 1, 2, 3, 4, 6], [8, 9], [5, 7]], "shape": "A1A2"}\n'
)


@pytest.mark.parametrize(
    "graph,target,expected",
    [
        (fam.petersen_graph(), 3, PETERSEN_G6_CERTIFICATE),
        (fam.path_graph(4), 2, '{"H0": [0, 2], "H1": [1]}\n'),
        (fam.path_graph(4), 3,
         '{"H0": [0, 2], "H1": [1], "H2": null, "H3": null, "A": [[0, 3], [1, 2], []], '
         '"shape": null}\n'),
    ],
    ids=["petersen-3", "path-2", "path-3"],
)
def test_decompose_prints_a_certificate_that_verifies(tmp_path, graph, target, expected):
    path = write_graph(tmp_path, graph)
    code, out = run_cli(["decompose", "--target", str(target), path])
    assert (code, out) == (0, expected)
    cert = tmp_path / "cert.json"
    cert.write_text(out)
    code, out = run_cli(["verify", path, "--certificate", str(cert)])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_decompose_target2_rejects_three_palettes(tmp_path, capsys):
    code, out = run_cli(["decompose", "--target", "2", write_graph(tmp_path, fam.petersen_graph())])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == "error: coloring induces 3 palettes, need 2\n"


def test_verify_prints_every_clause(tmp_path):
    cert = tmp_path / "cert.json"
    cert.write_text('{"H0": [0, 2], "H1": [1]}')
    path = write_graph(tmp_path, fam.path_graph(4))
    code, out = run_cli(["verify", path, "--certificate", str(cert)])
    assert code == 0
    assert out == (
        '{"clauses": [["delta-gap", true, "max degree exceeds min degree"], '
        '["parts-present", true, "at least one part is present"], '
        '["parts-nonempty", true, "every present part has an edge"], '
        '["edge-disjoint", true, "parts share no edge"], '
        '["edges-cover", true, "parts cover E(G)"], '
        '["h0-spanning", true, "H0 covers every vertex"], '
        '["h0-regular", true, "H0 is 1-regular"], ["h0-class1", true, "H0 is Class 1"], '
        '["h1-regular", true, "H1 is 1-regular"], ["h1-class1", true, "H1 is Class 1"]], '
        '"ok": true}\n'
    )


def test_verify_rejects_tampered_and_malformed_certificates(tmp_path):
    path = write_graph(tmp_path, fam.petersen_graph())
    cert = json.loads(PETERSEN_G6_CERTIFICATE)
    cert["H2"].remove(2)
    cert["H3"].append(2)
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(cert))
    code, out = run_cli(["verify", path, "--certificate", str(cert_file)])
    assert code == 2
    report = json.loads(out)
    assert report["ok"] is False
    assert [name for name, passed, _ in report["clauses"] if not passed] == [
        "h3-regular", "h3-class1", "h2-vertices", "h3-vertices"]
    for text, reason in [
        ('{"A": [[0]], "H0": null}', '"A" must be a list of three vertex lists'),
        ('{"A": [[[0]], [], []]}', '"A" must be a list of three vertex lists'),
        ("not json", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    ]:
        cert_file.write_text(text)
        code, out = run_cli(["verify", path, "--certificate", str(cert_file)])
        assert code == 2
        assert json.loads(out) == {"ok": False, "clauses": [["certificate-malformed", False, reason]]}


@pytest.mark.parametrize(
    "argv,expected",
    [
        ([], '{"vertices": [[1], [1, 2]], "hyperedges": [[0, 1], [1]]}\n'),
        (["--render"], '{"vertices": [[1], [1, 2]], "hyperedges": [[0, 1], [1]]}\n'
                       "vertices: {1}, {1,2}\nh1: {1} -- {1,2}\nh2: loop at {1,2}\n"),
    ],
    ids=["json", "render"],
)
def test_hypergraph_subcommand(tmp_path, argv, expected):
    code, out = run_cli(["hypergraph", *argv, write_graph(tmp_path, fam.path_graph(4))])
    assert (code, out) == (0, expected)


@pytest.mark.parametrize(
    "graph,s_check",
    [(fam.complete_graph(4), 1), (fam.petersen_graph(), 3), (fam.no_perfect_matching_cubic(), 4)],
    ids=["k4", "petersen", "no-perfect-matching"],
)
def test_cubic_classify_subcommand(tmp_path, graph, s_check):
    code, out = run_cli(["cubic-classify", write_graph(tmp_path, graph)])
    assert (code, json.loads(out)) == (0, {"s_check": s_check})


def test_cubic_classify_rejects_a_noncubic_graph(tmp_path, capsys):
    code, out = run_cli(["cubic-classify", write_graph(tmp_path, fam.cycle_graph(5))])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == "error: classify_cubic requires a 3-regular graph\n"


@pytest.mark.parametrize(
    "argv",
    [["cubic-classify"], ["verify", "--certificate", "unread.json"]],
    ids=["cubic-classify", "verify"],
)
def test_single_graph_commands_apply_the_edge_cap(tmp_path, capsys, argv):
    # K4 has 6 edges; the cap is checked before any certificate is read.
    path = write_graph(tmp_path, fam.complete_graph(4))
    code, out = run_cli([argv[0], "--max-edges", "1", path, *argv[1:]])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == "error: edge count is 6, which exceeds the cap of 1\n"
