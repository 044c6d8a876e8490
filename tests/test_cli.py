from __future__ import annotations

import io
import json
import os
import subprocess
import sys

import pytest

from palette_kit import cli, decomposition, solver
from palette_kit import families as fam
from palette_kit.formats import encode_graph6, encode_sparse6
from palette_kit.multigraph import MultiGraph

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

MIXED = [
    encode_graph6(fam.path_graph(4)),
    encode_graph6(fam.petersen_graph()),
    encode_graph6(fam.complete_graph(4)),
    encode_graph6(fam.cycle_graph(5)),
    encode_graph6(fam.star(3)),
    encode_sparse6(fam.complete_bipartite(2, 3)),
]


# K5 and the six connected 4-regular graphs on 8 vertices.
QUARTIC = [
    encode_graph6(fam.complete_graph(5)),
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

    for module in (cli, solver, decomposition):
        monkeypatch.setattr(module, "palette_index", counting)
    task = (0, "g", graph.n, graph.edges, cli.CHECK_NAMES, solver.PALETTE_INDEX_EDGE_CAP)
    record = cli._corpus_record(task)
    assert set(record["checks"].values()) <= {"pass", "skip"}
    assert len(calls) == 1
    # The check really needed the palette index, which it used to re-solve.
    applies = {
        "thm-lower": lambda: solver.check_lower_bound_theorem(graph).applicable,
        "cor-regular3": lambda: decomposition.regular_corollary_check(graph)[0],
    }
    assert applies[check]()


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


def test_fig4_witness_reports_no_witness(quartic_file):
    code, out = run_cli(["fig4-witness", quartic_file])
    assert code == 0
    assert out == '{"found": false, "searched": 7, "vertex_counts": [5, 8]}\n'


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
    "argv,env",
    [
        (["corpus", "--jobs", "0"], None),
        (["corpus", "--jobs", "-3"], None),
        (["corpus", "--max-edges", "-5"], None),
        (["palette-index", "--max-edges", "-1"], None),
        (["palette-index"], "-2"),
        (["palette-index"], "many"),
    ],
)
def test_invalid_caps_and_jobs_are_rejected(monkeypatch, capsys, mixed_file, argv, env):
    if env is not None:
        monkeypatch.setenv(cli.ENV_MAX_EDGES, env)
    code, out = run_cli(argv + [mixed_file])
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err.startswith("input error:")


def test_chromatic_index_uses_the_given_cap(tmp_path, capsys):
    path = tmp_path / "k4.g6"
    path.write_text(encode_graph6(fam.complete_graph(4)) + "\n")
    code, _ = run_cli(["chromatic-index", "--max-edges", "1", str(path)])
    assert code == 1
    assert "exceeds" in capsys.readouterr().err
    code, out = run_cli(["chromatic-index", "--max-edges", "6", str(path)])
    assert code == 0
    assert json.loads(out)["chi_prime"] == 3
