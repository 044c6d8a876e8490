"""Fast checks of the benchmark itself, on tiny slices of its workloads."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads as wl

with open(os.path.join(wl.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """A few atlas graphs that the reference covers, 20 Fig. 4 candidates."""
    monkeypatch.setattr(wl, "ATLAS_STEP", 20 * wl.ATLAS_STEP)
    monkeypatch.setattr(wl, "FIG4_DRAW", 20)
    monkeypatch.setattr(run, "SETUP_SPAWNS", 1)
    monkeypatch.setattr(run, "SCRATCH", str(tmp_path))


def test_metric_names_match_benchmark_json():
    assert list(run.WORKLOADS) == [w["name"] for w in BENCHMARK["workloads"]]
    assert run.END_TO_END == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert run.PER_LAYER == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


@pytest.mark.parametrize("workload", ["atlas", "fig4"])
def test_tiny_run_end_to_end(tiny, workload):
    result = run.run(workload, seed=3, seconds=0.1, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (len(wl.atlas_slice()) if workload == "atlas" else 20)
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_reports_every_layer_metric(tiny):
    result = run.run("atlas", seed=3, seconds=0.1, trace=True)
    assert result["correct"]
    assert set(result["metrics"]) == set(run.PER_LAYER)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["solver.witness_calls"] > 0
    assert values["solver.infeasible_t_s"] > 0
    assert values["cli.dispatch_busy_share"] > 0


def test_reports_are_byte_identical_across_jobs(tiny, tmp_path):
    workload = run.Workload("atlas-jobs2", 5, str(tmp_path))
    items, path = workload.write_input(0)
    one = run.Invocation(str(tmp_path), "time", ["corpus", "--jobs", "1", path])
    two = run.Invocation(str(tmp_path), "time", workload.cli_args(path))
    assert one.ok and two.ok
    assert one.stdout == two.stdout == wl.expected_corpus_report(items, workload.reference)
    assert len(two.record_seconds("corpus")) == len(items)


def test_corrupted_reference_row_counts_as_failed(tiny, monkeypatch):
    reference = wl.load_reference()
    key = wl.atlas_slice()[2][0]
    reference[key] = dict(reference[key], s_check=reference[key]["s_check"] + 1)
    monkeypatch.setattr(wl, "load_reference", lambda: reference)
    result = run.run("atlas", seed=3, seconds=0.1, trace=False)
    assert not result["correct"]
    assert result["failed"] > 0


def test_planted_fig4_witness_counts_as_failed(tiny, monkeypatch, tmp_path):
    workload = run.Workload("fig4", 3, str(tmp_path))
    rank = workload.items(0)[4][0]
    planted = dict(workload.reference, witnesses={str(rank): {"perfect_matchings": 9}})
    monkeypatch.setattr(wl, "load_fig4_reference", lambda: planted)
    result = run.run("fig4", seed=3, seconds=0.1, trace=False)
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_census_miscount_is_refused(monkeypatch):
    monkeypatch.setitem(wl.CENSUS_SIZES, "cubic10", {10: 20})
    with pytest.raises(wl.FixtureError):
        wl.load_census("cubic10")


def test_fig4_pool_unranks_perfect_matchings_of_the_complement():
    pool = wl.Fig4Pool()
    base = set(pool.base)
    seen = set()
    for rank in (0, 1, 12345, pool.size - 1):
        matching = pool.matching(rank)
        assert sorted(v for pair in matching for v in pair) == list(range(pool.n))
        assert not base & {(min(u, v), max(u, v)) for u, v in matching}
        seen.add(tuple(matching))
    assert len(seen) == 4


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(wl.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(wl.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "atlas",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
