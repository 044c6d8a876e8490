"""Benchmark of the palette-kit CLI on committed census inputs.

    python3 bench/run.py --workload atlas --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 28 --trace 0

Each CLI invocation is a fresh process (bench/child.py) that calls
``palette_kit.cli.cli_main`` on a graph6 file generated from the seed: every
graph is relabelled by a seeded permutation, and invocation k of a run uses
its own permutations, so the medians below cover several labellings.  Every
report is checked against bench/fixtures (see workloads.py).

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it runs each labelling once untraced and once under the span tracer
(spans.py) and prints the per-layer split.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import spans
import workloads as wl

CHILD = os.path.join(wl.BENCH_DIR, "child.py")
SCRATCH = os.path.join(wl.ROOT, ".bench_tmp")
SETUP_SPAWNS = 3
# A run must end within 180 s; a child still running at this point is killed
# and all its records count as failed.
RUN_LIMIT_S = 165

WORKLOADS = {
    "atlas": ("corpus", 1),
    "regular": ("corpus", 1),
    "fig4": ("fig4", 1),
    "atlas-jobs2": ("corpus", 2),
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "record_p50_ms": "ms",
    "record_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

SELF_TIME_SPANS = (
    "solver.infeasible_t",
    "solver.k_ascent",
    "solver.feasible",
    "solver.witness",
    "solver.palette_index",
    "solver.lower_bound",
    "coloring.chromatic_index",
    "multigraph.perfect_matching",
    "multigraph.even_subgraph",
    "multigraph.structure",
    "decomposition.extract",
    "decomposition.verify",
    "decomposition.synthesize",
    "decomposition.regular_corollary",
    "decomposition.classify_cubic",
    "formats.read",
    *(f"cli.check.{name}" for name in wl.CHECK_NAMES),
    "cli.pm_enumeration",
    "cli.report",
    "cli.record",
)
CALL_COUNT_SPANS = (
    "solver.infeasible_t",
    "solver.k_ascent",
    "solver.feasible",
    "solver.witness",
    "coloring.chromatic_index",
    "multigraph.perfect_matching",
    "multigraph.even_subgraph",
)
# Self time of the command itself, outside every named span: argument
# parsing, tallies, the Fig. 4 loop body, and waiting on pool workers.
COMMAND_SPANS = ("cli.main", "cli.corpus", "cli.fig4")

PER_LAYER = {
    **{f"{name}_s": "s" for name in SELF_TIME_SPANS},
    **{f"{name}_calls": "count" for name in CALL_COUNT_SPANS},
    "solver.palette_index_calls_per_record": "calls/record",
    "cli.pm_enumerated": "count",
    "cli.other_s": "s",
    "cli.dispatch_busy_share": "ratio",
    "trace.wall_s": "s",
    "trace.setup_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

# Metrics that exist only while the program has the function they observe.
REQUIRES = {
    **{f"solver.{kind}_{unit}": "palette_kit.solver._search"
       for kind in ("infeasible_t", "k_ascent", "feasible", "witness") for unit in ("s", "calls")},
    "solver.palette_index_s": "palette_kit.solver.palette_index",
    "solver.palette_index_calls_per_record": "palette_kit.solver.palette_index",
    "cli.pm_enumeration_s": "palette_kit.cli._all_perfect_matchings",
    "cli.pm_enumerated": "palette_kit.cli._all_perfect_matchings",
}


class Workload:
    """Inputs and expected outputs of one workload for one seed."""

    def __init__(self, name: str, seed: int, tmp: str):
        self.name = name
        self.seed = seed
        self.tmp = tmp
        self.kind, self.jobs = WORKLOADS[name]
        if self.kind == "corpus":
            self.graphs = wl.atlas_slice() if name.startswith("atlas") else wl.regular_set()
            self.reference = wl.load_reference()
            missing = [key for key, _, _ in self.graphs if key not in self.reference]
            if missing:
                raise wl.FixtureError(f"reference.json lacks {missing[:3]}...")
        else:
            self.pool = wl.Fig4Pool()
            self.reference = wl.load_fig4_reference()
            if self.reference["pool_size"] != self.pool.size:
                raise wl.FixtureError("fig4_reference.json was made for another pool")
            self.fragile = {int(r) for r in self.reference["fragile"]}

    def items(self, k: int) -> list:
        rng = wl.invocation_rng(self.name, self.seed, k)
        if self.kind == "corpus":
            return wl.corpus_input(self.graphs, rng)
        return wl.fig4_input(self.pool, rng, self.fragile)

    def write_input(self, k: int) -> tuple[list, str]:
        items = self.items(k)
        path = os.path.join(self.tmp, f"input-{k}.g6")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("".join(text + "\n" for _, text in items))
        return items, path

    def cli_args(self, path: str) -> list[str]:
        if self.kind == "corpus":
            return ["corpus", "--jobs", str(self.jobs), path]
        return ["fig4-witness", path]

    def failed(self, stdout: str, exit_code: int, items: list) -> int:
        if self.kind == "corpus":
            return wl.failed_corpus_records(stdout, exit_code, items, self.reference)
        return 0 if wl.fig4_ok(stdout, exit_code, items, self.reference) else len(items)


class Invocation:
    """One finished child process: wall time, report and child-side timings."""

    def __init__(self, tmp: str, mode: str, args: list[str], timeout: float = RUN_LIMIT_S):
        self.outdir = tempfile.mkdtemp(dir=tmp)
        env = dict(os.environ)
        env.pop("PALETTE_KIT_MAX_EDGES", None)
        stdout_path = os.path.join(self.outdir, "stdout")
        with open(stdout_path, "w") as out, open(os.path.join(self.outdir, "stderr"), "w") as err:
            start = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, CHILD, self.outdir, repr(start), mode, "--", *args],
                stdout=out, stderr=err, cwd=wl.ROOT, env=env,
            )
            # Popen.wait(timeout) polls in steps of up to 50 ms, which would
            # round every wall time; a timer thread enforces the limit instead.
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                proc.wait()
            finally:
                watchdog.cancel()
            self.wall = time.monotonic() - start
        with open(stdout_path, encoding="utf-8", errors="replace") as fh:
            self.stdout = fh.read()
        try:
            with open(os.path.join(self.outdir, "child.json"), encoding="utf-8") as fh:
                self.child = json.load(fh)
        except (OSError, ValueError):
            self.child = {}
        self.exit_code = self.child.get("exit_code", proc.returncode or -1)

    @property
    def ok(self) -> bool:
        return bool(self.child) and self.exit_code == 0

    def timing_lines(self, tag: str) -> list[float]:
        out = []
        for fname in os.listdir(self.outdir):
            if fname.startswith("times-"):
                with open(os.path.join(self.outdir, fname), encoding="ascii") as fh:
                    out.extend(float(line[2:]) for line in fh if line.startswith(tag))
        return out

    def record_seconds(self, kind: str) -> list[float]:
        if kind == "corpus":
            return self.timing_lines("d ")
        stamps = sorted(self.timing_lines("s "))
        return [b - a for a, b in zip(stamps, stamps[1:])]


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, q in 1..99, by the inclusive quantile method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(workload: Workload, inv: Invocation, n_items: int) -> dict[str, float | None]:
    by_file = spans.load_spans(inv.outdir)
    main_file = f"spans-{inv.child.get('pid')}.jsonl"
    selfs: dict[str, float] = {}
    calls: dict[str, int] = {}
    durations: dict[str, float] = {}
    main_selfs = spans.self_times(by_file.get(main_file, []))
    for recs in by_file.values():
        for name, secs in spans.self_times(recs).items():
            selfs[name] = selfs.get(name, 0.0) + secs
        for rec in recs:
            calls[rec[2]] = calls.get(rec[2], 0) + 1
            durations[rec[2]] = durations.get(rec[2], 0.0) + rec[4] - rec[3]
    out: dict[str, float | None] = {f"{n}_s": selfs.get(n, 0.0) for n in SELF_TIME_SPANS}
    out.update({f"{n}_calls": calls.get(n, 0) for n in CALL_COUNT_SPANS})
    out["solver.palette_index_calls_per_record"] = calls.get("solver.palette_index", 0) / n_items
    out["cli.pm_enumerated"] = sum(
        rec[5] for recs in by_file.values() for rec in recs if rec[2] == "cli.pm_enumeration"
    )
    out["cli.other_s"] = sum(selfs.get(n, 0.0) for n in COMMAND_SPANS)
    corpus_s = durations.get("cli.corpus", 0.0)
    out["cli.dispatch_busy_share"] = (
        durations.get("cli.record", 0.0) / (workload.jobs * corpus_s) if corpus_s else 0.0
    )
    setup = inv.child.get("ready") or 0.0
    out["trace.wall_s"] = inv.wall
    out["trace.setup_s"] = setup
    in_command = sum(main_selfs.values()) - main_selfs.get("formats.read", 0.0)
    out["trace.unattributed_s"] = inv.wall - setup - in_command
    for metric, target in REQUIRES.items():
        if target in inv.child.get("missing", []):
            out[metric] = None
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(SCRATCH, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=SCRATCH)
    try:
        return _run(Workload(workload_name, seed, tmp), seconds, trace)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(workload: Workload, seconds: float, trace: bool) -> dict:
    start = time.monotonic()

    def time_left() -> float:
        return max(1.0, start + RUN_LIMIT_S - time.monotonic())

    attempted = failed = 0
    setups: list[float] = []
    walls: list[float] = []
    rss: list[float] = []
    records: list[float] = []
    layers: list[dict] = []
    overheads: list[float] = []

    if not trace:
        _, path = workload.write_input(0)
        for _ in range(SETUP_SPAWNS):
            inv = Invocation(workload.tmp, "setup", workload.cli_args(path), time_left())
            if inv.ok and inv.child.get("ready"):
                setups.append(inv.child["ready"])
    k = 0
    loop_start = time.monotonic()
    while True:
        now = time.monotonic()
        # Start another labelling only if it is expected to end in time.
        if k and now - start + (now - loop_start) / k > seconds:
            break
        items, path = workload.write_input(k)
        plain = Invocation(workload.tmp, "time", workload.cli_args(path), time_left())
        bad = workload.failed(plain.stdout, plain.exit_code, items) if plain.ok else len(items)
        attempted += len(items)
        failed += bad
        walls.append(plain.wall)
        if plain.child.get("ready"):
            setups.append(plain.child["ready"])
        rss.append(plain.child.get("peak_rss_kb", 0) / 1024)
        records.extend(plain.record_seconds(workload.kind))
        if trace:
            traced = Invocation(workload.tmp, "trace", workload.cli_args(path), time_left())
            bad = workload.failed(traced.stdout, traced.exit_code, items) if traced.ok else len(items)
            attempted += len(items)
            failed += bad
            if traced.ok:
                layers.append(layer_metrics(workload, traced, len(items)))
                overheads.append(traced.wall - plain.wall)
        k += 1

    if trace:
        metrics = {}
        for name in PER_LAYER:
            values = [m[name] for m in layers if m.get(name) is not None]
            metrics[name] = statistics.median(values) if values else None
        metrics["trace.overhead_s"] = statistics.median(overheads) if overheads else None
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups) if setups else None,
            "record_p50_ms": 1000 * statistics.median(records) if records else None,
            "record_p90_ms": 1000 * percentile(records, 90) if records else None,
            "peak_rss_mb": statistics.median(rss),
        }
        units = END_TO_END
    missing_required = [n for n in END_TO_END if not trace and metrics[n] is None]
    correct = failed == 0 and not missing_required
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
        "labellings": k,
        "record_samples": len(records),
        "samples": {"wall_s": walls, "setup_s": setups},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="palette-kit CLI benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(wl.ROOT, "src", "palette_kit", "cli.py")):
        sys.stderr.write(f"no palette_kit sources under {wl.ROOT}/src\n")
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct = True
    for name in names:
        try:
            result = run(name, args.seed, args.seconds, bool(args.trace))
        except wl.FixtureError as exc:
            sys.stderr.write(f"{name}: {exc}\n")
            return 2
        all_correct &= result["correct"]
        share = result["failed"] / result["attempted"]
        print(f"# {name}: seed {args.seed}, {result.pop('labellings')} labellings, "
              f"{result.pop('record_samples')} record samples, "
              f"failed_share {result['failed']}/{result['attempted']} = {share:.4f}")
        for metric, values in result.pop("samples").items():
            print(f"#   {metric} samples: {' '.join(f'{v:.4f}' for v in values)}")
        for metric, entry in result["metrics"].items():
            print(f"#   {metric} = {entry['value']} {entry['unit']}")
        print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
