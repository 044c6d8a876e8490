"""In-memory spans around calls into ``palette_kit``, installed from outside.

The tracer replaces module attributes with wrappers; ``src/`` is not edited.
A span is ``[id, parent, name, start, end, extra]`` with times from
``time.monotonic``.  Spans stay in memory and are appended to
``spans-<pid>.jsonl`` whenever the outermost open span of a process closes,
so worker processes of ``corpus --jobs N`` write theirs once per record.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

# (module, attribute, span name).  Every binding of the same function in any
# palette_kit module is replaced, so calls through re-exports are traced too.
TARGETS = (
    ("palette_kit.cli", "cli_main", "cli.main"),
    ("palette_kit.cli", "cmd_corpus", "cli.corpus"),
    ("palette_kit.cli", "cmd_fig4_witness", "cli.fig4"),
    ("palette_kit.cli", "_corpus_record", "cli.record"),
    ("palette_kit.cli", "_all_perfect_matchings", "cli.pm_enumeration"),
    ("palette_kit.cli", "_emit", "cli.report"),
    ("palette_kit.formats", "read_graph_file", "formats.read"),
    ("palette_kit.solver", "palette_index", "solver.palette_index"),
    ("palette_kit.solver", "_search", "solver.search"),
    ("palette_kit.solver", "check_lower_bound_theorem", "solver.lower_bound"),
    ("palette_kit.coloring", "chromatic_index", "coloring.chromatic_index"),
    ("palette_kit.multigraph", "has_perfect_matching", "multigraph.perfect_matching"),
    ("palette_kit.multigraph", "has_spanning_even_subgraph_no_isolated", "multigraph.even_subgraph"),
    ("palette_kit.multigraph", "is_regular", "multigraph.structure"),
    ("palette_kit.multigraph", "is_connected", "multigraph.structure"),
    ("palette_kit.multigraph", "degree_profile", "multigraph.structure"),
    ("palette_kit.multigraph", "induced_edge_subgraph", "multigraph.structure"),
    ("palette_kit.decomposition", "extract_decomposition_2", "decomposition.extract"),
    ("palette_kit.decomposition", "extract_decomposition_3", "decomposition.extract"),
    ("palette_kit.decomposition", "verify_decomposition_2", "decomposition.verify"),
    ("palette_kit.decomposition", "verify_decomposition_3", "decomposition.verify"),
    ("palette_kit.decomposition", "synthesize_coloring_2", "decomposition.synthesize"),
    ("palette_kit.decomposition", "synthesize_coloring_3", "decomposition.synthesize"),
    ("palette_kit.decomposition", "regular_corollary_check", "decomposition.regular_corollary"),
    ("palette_kit.decomposition", "classify_cubic", "decomposition.classify_cubic"),
)


class _JsonWithTracedDumps:
    """Stands in for the ``json`` module inside ``palette_kit.cli`` so that
    serialising the report counts as report time."""

    def __init__(self, real, dumps):
        self._real = real
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self, outdir: str):
        self.outdir = outdir
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.next_id = 0
        self.missing: list[str] = []

    def _enter(self, name: str) -> tuple[list, int]:
        if os.getpid() != self.pid:
            # A forked worker inherits its parent's open spans; start clean.
            self.pid = os.getpid()
            self.spans, self.stack = [], []
        parent = self.stack[-1][0] if self.stack else -1
        rec = [self.next_id, parent, name, time.monotonic(), 0.0, None]
        self.next_id += 1
        pos = len(self.spans)
        self.spans.append(rec)
        self.stack.append(rec)
        return rec, pos

    def _exit(self, rec: list, end: float) -> None:
        rec[4] = end
        self.stack.pop()
        if not self.stack:
            self.flush()

    def flush(self) -> None:
        path = os.path.join(self.outdir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
        self.spans = []

    def wrap(self, name: str, fn, on_exit=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec, pos = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(rec, time.monotonic())
                raise
            end = time.monotonic()
            if on_exit is not None:
                on_exit(rec, pos, args, result)
            tracer._exit(rec, end)
            return result

        return traced

    # -- classification of solver searches -------------------------------

    @staticmethod
    def _search_exit(rec, pos, args, result):
        rec[5] = [args[1] if len(args) > 1 else None, result is None]

    def _palette_index_exit(self, rec, pos, args, result):
        """Name each child search by its role in the enclosing solve: t below
        the final palette count, a failed k at the winning t, the first
        success there, and the id-order witness search after it."""
        s = getattr(result, "s_check", None)
        found = 0
        for child in self.spans[pos + 1:]:
            if child[1] != rec[0] or child[2] != "solver.search" or child[5] is None:
                continue
            t, failed = child[5]
            if s is None or t is None or t < s:
                child[2] = "solver.infeasible_t"
            elif failed:
                child[2] = "solver.k_ascent"
            else:
                child[2] = "solver.feasible" if found == 0 else "solver.witness"
                found += 1

    @staticmethod
    def _pm_exit(rec, pos, args, result):
        rec[5] = len(result)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.startswith("palette_kit")]
        hooks = {
            "solver.search": self._search_exit,
            "solver.palette_index": self._palette_index_exit,
            "cli.pm_enumeration": self._pm_exit,
        }
        for modname, attr, name in TARGETS:
            fn = getattr(sys.modules.get(modname), attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapped = self.wrap(name, fn, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
        cli = sys.modules["palette_kit.cli"]
        checks = getattr(cli, "CHECKS", None)
        if isinstance(checks, dict):
            for check, fn in checks.items():
                checks[check] = self.wrap(f"cli.check.{check}", fn)
        else:
            self.missing.append("palette_kit.cli.CHECKS")
        if hasattr(cli, "json"):
            cli.json = _JsonWithTracedDumps(cli.json, self.wrap("cli.report", cli.json.dumps))


def load_spans(outdir: str) -> dict[str, list[list]]:
    """Spans of every process that wrote any, keyed by file name."""
    out = {}
    for fname in sorted(os.listdir(outdir)):
        if fname.startswith("spans-"):
            with open(os.path.join(outdir, fname), encoding="utf-8") as fh:
                out[fname] = [json.loads(line) for line in fh]
    return out


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per span name, each span minus the time its children cover."""
    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, name, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for sid, parent, name, start, end, _ in spans:
        out[name] += end - start - child_time[sid]
    return out
