"""One fresh CLI process of the benchmark.

    python3 bench/child.py OUTDIR T_SPAWN MODE -- CLI ARGS...

MODE is ``setup`` (import ``palette_kit.cli``, parse the workload file, exit),
``time`` (run ``cli_main`` and time each corpus record or Fig. 4 candidate)
or ``trace`` (run ``cli_main`` under the span tracer).  T_SPAWN is the
``time.monotonic`` reading the parent took just before starting this
process; the clock is system-wide, so set-up time counts interpreter start.
The report goes to stdout; timings go to OUTDIR/child.json.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")


class Timer:
    """Record timing without tracing: one monotonic stamp per call of a
    single per-graph function, appended to a per-process file so that
    pool workers report too."""

    def __init__(self, outdir: str):
        self.outdir = outdir
        self.sink = None
        self.pid = None

    def _write(self, text: str) -> None:
        if self.pid != os.getpid():
            self.pid = os.getpid()
            self.sink = open(os.path.join(self.outdir, f"times-{self.pid}.txt"), "a")
        self.sink.write(text)
        self.sink.flush()

    def duration(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.monotonic()
            result = fn(*args, **kwargs)
            self._write(f"d {time.monotonic() - start!r}\n")
            return result

        return timed

    def stamp(self, fn):
        @functools.wraps(fn)
        def stamped(*args, **kwargs):
            self._write(f"s {time.monotonic()!r}\n")
            return fn(*args, **kwargs)

        return stamped


def main() -> int:
    outdir, t_spawn, mode = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    argv = sys.argv[sys.argv.index("--") + 1:]
    sys.path.insert(0, SRC)
    import palette_kit.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"palette_kit was imported from {cli.__file__}, not {SRC}\n")
        return 3
    result = {"missing": []}
    if mode == "trace":
        import spans

        tracer = spans.Tracer(outdir)
        tracer.install()
        result["missing"] = tracer.missing
    elif mode == "time":
        timer = Timer(outdir)
        if argv[0] == "corpus" and hasattr(cli, "_corpus_record"):
            cli._corpus_record = timer.duration(cli._corpus_record)
        elif argv[0] == "fig4-witness" and hasattr(cli, "is_regular"):
            # Each Fig. 4 candidate starts with the 4-regularity test.
            cli.is_regular = timer.stamp(cli.is_regular)

    ready = []
    read = cli.read_graph_file

    def read_and_mark(path):
        graphs = read(path)
        if not ready:
            ready.append(time.monotonic())
        return graphs

    if mode == "setup":
        read_and_mark(argv[-1])
        code = 0
    else:
        cli.read_graph_file = read_and_mark
        code = cli.cli_main(argv)
        sys.stdout.flush()
    result["exit_code"] = code
    result["pid"] = os.getpid()
    result["ready"] = ready[0] - t_spawn if ready else None
    result["peak_rss_kb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    with open(os.path.join(outdir, "child.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
