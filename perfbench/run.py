"""Benchmark of the delexparse CLI: one workload per run, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload train_short --seed 1 --seconds 20 --trace 0

The run generates the workload's inputs from ``--seed`` (five times, each
after timing the imports in a fresh interpreter, to time set-up), then
repeats the workload's CLI commands in process through
``delexparse.cli.main`` until ``--seconds`` are used, checking every
output.  Human-readable lines (host facts, every metric with its unit)
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
iterations alternate between untraced and traced (layer functions wrapped
by ``tracing.Tracer``), the metrics are the per-layer ones averaged over
the traced iterations, and one last iteration under ``tracemalloc`` gives
the traced peak memory.  Spans are written to ``.perfbench_work``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

# One BLAS thread: the CLI runs one command at a time, and on a small shared
# host more threads mostly add run-to-run spread.  Set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(BLAS_THREADS, os.cpu_count() or 1))

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
MIN_ITERATIONS = 3

# metrics a traced run adds to the tracer's per-layer ones
TRACE_METRICS = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
                 "trace.tracemalloc_peak_mb", "check.f1", "check.fail_share")
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "sents_per_s": "1/s", "tokens_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def metric_units(names) -> dict[str, str]:
    """Units of the metrics, by name."""
    units = {}
    for name in names:
        if name in END_TO_END:
            units[name] = END_TO_END[name]
        elif name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_share"):
            units[name] = "ratio"
        elif name.endswith("_mb"):
            units[name] = "MB"
        elif name == "check.f1":
            units[name] = "%"
        elif name == "model.score_cells":
            units[name] = "cells-computed"
        elif name == "model.score_bytes":
            units[name] = "bytes-computed"
        elif name == "treebank.bytes":
            units[name] = "bytes"
        else:
            units[name] = "count"
    return units


def host_facts() -> dict:
    """Facts that make numbers from different hosts comparable."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libraries = sorted({line.split()[-1] for line in fh if "blas" in line.lower()
                            and line.split()[-1].startswith("/")})
    for library in libraries:
        lib = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


class Runner:
    """Runs one workload's commands and checks their outputs."""

    def __init__(self, commands):
        self.commands = commands
        self.attempted = 0
        self.failed = 0
        self.f1 = None
        self.problems: list[str] = []
        self.walls: list[float] = []
        self._verified: dict[int, tuple[str, int]] = {}  # command -> (digest, failed)

    def iteration(self, cli) -> list[tuple[int, str]]:
        """Run every command once; return (exit code, stdout) per command.

        ``self.walls`` gets the summed wall time of the commands."""
        results, wall = [], 0.0
        for command in self.commands:
            out = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.main(command.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash fails the command's sentences, not the run
                code = -1
                self.problems.append(traceback.format_exc(limit=3))
            wall += time.perf_counter() - start
            results.append((code, out.getvalue()))
        self.walls.append(wall)
        return results

    def check(self, results: list[tuple[int, str]]) -> None:
        """Count the sentences of one iteration's commands that failed."""
        for index, (command, (code, stdout)) in enumerate(zip(self.commands, results)):
            self._check(index, command, code, stdout)

    def _check(self, index, command, code, stdout) -> None:
        self.attempted += command.sentences
        if code != 0:
            self.failed += command.sentences
            self.problems.append(f"{command.argv[0]} exited with {code}")
            return
        digest = _digest(command.outputs)
        if index in self._verified and self._verified[index][0] == digest:
            self.failed += self._verified[index][1]
            return
        try:
            outcome = command.check(stdout)
        except Exception as exc:  # a check that cannot read the output fails it
            self.failed += command.sentences
            self.problems.append(f"{command.argv[0]} check raised {exc!r}")
            return
        failed = min(outcome.failed, command.sentences)
        self.failed += failed
        self.problems += [f"{command.argv[0]}: {p}" for p in outcome.problems[:10]]
        if outcome.f1 is not None:
            self.f1 = outcome.f1
        self._verified[index] = (digest, failed)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "delexparse" / "__init__.py").is_file():
        print(f"error: no delexparse source under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    from delexparse import cli

    if Path(cli.__file__).resolve().parent.parent != SOURCE:
        print(f"error: delexparse imported from {cli.__file__}, not {SOURCE}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log_stream = open(work / "cli.log", "w", encoding="utf-8")
    try:
        # the CLI's own logging.basicConfig becomes a no-op; its log lines
        # cost the same but go to a file instead of the terminal
        logging.basicConfig(level=logging.INFO, stream=log_stream,
                            format="%(levelname)s %(name)s: %(message)s")
        result = measure(args, workload, work, cli)
    finally:
        logging.getLogger().handlers.clear()
        log_stream.close()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the CLI, numpy and the
    workload generators, timed inside that interpreter."""
    code = ("import time; start = time.perf_counter(); import sys; "
            f"sys.path[:0] = [{str(SOURCE)!r}, {str(Path(__file__).parent)!r}]; "
            "import delexparse.cli, workloads; print(time.perf_counter() - start)")
    done = subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                          capture_output=True, text=True)
    return float(done.stdout)


def measure(args, workload, work: Path, cli) -> dict:
    # set-up = the imports of a fresh interpreter, plus generating and writing
    # the inputs (and the parse_long checkpoint); median of repeats
    setups = []
    for _ in range(SETUP_REPEATS):
        imports = import_seconds()
        start = time.perf_counter()
        commands = workload.prepare(args.seed, work)
        setups.append(imports + time.perf_counter() - start)
    runner = Runner(commands)
    facts = host_facts()
    print("host " + json.dumps(facts, sort_keys=True))

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    # A traced run warms up with one untraced iteration, then alternates
    # traced and untraced ones; the warm-up is left out of the overhead.
    minimum = 5 if tracer else MIN_ITERATIONS
    modes: list[bool] = []  # traced or not, per iteration
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(modes) % 2 == 1
        if traced:
            tracer.install()
        try:
            results = runner.iteration(cli)
        finally:
            if traced:
                tracer.uninstall()
        runner.check(results)
        modes.append(traced)
        elapsed = time.perf_counter() - started
        if len(modes) >= minimum and elapsed + elapsed / len(modes) > args.seconds:
            break
    walls = list(zip(modes, runner.walls))

    sentences = sum(c.sentences for c in commands)
    tokens = sum(c.tokens for c in commands)
    untraced = [wall for traced, wall in walls if not traced]
    if tracer is None:
        wall = statistics.median(untraced)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "sents_per_s": sentences / wall,
            "tokens_per_s": tokens / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        traced_walls = [wall for traced, wall in walls if traced]
        tracemalloc.start()
        results = runner.iteration(cli)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        runner.check(results)
        metrics = tracer.metrics(len(traced_walls))
        metrics["trace.wall_s"] = statistics.mean(traced_walls)
        metrics["trace.untraced_wall_s"] = statistics.mean(untraced[1:])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        metrics["trace.tracemalloc_peak_mb"] = peak / 2**20
        tracer.write(WORK / f"{args.workload}-spans.tsv")
    metrics["check.f1"] = runner.f1 if runner.f1 is not None else 0.0
    metrics["check.fail_share"] = runner.failed / max(runner.attempted, 1)
    units = metric_units(metrics)

    print(f"workload {workload.name} seed {args.seed}: {len(commands)} commands, "
          f"{sentences} sentences and {tokens} tokens per iteration")
    print("iterations " + " ".join(f"{'traced' if t else 'untraced'}:{w:.4f}s" for t, w in walls))
    for problem in runner.problems[:20]:
        print("problem " + problem.replace("\n", " | "))
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    reported = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                if tracer is not None or name in END_TO_END}
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": reported}


if __name__ == "__main__":
    sys.exit(main())
