#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scale-cold --seed 1 \\
        --seconds 20 --trace 0

Run it from the repository root (it finds ``src/`` next to its own
directory either way). The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (every
``end_to_end`` metric of BENCHMARK.json with ``--trace 0``, every
``per_layer`` metric with ``--trace 1``, each with its unit). The line
before it records the run's context (host, sizes, per-iteration times,
``error_rate``). Scratch files live in ``.perfbench_tmp/`` and are
removed at exit; a traced run writes its spans to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: smoke-test input sizes (the benchmark's own tests)",
    )
    parser.add_argument(
        "--corrupt-reference", action="store_true",
        help="replace every reference output with a wrong one; every "
        "check must then fail (the benchmark's own tests)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _isolate(workdir: str) -> None:
    """Keep every file the run and its children create inside the
    checkout: temporary files, arena segments and caches."""
    for name in ("arena", "cache", "tmp"):
        os.makedirs(os.path.join(workdir, name))
    os.environ["TMPDIR"] = os.path.join(workdir, "tmp")
    os.environ["REPRO_ARENA_DIR"] = os.path.join(workdir, "arena")
    os.environ["REPRO_CACHE_DIR"] = os.path.join(workdir, "cache")
    source = os.path.join(ROOT, "src")
    os.environ["PYTHONPATH"] = source
    sys.path[:0] = [ROOT, source]


MODULES = {
    "scale-cold": "perfbench.scale",
    "scale-jobs2": "perfbench.scale",
    "serve-edit": "perfbench.serve_edit",
    "paper-suite": "perfbench.paper_suite",
}


def _import_seconds(module: str, repeats: int) -> float:
    """Median wall time of importing ``module`` (and so the analyzer)
    in a fresh interpreter: the import part of ``setup_s``."""
    code = (
        f"import sys, time; sys.path[:0] = {sys.path[:2]!r}; "
        f"start = time.perf_counter(); import {module}; "
        "print(time.perf_counter() - start)"
    )
    times = [
        float(subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, timeout=120,
        ).stdout)
        for _ in range(repeats)
    ]
    return statistics.median(times)


def _run_workload(bench) -> None:
    from perfbench.harness import SETUP_REPEATS

    module = MODULES[bench.args.workload]
    bench.import_s = _import_seconds(module, SETUP_REPEATS)
    importlib.import_module(module).run(bench)


def _children() -> list:
    """Process ids whose parent is this process."""
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state, then ppid.
        if stat.rpartition(")")[2].split()[1] == me:
            found.append(int(entry))
    return found


def _stop_children(grace_s: float = 10.0) -> int:
    """Stop every process this run started and wait for each to end;
    returns how many children other than the resource tracker were
    still alive.

    A spawn-context worker pool starts multiprocessing's resource
    tracker, which outlives the pool and would otherwise end only after
    this process, unwaited; any other child still alive gets SIGTERM,
    then SIGKILL after ``grace_s``."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    pids = _children()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + grace_s
    for pid in pids:
        while True:
            try:
                done, _status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                break
            if done:
                break
            if time.monotonic() > deadline:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                os.waitpid(pid, 0)
                break
            time.sleep(0.05)
    return len(pids)


def _metrics(spec: dict, bench) -> dict:
    declared = spec["per_layer"] if bench.args.trace else spec["end_to_end"]
    produced = bench.per_layer if bench.args.trace else bench.end_to_end
    names = {metric["name"] for metric in declared}
    unknown = sorted(set(produced) - names)
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {unknown}")
    if not bench.args.trace:
        missing = sorted(names - set(produced))
        if missing:
            raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    # A per-layer metric a workload does not produce is a layer that did
    # no work on it: 0 by definition (README.md, "Per-layer metrics").
    return {
        metric["name"]: {
            "value": produced.get(metric["name"], 0),
            "unit": metric["unit"],
        }
        for metric in declared
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(
            f"perfbench: no analyzer sources under {ROOT}/src; run the "
            "benchmark from a repository checkout",
            file=sys.stderr,
        )
        return 2
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)

    os.chdir(ROOT)
    workdir = os.path.join(".perfbench_tmp", f"{args.workload}-{os.getpid()}")
    _isolate(workdir)
    from perfbench.harness import Bench

    bench = Bench(args, workdir)
    try:
        _run_workload(bench)
        bench.check(bench.arena_leftovers() == 0, "arena segments left behind")
        bench.check(_stop_children() == 0, "child processes left running")
    finally:
        _stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(".perfbench_tmp")
        except OSError:
            pass
    if args.trace:
        os.makedirs(".perfbench_out", exist_ok=True)
        bench.tracer.write(os.path.join(
            ".perfbench_out", f"spans-{args.workload}-seed{args.seed}.json"
        ))
    else:
        bench.end_to_end["setup_s"] = bench.import_s + bench.setup_s
    bench.context.update(
        workload=args.workload,
        trace=args.trace,
        size=args.size,
        cpu_count=os.cpu_count(),
        python=platform.python_version(),
        import_s=round(bench.import_s, 4),
        error_rate=bench.failed / bench.attempted if bench.attempted else 1.0,
        problems=bench.problems,
    )
    metrics = _metrics(spec, bench)
    print("context " + json.dumps(bench.context, sort_keys=True))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
