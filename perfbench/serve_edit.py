"""``serve-edit``: a ``repro serve`` daemon under two closed-loop clients.

Set-up writes 16 generated programs, starts the daemon (``--jobs 1``,
a fresh ``--cache-dir``) and primes it with one ``analyze`` per file.
Each client then owns half the files and loops: change one integer
literal in one seeded procedure, ``analyze`` (an *edit*: the dirty set
is recomputed and stored), then ``analyze`` the unchanged file again
(a *replay*: served from the run cache). Every response is compared
with the plain pipeline's result for the same text, computed after the
timed loop.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional

from repro.ipcp.driver import analyze_source_resilient
from repro.serve.client import ReproClient, wait_for_server
from repro.suite.generator import GeneratorConfig, generate_program

from perfbench.harness import median_setup, percentile, process_peak_mb, rounded
from perfbench.pipeline import add_counts, ipcp_counts, response_key, result_key

#: Procedures per base file, 40 to 160. File ``i`` is always
#: ``generate_program(i, ...)``: the base files are the same for every
#: seed, and the seed drives the edit stream, so a run's figures move
#: with the system, not with how heavy that seed's programs happen to be.
SIZES = {
    "full": [40 + 8 * index for index in range(16)],
    "tiny": [8, 10, 12, 14],
}
CLIENTS = 2
#: An assignment of an integer literal: the edit site pattern.
LITERAL = re.compile(r"^ +[A-Z][A-Z0-9]* = -?\d+$")
UNIT = re.compile(r"^ +(SUBROUTINE|INTEGER FUNCTION) ")
#: Edited literals count up from here, so every edit is new text
#: (generated literals lie in [-20, 20]).
EDIT_BASE = 1000


@dataclass
class Program:
    """One input file: its current lines, the literal sites of each
    non-MAIN procedure, and the text of every version sent so far."""

    path: str
    lines: List[str]
    sites: List[List[int]]
    versions: List[str]

    def edit(self, rng: random.Random) -> int:
        """Change one literal in one seeded procedure to a value never
        used before, write the file, and return the new version."""
        site = rng.choice(rng.choice(self.sites))
        version = len(self.versions)
        head, _, _value = self.lines[site].rpartition(" ")
        self.lines[site] = f"{head} {EDIT_BASE + version}"
        self.versions.append("\n".join(self.lines) + "\n")
        self.write(version)
        return version

    def write(self, version: int) -> None:
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(self.versions[version])


@dataclass
class Request:
    phase: str  # "prime", "edit" or "replay"
    program: Program
    version: int
    seconds: float = 0.0
    response: Optional[dict] = None
    error: str = ""
    traced: bool = False

    @property
    def key(self) -> tuple:
        """Which text this request answered."""
        return (self.program.path, self.version)

    @property
    def result(self) -> dict:
        return (self.response or {}).get("result") or {}


@dataclass
class Outcome:
    requests: List[Request] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: Client threads that stopped on an unexpected error.
    crashes: List[str] = field(default_factory=list)



def _literal_sites(lines: List[str]) -> List[List[int]]:
    """Per non-MAIN procedure, the lines that assign an integer literal."""
    sites: dict = {}
    unit = None
    for index, line in enumerate(lines):
        if UNIT.match(line):
            unit = index
        elif unit is not None and LITERAL.match(line):
            sites.setdefault(unit, []).append(index)
    return [sites[unit] for unit in sorted(sites)]


def _generate(bench) -> List[Program]:
    programs = []
    for index, size in enumerate(SIZES[bench.args.size]):
        lines = generate_program(index, GeneratorConfig(procedures=size)).splitlines()
        path = os.path.join(bench.workdir, f"p{index:02d}.f")
        program = Program(path, lines, _literal_sites(lines), ["\n".join(lines) + "\n"])
        program.write(0)
        programs.append(program)
    return programs


def _request(client, request: Request, outcome: Outcome, tracer) -> None:
    start = time.perf_counter()
    try:
        with tracer.span(f"serve.{request.phase}"):
            request.response = client.analyze(request.program.path)
    except (OSError, RuntimeError, ValueError) as err:
        request.error = f"{type(err).__name__}: {err}"
    request.seconds = time.perf_counter() - start
    with outcome.lock:
        outcome.requests.append(request)


def _client_files(programs: List[Program], index: int) -> List[Program]:
    """Client ``index``'s files, small and large alternating (the files
    come in size order). Every prefix of its round robin then has about
    the mean size, so a faster run does not drift toward bigger files."""
    half = len(programs) // 2
    small = programs[:half][index::CLIENTS]
    large = programs[half:][::-1][index::CLIENTS]
    return [program for pair in zip(small, large) for program in pair]


def _client_loop(bench, index, socket_path, programs, deadline, outcome) -> None:
    """Client ``index``: edit then replay, round robin over its files,
    until the deadline; its edit sites come from its own seeded stream.
    A traced run alternates traced and untraced pairs, so the
    difference is the tracing overhead."""
    rng = random.Random(f"{bench.args.seed}:{index}")
    try:
        with ReproClient(socket_path, timeout=120.0) as client:
            # At least one untraced pair (and one traced, when tracing).
            minimum = 2 if bench.args.trace else 1
            pair = 0
            while pair < minimum or time.perf_counter() < deadline:
                program = programs[pair % len(programs)]
                traced = bool(bench.args.trace) and pair % 2 == 0
                tracer = bench.tracer if traced else bench.untraced
                version = program.edit(rng)
                for phase in ("edit", "replay"):
                    request = Request(phase, program, version, traced=traced)
                    _request(client, request, outcome, tracer)
                pair += 1
    except Exception as err:  # noqa: BLE001 — reported as a failure
        with outcome.lock:
            outcome.crashes.append(f"client {index}: {type(err).__name__}: {err}")


def _start_daemon(bench):
    socket_path = os.path.join(bench.workdir, "d.sock")
    command = [
        sys.executable, "-m", "repro.cli", "serve", "--socket", socket_path,
        "--cache-dir", os.path.join(bench.workdir, "cache", "serve"),
        "--jobs", "1", "--obs-window", "65536", "--deadline", "120",
    ]
    with open(os.path.join(bench.workdir, "daemon.log"), "wb") as log:
        process = subprocess.Popen(
            command, stdin=subprocess.DEVNULL, stdout=log, stderr=log
        )
    if not wait_for_server(socket_path, timeout=60.0):
        _stop_daemon(process, None)
        raise RuntimeError("repro serve did not start listening")
    return process, socket_path


def _stop_daemon(process, socket_path) -> None:
    if socket_path is not None:
        try:
            with ReproClient(socket_path, timeout=30.0) as client:
                client.shutdown()
        except (OSError, RuntimeError):
            pass
    try:
        process.wait(timeout=60)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


def run(bench) -> None:
    generate_s, programs = median_setup(_generate, bench)
    start = time.perf_counter()
    process, socket_path = _start_daemon(bench)
    try:
        primed = Outcome()
        with ReproClient(socket_path, timeout=120.0) as client:
            for program in programs:
                _request(client, Request("prime", program, 0), primed, bench.untraced)
        bench.setup_s = generate_s + time.perf_counter() - start

        outcome = Outcome()
        loop_start = time.perf_counter()
        deadline = loop_start + bench.args.seconds
        threads = [
            threading.Thread(
                target=_client_loop,
                args=(bench, index, socket_path, _client_files(programs, index),
                      deadline, outcome),
                name=f"client-{index}",
            )
            for index in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        loop_s = time.perf_counter() - loop_start

        with ReproClient(socket_path, timeout=30.0) as client:
            obs = client.obs()["result"]
        daemon_mb = process_peak_mb(process.pid)
    finally:
        _stop_daemon(process, socket_path)

    for crash in outcome.crashes:
        bench.check(False, crash)
    references = _check(bench, primed.requests + outcome.requests)
    _report(bench, primed.requests, outcome.requests, references, obs,
            loop_s, daemon_mb)


def _reference(job) -> dict:
    """The plain pipeline's answer for one text (runs in a worker)."""
    text, filename, with_counts = job
    result, _diagnostics = analyze_source_resilient(text, None, filename)
    return {
        "key": result_key(result),
        "procedures": len(result.program),
        "bytes": len(text.encode()),
        "counts": ipcp_counts(result) if with_counts else {},
    }


def _check(bench, requests) -> dict:
    """Plain-pipeline references for every text a response answered,
    computed after the timed loop on both CPUs; every response must
    match its reference."""
    keys = sorted({r.key for r in requests})
    programs = {r.program.path: r.program for r in requests}
    jobs = [(programs[path].versions[version], path, version == 0)
            for path, version in keys]
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(CLIENTS, mp_context=context) as pool:
        references = dict(zip(keys, pool.map(_reference, jobs)))
    for request in requests:
        reference = references[request.key]["key"]
        if bench.args.corrupt_reference:
            reference = ("wrong",)
        response = request.result
        ok = not request.error and response.get("status") == "ok" and (
            response_key(
                response.get("constants_report"), response.get("substituted"),
                response.get("per_procedure") or {},
            ) == reference
        )
        bench.check(
            ok,
            f"{request.phase} {os.path.basename(request.program.path)} "
            f"v{request.version}: {request.error or 'differs from the plain pipeline'}",
        )
    return references


def _report(bench, primed, timed, references, obs, loop_s, daemon_mb) -> None:
    edits = [r for r in timed if r.phase == "edit" and not r.traced]
    replays = [r for r in timed if r.phase == "replay" and not r.traced]
    answered = sum(references[r.key]["procedures"] for r in timed)
    edit_ms = [r.seconds * 1000.0 for r in edits]
    replay_ms = [r.seconds * 1000.0 for r in replays]
    bench.end_to_end.update(
        procs_per_s=answered / loop_s,
        latency_mean_ms=statistics.mean(edit_ms),
        peak_rss_mb=daemon_mb,
        substituted_refs=sum(r.result.get("substituted", 0) for r in primed),
    )
    bench.context.update(
        files=len(primed),
        procedures=[references[r.key]["procedures"] for r in primed],
        input_bytes=sum(references[r.key]["bytes"] for r in primed),
        edits=len(edits),
        replays=len(replays),
        edit_ms=rounded(edit_ms, 2),
        replay_ms=rounded(replay_ms, 2),
        loop_s=round(loop_s, 4),
    )
    if bench.args.trace:
        _layers(bench, primed, timed, references, obs, loop_s)


def _layers(bench, primed, timed, references, obs, loop_s) -> None:
    """Per-layer figures from the daemon's ``obs`` ring (matched to the
    client's requests in per-file order) and the responses' counter
    deltas."""
    entries = {}
    for entry in obs["recent"]:
        if entry.get("op") == "analyze":
            entries.setdefault(entry["path"], []).append(entry)
    by_path = {}
    for request in primed + sorted(timed, key=lambda r: (r.key, r.phase != "edit")):
        by_path.setdefault(request.program.path, []).append(request)
    matched = []
    for path, requests in by_path.items():
        matched.extend(zip(requests, entries.get(path, [])))

    edits = [(r, e) for r, e in matched if r.phase == "edit"]
    layers = bench.per_layer
    for bucket in ("queue", "parse", "solve", "render"):
        layers[f"serve.{bucket}_ms"] = statistics.median(
            e[f"{bucket}_ms"] for _r, e in edits
        )
    layers["serve.overhead_ms"] = statistics.median(
        r.seconds * 1000.0 - e["total_ms"] for r, e in matched if r.phase != "prime"
    )
    layers["frontend.parse_s"] = statistics.median(
        e["parse_ms"] / 1000.0 for _r, e in edits
    )
    layers["frontend.bytes_per_s"] = statistics.median(
        references[r.key]["bytes"] / (e["parse_ms"] / 1000.0) for r, e in edits
    )

    def ratio(requests, name):
        """``<name>_hits`` over hits plus misses, summed over the
        responses' counter deltas."""
        def total(counter):
            return sum((r.result.get("metrics") or {}).get(counter, 0) for r in requests)

        hits, misses = total(f"{name}_hits"), total(f"{name}_misses")
        return hits / (hits + misses) if hits + misses else 0.0

    edit_requests = [r for r in timed if r.phase == "edit"]
    layers["engine.summary_hit_ratio"] = ratio(edit_requests, "summary_cache")
    layers["engine.run_cache_hit_ratio"] = ratio(timed, "run_cache")
    recomputed = sum(
        (r.result.get("metrics") or {}).get("recomputed_ret", 0) for r in edit_requests
    )
    procedures = sum(references[r.key]["procedures"] for r in edit_requests)
    layers["engine.dirty_share"] = recomputed / procedures

    untraced_edits = [r.seconds for r in timed if r.phase == "edit" and not r.traced]
    traced_edits = [r.seconds for r in timed if r.phase == "edit" and r.traced]
    replays = [r.seconds for r in timed if r.phase == "replay" and not r.traced]
    layers["serve.edit_p50_ms"] = statistics.median(untraced_edits) * 1000.0
    layers["serve.edit_p90_ms"] = percentile(untraced_edits, 0.9) * 1000.0
    layers["serve.replay_p50_ms"] = statistics.median(replays) * 1000.0
    layers["serve.req_per_s"] = len(timed) / loop_s
    layers["trace.overhead_s"] = (
        statistics.median(traced_edits) - statistics.median(untraced_edits)
    )
    for reference in references.values():
        add_counts(layers, reference["counts"])
