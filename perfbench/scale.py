"""``scale-cold`` and ``scale-jobs2``: one layered 4,000-procedure
program, analyzed again and again.

``scale-cold`` takes the ``repro analyze FILE`` path
(``analyze_file_resilient`` with no engine). ``scale-jobs2`` takes the
``repro analyze --jobs 2 FILE`` path: a fresh ``Engine(jobs=2)`` per
analysis (arena on by default), closed inside the timing.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import statistics
import time
from dataclasses import dataclass
from typing import Optional

from repro.config import AnalysisConfig
from repro.engine import Engine
from repro.engine.memo import clear_memos, fresh_program
from repro.engine.scheduler import condensation_levels
from repro.ipcp.driver import analyze_file_resilient
from repro.obs import metrics as obs_metrics
from repro.suite.generator import ScaleConfig, generate_scaled_program

from perfbench.harness import median_setup, process_peak_mb, rounded, self_peak_mb
from perfbench.pipeline import (
    composed_analysis,
    instruction_count,
    ipcp_counts,
    result_digest,
)

PROCEDURES = {"full": 4000, "tiny": 200}
WRONG_DIGEST = "0" * 64
SUMMARY_STAGES = ("return_functions", "forward_functions", "substitution")


@dataclass
class Analysis:
    """What one untraced analysis left behind once its result is gone."""

    seconds: float
    render_s: float = 0.0
    digest: Optional[str] = None
    procedures: int = 0
    substituted: int = 0
    workers_mb: float = 0.0


def _write_program(bench) -> str:
    text = generate_scaled_program(
        bench.args.seed, ScaleConfig(procedures=PROCEDURES[bench.args.size])
    )
    path = os.path.join(bench.workdir, "scale.f")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _fresh_start() -> None:
    """Isolation between iterations: no memo and no previous result
    may survive into the next analysis."""
    clear_memos()
    gc.collect()


def _analyze_once(bench, path: str, jobs: int) -> Analysis:
    """One untraced analysis through the CLI's entry point."""
    _fresh_start()
    start = time.perf_counter()
    engine = Engine(jobs=jobs) if jobs > 1 else None
    workers_mb = 0.0
    try:
        result, diagnostics = analyze_file_resilient(path, engine=engine)
        if engine is not None:
            workers_mb = sum(
                process_peak_mb(child.pid)
                for child in multiprocessing.active_children()
            )
    finally:
        if engine is not None:
            engine.close()
    seconds = time.perf_counter() - start
    if result is None or len(diagnostics):
        return Analysis(seconds)
    render_start = time.perf_counter()
    digest = result_digest(result, bench.untraced)
    return Analysis(
        seconds, time.perf_counter() - render_start, digest,
        len(result.program), result.substituted_constants, workers_mb,
    )


def _traced_round(bench, text: str, root: str, jobs: int):
    """The stage-by-stage composition under spans: (digest, counts)."""
    _fresh_start()
    registry = obs_metrics.default_registry()
    before = registry.snapshot()
    with bench.tracer.span(root):
        engine = Engine(jobs=jobs) if jobs > 1 else None
        try:
            result = composed_analysis(
                text, "scale.f", AnalysisConfig(), bench.tracer, engine
            )
        finally:
            if engine is not None:
                engine.close()
        digest = result_digest(result, bench.tracer)
    counts = ipcp_counts(result)
    if jobs > 1:
        delta = registry.delta_since(before)["counters"]
        counts.update({
            "engine.waves": len(condensation_levels(result.callgraph)),
            "engine.pickle_payload_entries": delta.get(
                "engine_pickle_payload_entries", 0
            ),
            "engine.arena_fallbacks": delta.get("arena_fallbacks", 0),
        })
    return digest, counts


def run(bench) -> None:
    workload = bench.args.workload
    jobs = 2 if workload == "scale-jobs2" else 1
    bench.setup_s, path = median_setup(_write_program, bench)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    bench.context.update(
        procedures=PROCEDURES[bench.args.size], input_bytes=len(text.encode())
    )

    analyses = []
    traced_digests = []
    for _ in bench.rounds():
        _join_workers()  # the previous pool's workers are gone first
        analyses.append(_analyze_once(bench, path, jobs))
        bench.check(
            bench.arena_leftovers() == 0,
            f"iteration {len(analyses)}: arena segments left behind",
        )
        if bench.args.trace:
            digest, counts = _traced_round(bench, text, f"{workload}.round", jobs)
            traced_digests.append(digest)
            bench.per_layer.update(counts)
            if jobs > 1:
                # The plumbing ratio's base: the plain builders, same program.
                digest, _counts = _traced_round(bench, text, "plain.round", 1)
                traced_digests.append(digest)
    _join_workers()
    peak_mb = self_peak_mb() + max(a.workers_mb for a in analyses)

    if jobs > 1:
        # The plain-pipeline reference, computed after the timed loop.
        reference = _analyze_once(bench, path, 1).digest
        what = "the plain pipeline"
    else:
        reference = analyses[0].digest
        what = "the first iteration"
    if bench.args.corrupt_reference:
        reference = WRONG_DIGEST
    for index, analysis in enumerate(analyses):
        bench.check(
            analysis.digest is not None and analysis.digest == reference,
            f"iteration {index + 1}: digest differs from {what}",
        )
    for digest in traced_digests:
        bench.check(
            digest == reference,
            "traced composition did not reproduce the untraced digest",
        )

    bench.end_to_end.update(
        procs_per_s=(
            sum(a.procedures for a in analyses) / sum(a.seconds for a in analyses)
        ),
        latency_mean_ms=statistics.mean(a.seconds for a in analyses) * 1000.0,
        peak_rss_mb=peak_mb,
        substituted_refs=analyses[0].substituted,
    )
    bench.context.update(
        iterations=len(analyses),
        iteration_s=rounded([a.seconds for a in analyses]),
        workers_peak_mb=round(max(a.workers_mb for a in analyses), 1),
    )
    if bench.args.trace:
        _layers(bench, text, [a.seconds + a.render_s for a in analyses],
                f"{workload}.round", jobs)


def _layers(bench, text: str, untraced_s, root: str, jobs: int) -> None:
    """Per-layer self times, the input-size counts, the engine's
    plumbing ratio and the tracing overhead."""
    layers = bench.layer_medians()
    layers.pop(f"{root}_s", None)
    layers.pop("plain.round_s", None)
    parse_s = layers.get("frontend.parse_s", 0.0)
    layers["frontend.bytes_per_s"] = len(text.encode()) / parse_s if parse_s else 0.0
    layers["ir.instructions"] = instruction_count(fresh_program(text, "scale.f"))
    clear_memos()
    if jobs > 1:
        engine_s = sum(layers.get(f"engine.{s}_s", 0.0) for s in SUMMARY_STAGES)
        plain_s = sum(layers.get(f"ipcp.{s}_s", 0.0) for s in SUMMARY_STAGES)
        layers["engine.plumbing_ratio"] = engine_s / plain_s if plain_s else 0.0
    layers["trace.overhead_s"] = (
        statistics.median(bench.tracer.round_totals(root))
        - statistics.median(untraced_s)
    )
    bench.per_layer.update(layers)


def _join_workers() -> None:
    """Wait for every pool worker this run started."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()

