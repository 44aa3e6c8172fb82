"""``paper-suite``: the 25 golden-corpus programs, each analyzed under
the four jump-function kinds, optimized with every pass, and run in the
reference interpreter before and after optimization on a seeded input
vector.

Checks: the snapshot of each program's own configuration equals its
committed ``tests/golden/snapshots/<name>.golden`` file (read only),
and the optimized program prints exactly what the original prints.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List

from repro.config import JumpFunctionKind
from repro.engine.memo import clear_memos, fresh_program
from repro.frontend.parser import parse_source
from repro.frontend.source import SourceFile
from repro.ipcp.driver import analyze_source
from repro.ir.interp import run_program
from repro.ir.lowering import lower_module
from repro.opt import optimize_result, optimize_source
from repro.oracle.golden import golden_programs

from perfbench.harness import geomean, median_setup, rounded, self_peak_mb
from perfbench.pipeline import (
    add_counts,
    composable,
    composed_analysis,
    instruction_count,
    ipcp_counts,
)

SNAPSHOTS = os.path.join("tests", "golden", "snapshots")
KINDS = tuple(JumpFunctionKind)
#: Interpreter fuel, as in benchmarks/test_bench_optimize.py.
ORIGINAL_FUEL = 2_000_000
OPTIMIZED_FUEL = 8_000_000
INPUTS = 16


@dataclass
class Row:
    """One program's share of one pass."""

    name: str
    procedures: int = 0
    substituted: int = 0
    snapshot: str = ""
    output_equal: bool = False
    steps_before: int = 0
    steps_after: int = 0
    changes: int = 0
    original_s: float = 0.0
    optimized_s: float = 0.0
    parsed_bytes: int = 0
    counts: Dict[str, int] = field(default_factory=dict)


def _load(bench):
    programs = [golden_programs()[name] for name in sorted(golden_programs())]
    if bench.args.size == "tiny":
        programs = programs[::5]
    goldens = {}
    for program in programs:
        path = os.path.join(SNAPSHOTS, f"{program.name}.golden")
        with open(path, encoding="utf-8") as handle:
            goldens[program.name] = handle.read()
    rng = random.Random(bench.args.seed)
    inputs = tuple(rng.randint(-9, 9) for _ in range(INPUTS))
    return programs, goldens, inputs


def render_snapshot(program, result, tracer) -> str:
    """The golden snapshot text of ``result`` (the format of
    ``repro.oracle.golden.render_snapshot``, without re-analyzing)."""
    lines = [
        f"golden: {program.name}",
        f"configuration: {program.config.describe()}",
    ]
    if program.note:
        lines.append(f"note: {program.note}")
    lines.append("--- CONSTANTS ---")
    lines.append(result.constants.format_report())
    lines.append("--- jump functions ---")
    if result.jump_table is None:
        lines.append("(no interprocedural propagation)")
    else:
        counts = result.jump_table.payload_counts()
        lines.append(" ".join(f"{kind}={counts[kind]}" for kind in sorted(counts)))
    lines.append("--- substitution ---")
    lines.append(f"total: {result.substituted_constants}")
    for name in sorted(result.substitution.per_procedure):
        count = result.substitution.per_procedure[name]
        if count:
            lines.append(f"  {name}: {count}")
    lines.append("--- transformed source ---")
    with tracer.span("ipcp.render"):
        transformed = result.transformed_source()
    lines.append(transformed.rstrip("\n"))
    return "\n".join(lines) + "\n"


def _program_row(bench, program, inputs, traced: bool) -> Row:
    tracer = bench.tracer if traced else bench.untraced
    filename = f"{program.name}.f"
    source = program.source
    size = len(source.encode())
    row = Row(program.name)
    for kind in KINDS:
        config = replace(program.config, jump_function=kind)
        if traced:
            result = composed_analysis(source, filename, config, tracer)
            row.parsed_bytes += size if composable(config) else 0
        else:
            result = analyze_source(source, config, filename)
        row.procedures += len(result.program)
        row.substituted += result.substituted_constants
        add_counts(row.counts, ipcp_counts(result))
        if kind == program.config.jump_function:
            row.snapshot = render_snapshot(program, result, tracer)

    if traced:
        result = composed_analysis(source, filename, program.config, tracer)
        row.parsed_bytes += size if composable(program.config) else 0
        with tracer.span("opt.optimize"):
            report = optimize_result(result)
        with tracer.span("frontend.parse"):
            module = parse_source(source, filename)
        with tracer.span("ir.lower"):
            original = lower_module(module, SourceFile(filename, source))
        row.parsed_bytes += size
    else:
        result, report = optimize_source(source, program.config, filename)
        original = fresh_program(source, filename)
    row.procedures += len(result.program)
    row.changes = report.total_changes

    with tracer.span("interp.run"):
        begin = time.perf_counter()
        before = run_program(original, inputs, ORIGINAL_FUEL)
        row.original_s = time.perf_counter() - begin
    with tracer.span("interp.run"):
        begin = time.perf_counter()
        after = run_program(result.program, inputs, OPTIMIZED_FUEL)
        row.optimized_s = time.perf_counter() - begin
    row.output_equal = before.output == after.output
    row.steps_before, row.steps_after = before.steps, after.steps
    return row


def _pass(bench, programs, inputs, traced: bool):
    """One pass over the corpus: (seconds, rows)."""
    clear_memos()
    gc.collect()
    start = time.perf_counter()
    if traced:
        with bench.tracer.span("paper-suite.round"):
            rows = [_program_row(bench, p, inputs, True) for p in programs]
    else:
        rows = [_program_row(bench, p, inputs, False) for p in programs]
    return time.perf_counter() - start, rows


def run(bench) -> None:
    bench.setup_s, (programs, goldens, inputs) = median_setup(_load, bench)
    bench.context.update(
        programs=len(programs),
        procedures=sum(len(fresh_program(p.source)) for p in programs),
        input_bytes=sum(len(p.source.encode()) for p in programs),
        inputs=list(inputs),
    )
    clear_memos()

    passes: List[tuple] = []
    traced: List[List[Row]] = []
    for _ in bench.rounds():
        passes.append(_pass(bench, programs, inputs, traced=False))
        if bench.args.trace:
            traced.append(_pass(bench, programs, inputs, traced=True)[1])

    for rows in [rows for _seconds, rows in passes] + traced:
        _check(bench, rows, goldens)

    pass_s = [seconds for seconds, _rows in passes]
    first = passes[0][1]
    bench.end_to_end.update(
        procs_per_s=(
            sum(row.procedures for _seconds, rows in passes for row in rows)
            / sum(pass_s)
        ),
        latency_mean_ms=statistics.mean(pass_s) * 1000.0,
        peak_rss_mb=self_peak_mb(),
        substituted_refs=sum(row.substituted for row in first),
    )
    bench.context.update(iterations=len(passes), iteration_s=rounded(pass_s))
    if bench.args.trace:
        _layers(bench, programs, passes, traced[0])


def _check(bench, rows, goldens) -> None:
    for row in rows:
        golden = "wrong" if bench.args.corrupt_reference else goldens[row.name]
        bench.check(
            row.snapshot == golden, f"{row.name}: snapshot differs from its golden file"
        )
        bench.check(row.output_equal, f"{row.name}: optimized PRINT output differs")


def _layers(bench, programs, passes, traced_pass) -> None:
    """Per-layer figures; counts repeat exactly on every pass, so they
    come from one pass (the first traced one)."""
    layers = bench.layer_medians()
    layers.pop("paper-suite.round_s", None)
    parse_s = layers.get("frontend.parse_s", 0.0)
    parsed = sum(row.parsed_bytes for row in traced_pass)
    layers["frontend.bytes_per_s"] = parsed / parse_s if parse_s else 0.0
    layers["ir.instructions"] = sum(
        instruction_count(fresh_program(p.source)) for p in programs
    )
    clear_memos()
    for row in traced_pass:
        add_counts(layers, row.counts)
    layers["opt.changes"] = sum(row.changes for row in traced_pass)
    layers["opt.steps_ratio"] = (
        sum(row.steps_after for row in traced_pass)
        / sum(row.steps_before for row in traced_pass)
    )
    by_program: Dict[str, List[Row]] = {}
    for _seconds, rows in passes:
        for row in rows:
            by_program.setdefault(row.name, []).append(row)
    layers["opt.speedup"] = geomean([
        statistics.median(r.original_s for r in rows)
        / statistics.median(r.optimized_s for r in rows)
        for rows in by_program.values()
    ])
    pass_s = [seconds for seconds, _rows in passes]
    layers["opt.programs_per_s"] = len(programs) / statistics.median(pass_s)
    layers["trace.overhead_s"] = (
        statistics.median(bench.tracer.round_totals("paper-suite.round"))
        - statistics.median(pass_s)
    )
    bench.per_layer.update(layers)
