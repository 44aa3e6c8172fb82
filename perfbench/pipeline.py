"""The analyses the workloads time, and the digests that check them.

``composed_analysis`` is the traced run's version of
``analyze_source_resilient``: the same public calls in the same order,
one span per layer call, so a traced round splits its time by layer.
It must reproduce the untraced digest exactly; a mismatch is counted as
a failed operation.
"""

from __future__ import annotations

import hashlib

from repro.analysis.sccp import SCCPCallModel
from repro.analysis.ssa import construct_ssa
from repro.callgraph.callgraph import build_call_graph
from repro.diagnostics import DiagnosticEngine
from repro.frontend.parser import parse_source
from repro.frontend.source import SourceFile
from repro.ipcp.constants import empty_constants
from repro.ipcp.driver import AnalysisResult, analyze_source
from repro.ipcp.jump_functions import build_forward_jump_functions
from repro.ipcp.resilience import ResilienceReport
from repro.ipcp.return_functions import (
    ReturnFunctionCallModel,
    ReturnFunctionMap,
    build_return_functions,
)
from repro.ipcp.solver import propagate
from repro.ipcp.substitution import measure_substitution
from repro.ir.lowering import lower_module
from repro.summary.modref import annotate_call_effects, compute_modref


def result_digest(result: AnalysisResult, tracer) -> str:
    """SHA-256 over the constants report, the per-procedure
    substitution counts and the transformed source."""
    digest = hashlib.sha256()
    digest.update(result.constants.format_report().encode())
    for name in sorted(result.substitution.per_procedure):
        digest.update(f"\n{name}={result.substitution.per_procedure[name]}".encode())
    with tracer.span("ipcp.render"):
        transformed = result.transformed_source()
    digest.update(b"\n")
    digest.update(transformed.encode())
    return digest.hexdigest()


def response_key(constants_report: str, substituted: int, per_procedure) -> tuple:
    """What a daemon ``analyze`` response and a plain result share."""
    return (
        constants_report,
        substituted,
        tuple(sorted((name, count) for name, count in per_procedure.items())),
    )


def result_key(result: AnalysisResult) -> tuple:
    return response_key(
        result.constants.format_report(),
        result.substituted_constants,
        result.substitution.per_procedure,
    )


def composable(config) -> bool:
    """Complete propagation and GSA refinement loop inside the driver;
    the traced composition covers every other configuration."""
    return not config.complete and not config.gsa_refinement


def composed_analysis(text, filename, config, tracer, engine=None):
    """``analyze_source_resilient`` spelled out stage by stage, with a
    span around each layer call. With ``engine`` the three summary
    stages go through the public :class:`repro.engine.Engine` methods,
    as ``analyze_prepared`` does."""
    if not composable(config):
        with tracer.span("pipeline.analyze"):
            return analyze_source(text, config, filename)
    diagnostics = DiagnosticEngine()
    with tracer.span("frontend.parse"):
        module = parse_source(text, filename, diagnostics)
    with tracer.span("ir.lower"):
        program = lower_module(module, SourceFile(filename, text))
    if engine is not None:
        engine.start(program, config)
    with tracer.span("callgraph.build"):
        callgraph = build_call_graph(program)
    with tracer.span("summary.modref"):
        modref = compute_modref(program, callgraph) if config.use_mod else None
        annotate_call_effects(program, callgraph, modref)
    with tracer.span("analysis.ssa"):
        for procedure in program:
            construct_ssa(procedure)

    resilience = ResilienceReport()
    budget = config.budget
    if not config.use_return_functions:
        return_map = ReturnFunctionMap()
    elif engine is not None:
        with tracer.span("engine.return_functions"):
            return_map = engine.return_functions(
                program, callgraph, modref, config, resilience
            )
    else:
        with tracer.span("ipcp.return_functions"):
            return_map = build_return_functions(
                program, callgraph, modref, budget=budget,
                resilience=resilience, fault_isolation=config.fault_isolation,
            )

    jump_table = propagation = None
    if config.interprocedural:
        if engine is not None:
            with tracer.span("engine.forward_functions"):
                jump_table = engine.forward_functions(
                    program, callgraph, config, return_map, resilience
                )
        else:
            with tracer.span("ipcp.forward_functions"):
                jump_table = build_forward_jump_functions(
                    program, callgraph, config.jump_function, return_map,
                    gcp_oracle=config.gcp_oracle, budget=budget,
                    resilience=resilience,
                    fault_isolation=config.fault_isolation,
                )
        with tracer.span("ipcp.solve"):
            propagation = propagate(
                program, callgraph, jump_table,
                strategy=config.solver_strategy,
                max_visits=budget.solver_visits, resilience=resilience,
            )
        constants = propagation.constants
    else:
        constants = empty_constants(program)

    if engine is not None:
        with tracer.span("engine.substitution"):
            substitution = engine.substitution(
                program, callgraph, constants, config, resilience
            )
    else:
        call_model = (
            ReturnFunctionCallModel(program, return_map)
            if config.use_return_functions
            else SCCPCallModel()
        )
        with tracer.span("ipcp.substitution"):
            substitution = measure_substitution(
                program, constants, call_model, budget=budget,
                resilience=resilience, fault_isolation=config.fault_isolation,
            )
    result = AnalysisResult(
        config=config, program=program, callgraph=callgraph, modref=modref,
        return_functions=return_map, jump_table=jump_table,
        propagation=propagation, constants=constants,
        substitution=substitution, resilience=resilience,
    )
    result.diagnostics = diagnostics
    return result


def ipcp_counts(result: AnalysisResult) -> dict:
    """The per-layer work counts one result carries."""
    table = result.jump_table
    return {
        "ipcp.return_functions": len(result.return_functions),
        "ipcp.jump_functions": len(table) if table is not None else 0,
        "ipcp.solver_visits": (
            result.propagation.stats.procedure_visits
            if result.propagation is not None else 0
        ),
        "ipcp.constant_pairs": result.constants.total_pairs(),
    }


def instruction_count(program) -> int:
    return sum(
        len(block.instructions) for procedure in program for block in procedure.cfg
    )


def add_counts(total: dict, counts: dict) -> None:
    for name, value in counts.items():
        total[name] = total.get(name, 0) + value
