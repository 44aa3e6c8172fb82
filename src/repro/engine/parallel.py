"""Worker side of the engine's substitution fan-out.

The engine builds return and forward jump functions in the parent and
solves there; substitution measurement is the only stage it fans out.
Its pool is created *after* propagation with the fork start method, so
every worker inherits :data:`_STATE` — the prepared program, the
return-function call model and the live CONSTANTS sets — copy-on-write,
with no serialization. A task carries only a chunk of procedure names,
and only each procedure's substitution sites and demotions come back,
as identity-free payloads (:mod:`repro.engine.summaries`).

Without the fork start method nothing can be inherited, and the engine
measures inline through the same :func:`measure` helper.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro import faults
from repro.config import AnalysisConfig
from repro.engine import summaries
from repro.ipcp.constants import ConstantsResult
from repro.ir.module import Procedure, Program


class _WorkerState:
    """Everything substitution measurement reads, fixed after
    propagation."""

    def __init__(
        self,
        program: Program,
        config: AnalysisConfig,
        constants: ConstantsResult,
        call_model,
    ):
        self.program = program
        self.config = config
        self.constants = constants
        self.call_model = call_model


#: The state a forked pool inherits; set by the parent just before the
#: pool forks and cleared once the fan-out is over.
_STATE: Optional[_WorkerState] = None


def _set_state(state: Optional[_WorkerState]) -> None:
    global _STATE
    _STATE = state


def _traced_call(task, *args):
    """Run ``task`` under a worker-local tracer and ship the events it
    recorded back with the result (Chrome-format dicts pickle fine).

    A fork child inherits the parent's tracer object — detected via
    ``owner_pid`` and replaced with a fresh one so the parent's events
    are not re-shipped. The worker's pid tags its events, giving it its
    own trace track. The tracer persists across tasks in the same
    worker, so later calls ship only the events recorded since the
    previous one.
    """
    import os

    from repro.obs import trace

    from repro.obs import context as obs_context

    tracer = trace.active()
    if tracer is None or tracer.owner_pid != os.getpid():
        tracer = trace.enable()
    marker = tracer.event_count()
    context = obs_context.current()
    if context is not None:
        # Flow step: stitches this worker's events back to the request
        # root span that emitted the matching "s" event. Emitted after
        # the marker so it ships with this task's batch.
        tracer.flow(
            "request", "t", obs_context.flow_id(context.request_id)
        )
    with trace.span(
        "worker.task", task=getattr(task, "__name__", str(task))
    ):
        result = task(*args)
    return {"result": result, "events": tracer.events_since(marker)}


def _ctx_call(ctx, traced, task, *args):
    """Run ``task`` with the request's correlation context installed.

    ``ctx`` is the ``(request_id, trace_id)`` wire pair from
    :func:`repro.obs.context.current_ids` (or None), installed per task
    rather than trusted from whatever the worker inherited at fork.
    ``traced`` says whether to also wrap in :func:`_traced_call`; the
    untraced shape matches it so the dispatcher unwraps both the same
    way.
    """
    from repro.obs import context as obs_context

    previous = obs_context.current()
    obs_context.set_thread_context(obs_context.from_ids(ctx))
    try:
        if traced:
            return _traced_call(task, *args)
        return {"result": task(*args), "events": []}
    finally:
        obs_context.set_thread_context(previous)


def _worker_init() -> None:
    """Pool-worker initializer: restore default signal dispositions.

    Fork workers inherit whatever SIGINT/SIGTERM handlers the host
    installed — the batch CLI's raise-to-drain handler, the daemon's
    request_stop handler — and both are wrong inside a worker: the
    first turns the executor's own shutdown SIGTERM into a traceback,
    the second makes the worker *ignore* termination. Workers die by
    default disposition; only the host drains."""
    import signal

    for name in ("SIGINT", "SIGTERM"):
        signum = getattr(signal, name, None)
        if signum is None:
            continue
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (ValueError, OSError):
            pass


def measure(state: _WorkerState, procedure: Procedure, resilience):
    """One procedure's substitution report, its demotions recorded on
    ``resilience``. The report's SCCP result is dropped: only complete
    propagation reads those, and it never runs through the engine."""
    from repro.ipcp.substitution import (
        SubstitutionReport,
        measure_substitution_for,
    )

    report = SubstitutionReport()
    measure_substitution_for(
        procedure, state.constants, state.call_model, report,
        budget=state.config.budget, resilience=resilience,
        fault_isolation=state.config.fault_isolation,
    )
    report.sccp_results.clear()
    return report


def _task_substitution(procedure_names: List[str]) -> Dict[str, dict]:
    """Measure each named procedure's substitutions against the
    inherited CONSTANTS sets. Independent per procedure."""
    faults.maybe_kill_worker(stage="sub")
    if _STATE is None:
        raise RuntimeError("engine worker state was never installed")
    from repro.ipcp.resilience import ResilienceReport

    results: Dict[str, dict] = {}
    for name in procedure_names:
        demotions = ResilienceReport()
        report = measure(_STATE, _STATE.program.procedure(name), demotions)
        results[name] = {
            "sub": summaries.encode_substitution_of(report, name),
            "dem": summaries.encode_demotions(demotions),
        }
    return results
