"""Worker-side state and task functions for the engine's pool.

One module-level :data:`_STATE` per worker process (or, for the inline
jobs=1 path, per *host* process) holds the worker's own isomorphic copy
of the program plus the return-function map it has reconstructed so
far. Three bootstraps feed it:

- **fork** (the default on POSIX): the parent sets :data:`_STATE` and
  then creates the pool — ``ProcessPoolExecutor`` forks workers during
  the first ``submit`` calls, so every child inherits the fully
  prepared program (and its variable identities) copy-on-write, with
  zero serialization;
- **spawn** (fallback when fork is unavailable): workers receive the
  original source text and rebuild their program with
  :func:`_init_spawn` — parse, lower, and prepare are deterministic,
  so the rebuilt program is isomorphic to the parent's and the
  name/position-based summary encoding lines up exactly;
- **inline** (``jobs=1``, a demoted pool, or spawn without source
  text): the parent installs its own prepared state directly and runs
  every task in-process against its own objects.

Return-function summaries flow between waves as an *append-only
canonical payload*: the parent appends every generated/cached entry in
a fixed order. On the classic pickle path each task call carries the
full payload; with the shared-memory arena
(:mod:`repro.engine.arena`) the parent publishes the same entries, in
the same order, as arena records and each task carries only an
``("arena", stream_path, upto, exchange_path)`` marker — a worker
reads the unseen tail ``[applied_returns, upto)`` straight out of the
mapped segment. Indices align one-to-one with the canonical payload,
so the two transports can interleave freely (the engine falls back to
pickling mid-run if the arena degrades) and a worker applies each
entry exactly once either way. Results travel back the same way:
a worker appends its summary dict to the *exchange* segment and
returns a tiny ``{"@": index}`` descriptor (or the dict itself when
the exchange is unavailable — the parent accepts both).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro import faults
from repro.config import AnalysisConfig
from repro.ir.module import Program
from repro.engine import summaries

#: A wave's return-function transport: the canonical payload itself,
#: or an ("arena", stream_path, upto, exchange_path) marker.
ReturnsRef = Union[List[dict], tuple]


class _WorkerState:
    """Everything one worker needs across task invocations."""

    def __init__(
        self,
        program: Program,
        config: AnalysisConfig,
        prepared: bool = False,
        callgraph=None,
        modref=None,
    ):
        self.program = program
        self.config = config
        self.prepared = prepared
        self.callgraph = callgraph
        self.modref = modref
        from repro.ipcp.return_functions import ReturnFunctionMap

        self.return_map = ReturnFunctionMap()
        self.applied_returns = 0


#: The current worker's state; installed by one of the bootstraps below.
_STATE: Optional[_WorkerState] = None


def _set_state(state: Optional[_WorkerState]) -> None:
    global _STATE
    _STATE = state


def _get_state() -> Optional[_WorkerState]:
    return _STATE


def _traced_call(task, *args):
    """Run ``task`` under a worker-local tracer and ship the events it
    recorded back with the result (Chrome-format dicts pickle fine).

    A fork child inherits the parent's tracer object — detected via
    ``owner_pid`` and replaced with a fresh one so the parent's events
    are not re-shipped; a spawn worker simply has none yet. Either way
    the worker's pid tags its events, giving it its own trace track.
    The tracer persists across tasks in the same worker, so later calls
    ship only the events recorded since the previous one.
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
    :func:`repro.obs.context.current_ids` (or None) — the explicit
    channel that survives both the pickle path and spawn workers,
    where nothing is inherited. ``traced`` says whether to also wrap
    in :func:`_traced_call`; the untraced shape matches it so the
    dispatcher unwraps both the same way.
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


def _init_spawn(text: str, filename: str, config: AnalysisConfig) -> None:
    """Spawn-context initializer: rebuild the program from source."""
    from repro.frontend.parser import parse_source
    from repro.frontend.source import SourceFile
    from repro.ir.lowering import lower_module

    _worker_init()
    module = parse_source(text, filename)
    program = lower_module(module, SourceFile(filename, text))
    _set_state(_WorkerState(program, config))


def _ensure_prepared() -> _WorkerState:
    state = _get_state()
    if state is None:
        raise RuntimeError("engine worker state was never installed")
    if not state.prepared:
        from repro.ipcp.driver import prepare_program

        state.callgraph, state.modref = prepare_program(
            state.program, state.config
        )
        state.prepared = True
    return state


def _prime() -> bool:
    """No-op task submitted at pool start so fork-context workers fork
    (and, in spawn mode, prepare) before the first real wave."""
    _ensure_prepared()
    return True


def _apply_returns(state: _WorkerState, payload: List[dict]) -> None:
    """Fold the unseen tail of the canonical return-function payload
    into this worker's map. Entries are keyed (procedure, target), so
    re-applying one the worker built itself is an idempotent overwrite
    with an equal-valued function."""
    for data in payload[state.applied_returns:]:
        state.return_map.add(
            summaries.decode_return_function(data, state.program)
        )
    state.applied_returns = max(state.applied_returns, len(payload))


def _resolve_returns(state: _WorkerState, returns_ref: ReturnsRef) -> None:
    """Bring this worker's return map up to date from either transport.

    A list is the canonical payload itself (pickle path). A marker
    tuple names the stream arena and how many records are relevant to
    this wave; the worker reads only its unseen tail. Arena failures
    (unlinked segment, checksum mismatch) raise
    :class:`~repro.engine.arena.ArenaError` out of the task — the
    engine catches it, quarantines the arena, and re-dispatches the
    wave over the pickle path.
    """
    if isinstance(returns_ref, list):
        _apply_returns(state, returns_ref)
        return
    _, stream_path, upto, _ = returns_ref
    if state.applied_returns >= upto:
        return
    from repro.engine.arena import SummaryArena

    segment = SummaryArena.attach_cached(stream_path)
    for index in range(state.applied_returns, upto):
        _, _, data = segment.read(index)
        state.return_map.add(
            summaries.decode_return_function(data, state.program)
        )
    state.applied_returns = upto


def _publish_result(
    returns_ref: ReturnsRef, stage: str, results: Dict[str, dict]
) -> Dict[str, dict]:
    """Ship a task's results: through the exchange arena as a
    ``{"@": index}`` descriptor when one is attached, inline otherwise.
    ``"@"`` can never collide with a procedure name (identifiers only).
    An exchange append that fails for any reason degrades to the inline
    dict — never a failed task."""
    if isinstance(returns_ref, list):
        return results
    _, _, _, exchange_path = returns_ref
    if exchange_path is None:
        return results
    from repro.engine import arena as arena_mod

    try:
        segment = arena_mod.SummaryArena.attach_cached(exchange_path)
        index = segment.append(stage, "x", results)
    except Exception:  # noqa: BLE001 — any exchange trouble (full,
        return results  # unlinked, codec) degrades to inline shipping
    return {"@": index}


def _demotions_guard(config: AnalysisConfig):
    """Per-task resilience sink, so each procedure's demotions can be
    shipped back (and cached) with exact attribution."""
    from repro.ipcp.resilience import ResilienceReport

    return ResilienceReport()


def _task_returns(
    component_names: List[List[str]],
    returns_payload: ReturnsRef,
    level: int = 0,
) -> Dict[str, dict]:
    """Build the return jump functions of the given SCCs (each a member
    name list in Tarjan order). All their callees' functions are in
    ``returns_payload`` — same-level components never call each other.
    ``level`` is the condensation level index, carried so the
    ``kill-worker`` fault point can target a specific wave."""
    faults.maybe_kill_worker(stage="ret", level=level)
    state = _ensure_prepared()
    _resolve_returns(state, returns_payload)
    from repro.ipcp.return_functions import build_return_functions_for

    results: Dict[str, dict] = {}
    for names in component_names:
        for name in names:
            procedure = state.program.procedure(name)
            report = _demotions_guard(state.config)
            build_return_functions_for(
                state.program, [procedure], state.return_map, state.modref,
                budget=state.config.budget, resilience=report,
                fault_isolation=state.config.fault_isolation,
            )
            results[name] = {
                "fns": summaries.encode_return_functions_of(
                    state.return_map, name, state.program
                ),
                "dem": summaries.encode_demotions(report),
            }
    return _publish_result(returns_payload, "ret", results)


def _task_forwards(
    procedure_names: List[str], returns_payload: ReturnsRef
) -> Dict[str, dict]:
    """Build the forward jump functions of each named procedure's call
    sites. Independent per procedure: the return map is read-only."""
    faults.maybe_kill_worker(stage="fwd")
    state = _ensure_prepared()
    _resolve_returns(state, returns_payload)
    from repro.ipcp.jump_functions import (
        JumpFunctionTable,
        build_forward_jump_functions_for,
    )

    results: Dict[str, dict] = {}
    for name in procedure_names:
        procedure = state.program.procedure(name)
        table = JumpFunctionTable(state.config.jump_function)
        report = _demotions_guard(state.config)
        build_forward_jump_functions_for(
            state.program, procedure, state.config.jump_function, table,
            state.return_map, gcp_oracle=state.config.gcp_oracle,
            budget=state.config.budget, resilience=report,
            fault_isolation=state.config.fault_isolation,
        )
        results[name] = {
            "fns": summaries.encode_forward_functions_of(
                table, procedure, state.program
            ),
            "dem": summaries.encode_demotions(report),
        }
    return _publish_result(returns_payload, "fwd", results)


def _task_substitution(
    procedure_names: List[str],
    returns_payload: ReturnsRef,
    constants_payload: Union[dict, tuple],
) -> Dict[str, dict]:
    """Measure each named procedure's substitutions against the final
    CONSTANTS sets. Independent per procedure. ``constants_payload`` is
    the encoded-cells dict itself, or a ``("const", path, index)``
    citation of one exchange-arena record holding it."""
    faults.maybe_kill_worker(stage="sub")
    state = _ensure_prepared()
    _resolve_returns(state, returns_payload)
    if not isinstance(constants_payload, dict):
        from repro.engine.arena import SummaryArena

        _, exchange_path, index = constants_payload
        constants_payload = SummaryArena.attach_cached(
            exchange_path
        ).read_payload(index)
    from repro.analysis.sccp import SCCPCallModel
    from repro.ipcp.return_functions import ReturnFunctionCallModel
    from repro.ipcp.substitution import (
        SubstitutionReport,
        measure_substitution_for,
    )

    constants = summaries.decode_constants(constants_payload, state.program)
    if state.config.use_return_functions:
        call_model: SCCPCallModel = ReturnFunctionCallModel(
            state.program, state.return_map
        )
    else:
        call_model = SCCPCallModel()

    results: Dict[str, dict] = {}
    for name in procedure_names:
        procedure = state.program.procedure(name)
        report = SubstitutionReport()
        demotions = _demotions_guard(state.config)
        measure_substitution_for(
            procedure, constants, call_model, report,
            budget=state.config.budget, resilience=demotions,
            fault_isolation=state.config.fault_isolation,
        )
        results[name] = {
            "sub": summaries.encode_substitution_of(report, name),
            "dem": summaries.encode_demotions(demotions),
        }
    return _publish_result(returns_payload, "sub", results)
