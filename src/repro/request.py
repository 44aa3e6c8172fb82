"""One request path for the CLI, ``repro batch`` and the daemon.

Every analysis request wraps the paper's four stages (return jump
functions, forward jump functions, propagation, substitution) in the
same sequence: read the sources, replay a recorded outcome from the run
cache when one serves the request, otherwise analyze — and optionally
optimize — then record the clean outcome and diff the incremental
manifest. :func:`run_request` is that sequence. Its callers only render
the :class:`RequestOutcome` it returns: the CLI prints it, ``batch``
folds it into a per-file summary, and the daemon turns it into a
response.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import AnalysisConfig

#: Request kinds: one program file, a linked project, or one program
#: file analyzed and optimized (report and optimized IR only).
KINDS = ("analyze", "link", "optimize")

#: Outcome statuses, in severity order.
OK = "ok"
DIAGNOSTICS = "diagnostics"
ERROR = "error"

POOL_DEMOTED_NOTE = (
    "analysis engine demoted to in-process serial execution "
    "(worker pool broke twice)"
)


@dataclass(frozen=True)
class Wants:
    """What the caller needs from one request."""

    #: Optimize with these passes after analyzing.
    passes: Optional[Tuple[str, ...]] = None
    #: Render the derivation of this ``NAME@PROC`` cell.
    explain: Optional[str] = None
    #: A replay must carry the ``--stats`` / ``--dump-ir`` renderings.
    stats: bool = False
    ir: bool = False
    #: No frontend recovery: a :class:`FrontendError` propagates.
    strict: bool = False
    #: Replay from and record into the run cache.
    cacheable: bool = True
    #: ``link``: the PROGRAM unit to use as the entry point.
    entry: Optional[str] = None


@dataclass
class RequestOutcome:
    """Everything one request produced. All fields but the live
    ``result`` and ``link`` objects pickle; those two are dropped when
    the outcome crosses a process boundary."""

    #: The file, or a linked project's manifest label.
    path: str
    status: str = OK
    #: Served wholesale from the run cache.
    replayed: bool = False
    config: Optional[str] = None
    constants_report: Optional[str] = None
    total_pairs: int = 0
    substituted: int = 0
    per_procedure: Dict[str, int] = field(default_factory=dict)
    #: Rendered optimization report, its change count, and (``optimize``
    #: kind) the optimized IR text.
    opt_report: Optional[str] = None
    opt_changes: int = 0
    opt_ir: Optional[str] = None
    #: ``InvalidationReport.to_dict()`` (cache-enabled runs only).
    invalidation: Optional[dict] = None
    diagnostics: Optional[str] = None
    has_errors: bool = False
    #: Why the request produced nothing: the raw read error, plus its
    #: ``(location, message)`` form.
    error: Optional[str] = None
    io_error: Optional[Tuple[str, str]] = None
    explain: Optional[str] = None
    explain_error: Optional[str] = None
    #: Degradation notes: demoted components and a demoted pool.
    notes: List[str] = field(default_factory=list)
    #: The replayed run payload (renderings a replay serves from).
    payload: Optional[dict] = None
    result: object = None
    link: object = None

    def __getstate__(self) -> dict:
        return dict(self.__dict__, result=None, link=None)

    @property
    def link_failed(self) -> bool:
        from repro.diagnostics import E_LINK

        return self.link is not None and any(
            d.code == E_LINK for d in self.link.diagnostics.errors()
        )


def run_request(
    kind: str,
    paths: Sequence[str],
    config: AnalysisConfig,
    engine=None,
    wants: Wants = Wants(),
) -> RequestOutcome:
    """Replay or analyze ``paths`` as one ``kind`` request.

    ``engine`` may be None (the plain serial pipeline). Its
    ``checkpoint`` hook, when set, runs before a live analysis and
    inside the engine's stages; raising aborts the request.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown request kind {kind!r}")
    named, failure = read_sources(paths)
    if failure is not None:
        return _read_failure(*failure)
    text = request_text(kind, named, wants.entry)
    if kind == "link":
        from repro.linkage import project_label

        outcome = RequestOutcome(project_label(paths, wants.entry))
    else:
        outcome = RequestOutcome(paths[0])

    cache = engine.cache if engine is not None else None
    recording = cache is not None and wants.cacheable
    if recording and _replay(kind, text, config, engine, wants, outcome):
        _note_pool(engine, outcome)
        return outcome

    if engine is not None and engine.checkpoint is not None:
        engine.checkpoint()
    result, diagnostics = _analyze(kind, named, config, engine, wants, outcome)
    if len(diagnostics) or result is None:
        outcome.diagnostics = diagnostics.format()
    outcome.has_errors = diagnostics.has_errors
    if result is None:
        outcome.status = DIAGNOSTICS
        _note_pool(engine, outcome)
        return outcome
    outcome.result = result
    outcome.config = config.describe()
    outcome.constants_report = result.constants.format_report()
    outcome.total_pairs = result.constants.total_pairs()
    outcome.substituted = result.substituted_constants
    outcome.per_procedure = dict(result.substitution.per_procedure)

    provenance = None
    if wants.explain is not None:
        from repro.obs.provenance import build_provenance

        provenance = build_provenance(result)
    if recording and kind != "optimize":
        engine.record_run(text, config, result)
    if wants.passes is not None:
        from repro.ir.printer import format_program
        from repro.opt import optimize_result

        report = optimize_result(result, wants.passes, verify=config.verify_ir)
        outcome.opt_report = report.render()
        outcome.opt_changes = report.total_changes
        if kind == "optimize":
            outcome.opt_ir = format_program(result.program)
        if provenance is not None:
            provenance.annotate_used_by(report.used_by)
        if recording:
            engine.record_opt(text, config, wants.passes, result, report)
    if cache is not None and kind != "optimize":
        report = engine.finish_incremental(outcome.path)
        if report is not None:
            outcome.invalidation = report.to_dict()
    if provenance is not None:
        _explain(provenance, wants.explain, outcome)
    outcome.notes = [demotion.render() for demotion in result.resilience]
    _note_pool(engine, outcome)
    return outcome


def read_sources(paths: Sequence[str]):
    """``([(path, text)], None)``, or ``(None, (path, error))`` for the
    first path that cannot be read as UTF-8 text."""
    named = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                named.append((path, handle.read()))
        except (OSError, UnicodeDecodeError) as err:
            return None, (path, err)
    return named, None


def request_text(kind: str, named, entry: Optional[str] = None) -> str:
    """The text a request's run-cache entries are keyed on: the one
    source, or a linked project's bundle text."""
    if kind == "link":
        from repro.linkage import project_bundle_text

        return project_bundle_text(named, entry)
    return named[0][1]


def _read_failure(path: str, err: Exception) -> RequestOutcome:
    from repro.ipcp.driver import _located_io_error

    located = _located_io_error(path, err)
    return RequestOutcome(
        path, status=ERROR, error=str(err), has_errors=True,
        io_error=(str(located.location), located.message),
    )


def _replay(kind, text, config, engine, wants, outcome) -> bool:
    """Fill ``outcome`` from the run cache when a recorded outcome
    serves every rendering the request wants."""
    if kind == "optimize":
        payload = engine.cached_opt(text, config, wants.passes)
        if payload is None or payload.get("ir") is None:
            return False
        outcome.config = payload["config"]
        outcome.opt_report = payload["report"]
        outcome.opt_ir = payload["ir"]
        outcome.replayed = True
        return True
    payload = engine.cached_run(text, config)
    # With optimization a replay needs both recorded outcomes: the
    # optimizer mutates the program, so it cannot run on a replay.
    opt_payload = (
        engine.cached_opt(text, config, wants.passes)
        if wants.passes is not None else None
    )
    if payload is None or not _payload_serves(payload, wants):
        return False
    if wants.passes is not None and opt_payload is None:
        return False
    outcome.replayed = True
    outcome.payload = payload
    outcome.config = payload["config"]
    outcome.constants_report = payload["constants_report"]
    outcome.total_pairs = payload["total_pairs"]
    outcome.substituted = payload["substituted"]
    outcome.per_procedure = dict(payload["per_procedure"])
    if opt_payload is not None:
        outcome.opt_report = opt_payload["report"]
        outcome.opt_changes = opt_payload["opt"]["total_changes"]
    outcome.invalidation = engine.replayed_report(outcome.path).to_dict()
    if wants.explain is not None:
        from repro.obs.provenance import ConstantProvenance

        provenance = ConstantProvenance.from_payload(payload["provenance"])
        _explain(provenance, wants.explain, outcome)
    return True


def _payload_serves(payload: dict, wants: Wants) -> bool:
    """Payloads record a rendering as None when it failed at store
    time; such runs fall through to a live analysis rather than
    silently dropping a section."""
    if wants.ir and payload.get("ir") is None:
        return False
    if wants.stats and payload.get("stats") is None:
        return False
    if wants.explain is not None:
        from repro.obs.provenance import ConstantProvenance

        return ConstantProvenance.from_payload(payload.get("provenance")) is not None
    return True


def _analyze(kind, named, config, engine, wants, outcome):
    """The live analysis: ``(result, diagnostics)``."""
    if kind == "link":
        from repro.linkage import analyze_linked_sources

        result, outcome.link = analyze_linked_sources(
            named, config, entry=wants.entry, engine=engine
        )
        return result, outcome.link.diagnostics
    from repro.diagnostics import DiagnosticEngine
    from repro.ipcp.driver import analyze_source, analyze_source_resilient

    path, text = named[0]
    if wants.strict:
        return analyze_source(text, config, path, engine), DiagnosticEngine()
    return analyze_source_resilient(text, config, path, engine=engine)


def _explain(provenance, cell: str, outcome: RequestOutcome) -> None:
    try:
        outcome.explain = provenance.explain(cell)
    except ValueError as err:
        outcome.explain_error = str(err)


def _note_pool(engine, outcome: RequestOutcome) -> None:
    if engine is not None and engine.pool_demoted:
        outcome.notes.append(POOL_DEMOTED_NOTE)
