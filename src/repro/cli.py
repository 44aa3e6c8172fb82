"""Command-line interface.

Subcommands:

- ``analyze FILE`` — run one configuration on a MiniFortran program and
  report CONSTANTS sets, substitution counts, and (optionally) the
  transformed source or the IR;
- ``link FILE...`` — resolve many files into one whole program
  (EXTERNAL/COMMON linkage, ``--entry`` selection) and analyze the
  linked call graph; link failures exit 2 with ``E005`` diagnostics;
- ``optimize FILE`` — run the IPCP-driven optimization pipeline
  (constant folding, branch folding + DCE, loop unswitching, call
  argument materialization) and report per-pass changes; ``analyze``/
  ``link``/``batch`` expose the same pipeline as ``--optimize``;
- ``compare FILE`` — run all four forward jump functions side by side;
- ``run FILE`` — execute a program with the reference interpreter;
- ``clone FILE`` — goal-directed procedure cloning, before/after;
- ``integrate FILE`` — Wegman-Zadeck procedure integration, before/after;
- ``serve --socket PATH`` — long-lived analysis daemon on a unix
  socket: warm cache answers, bounded queue with overload shedding,
  per-request deadlines, graceful signal-driven drain;
- ``client OP [FILE] --socket PATH`` — query a running daemon
  (``analyze``/``explain``/``invalidate``/``status``/``shutdown``);
- ``suite`` — write the 12 benchmark programs to disk as .f files;
- ``tables`` — regenerate the study's Tables 1-3 on the bundled
  benchmark suite;
- ``oracle`` — differential-testing campaign: N seeded random programs
  executed through the reference interpreter and cross-checked against
  the analysis (soundness, semantic preservation, budget monotonicity),
  with failing cases minimized and written to a corpus directory.

``analyze``, ``link``, ``batch``, ``optimize`` and ``serve`` declare
their flags once, in the option table :data:`_OPTIONS`; each analysis
request runs through :func:`repro.request.run_request`, and this module
only renders its outcome.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, NamedTuple, Optional, Tuple

from repro.config import AnalysisBudget, AnalysisConfig, BudgetExceeded, JumpFunctionKind
from repro.frontend.errors import FrontendError
from repro.ipcp.driver import analyze_file
from repro.ir.verify import VerificationError

#: Exit codes (``analyze`` subcommand): 0 = clean analysis, 1 = source
#: diagnostics were reported, 2 = internal failure (IR verification,
#: budget escape with fault isolation off, unexpected crash).
#: Long-running subcommands (``batch``, ``serve``) exit with the
#: conventional 128+signum codes after a signal-driven drain.
EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_INTERNAL = 2
EXIT_SIGINT = 130
EXIT_SIGTERM = 143


class _SignalInterrupt(Exception):
    """Raised by the batch signal handlers so an in-flight pool wait
    unwinds through ordinary exception handling (clean shutdown, flush,
    conventional exit code) instead of dying in a traceback."""

    def __init__(self, signum: int):
        super().__init__(f"interrupted by signal {signum}")
        self.signum = signum


def _install_interrupt_handlers():
    """Route SIGINT/SIGTERM into :class:`_SignalInterrupt`; returns the
    previous handlers for restoration (no-op off the main thread)."""
    import signal

    def _handler(signum, frame):
        raise _SignalInterrupt(signum)

    previous = {}
    for name in ("SIGINT", "SIGTERM"):
        signum = getattr(signal, name, None)
        if signum is None:
            continue
        try:
            previous[signum] = signal.signal(signum, _handler)
        except (ValueError, OSError):
            pass
    return previous


def _restore_interrupt_handlers(previous) -> None:
    import signal

    for signum, old in previous.items():
        try:
            signal.signal(signum, old)
        except (ValueError, OSError):
            pass

_KIND_ALIASES = {
    "literal": JumpFunctionKind.LITERAL,
    "intra": JumpFunctionKind.INTRAPROCEDURAL,
    "intraprocedural": JumpFunctionKind.INTRAPROCEDURAL,
    "pass": JumpFunctionKind.PASS_THROUGH,
    "pass-through": JumpFunctionKind.PASS_THROUGH,
    "poly": JumpFunctionKind.POLYNOMIAL,
    "polynomial": JumpFunctionKind.POLYNOMIAL,
}

#: The request-path subcommands and their one-line help, in the order
#: ``--help`` lists them.
_REQUEST_COMMANDS = {
    "analyze": "analyze one program",
    "link": "link many files into one whole program and analyze it",
    "batch": "analyze many programs against one worker pool",
    "optimize": "run the IPCP-driven optimization pipeline on one program",
    "serve": "run the long-lived analysis daemon on a unix socket",
}
_RUN = ("analyze", "link", "batch", "optimize")
_ALL = _RUN + ("serve",)


class _Option(NamedTuple):
    """One flag, declared once: its spellings, the subcommands that
    take it, its ``add_argument`` keywords, and per-subcommand keyword
    overrides (mostly help text)."""

    flags: Tuple[str, ...]
    commands: Tuple[str, ...]
    kwargs: dict
    overrides: dict

    @property
    def dest(self) -> str:
        return self.flags[-1].lstrip("-").replace("-", "_")

    @property
    def default(self):
        if self.kwargs.get("action") == "store_true":
            return False
        return self.kwargs.get("default")


def _opt(flags, commands, overrides=None, **kwargs) -> _Option:
    if isinstance(flags, str):
        flags = (flags,)
    return _Option(tuple(flags), commands, kwargs, overrides or {})


def _flag(flags, commands, help, overrides=None) -> _Option:
    return _opt(flags, commands, overrides, action="store_true", help=help)


_OPTIONS = (
    _opt("file", ("analyze", "optimize"), help="MiniFortran source file"),
    _opt("files", ("link", "batch"),
         {"batch": dict(nargs="*", help="MiniFortran source files")},
         nargs="+", metavar="FILE",
         help="MiniFortran source files forming one program"),
    _opt("--socket", ("serve",), required=True, metavar="PATH",
         help="unix socket path to listen on"),
    _flag("--stdin-list", ("batch",),
          "read additional file paths from stdin, one per line "
          "('#' lines are comments)"),
    _opt("--entry", ("link", "batch"),
         {"batch": dict(help="with --link: PROGRAM unit to use as the "
                        "entry point")},
         default=None, metavar="NAME",
         help="PROGRAM unit to use as the entry point (required when "
         "the files define more than one)"),
    # The analysis configuration.
    _opt("--jump", _ALL, default="poly", choices=sorted(_KIND_ALIASES),
         help="forward jump function implementation (default: poly)"),
    _flag("--no-returns", _ALL, "disable return jump functions"),
    _flag("--no-mod", _ALL, "disable MOD side-effect information"),
    _flag("--complete", _ALL,
          "iterate propagation with dead-code elimination"),
    _flag("--intra-only", _ALL,
          "purely intraprocedural propagation (with MOD)"),
    _flag("--gsa", _ALL,
          "GSA-style refinement (complete-propagation results, no DCE)"),
    _opt("--solver-fuel", _ALL, type=int, default=None, metavar="N",
         help="cap interprocedural propagation at N procedure visits"),
    _opt("--sccp-fuel", _ALL, type=int, default=None, metavar="N",
         help="cap each SCCP run at N instruction evaluations"),
    _opt("--max-poly-terms", _ALL, type=int, default=None, metavar="N",
         help="demote polynomial jump functions larger than N terms"),
    _opt("--solver", _ALL, default="fifo",
         choices=("fifo", "lifo", "priority"),
         help="interprocedural worklist discipline (default: fifo; the "
         "fixpoint is identical, only the work differs)"),
    # Renderings and run modes.
    _flag("--transform", ("analyze",),
          "print the source with constants substituted"),
    _flag("--dump-ir", ("analyze", "link", "optimize"),
          "print the SSA IR after analysis",
          {"optimize": dict(help="print the optimized (post-SSA) IR")}),
    _flag("--stats", ("analyze", "link"), "print analysis statistics"),
    _opt("--explain", ("analyze", "link"),
         {"link": dict(help="print the derivation tree of one VAL cell "
                       "of the linked program")},
         default=None, metavar="NAME@PROC",
         help="print the derivation tree of one VAL cell: how the value "
         "of NAME at PROC's entry was established (or which call-site "
         "meet killed it)"),
    _opt("--dot", ("analyze",), metavar="DIR", default=None,
         help="write Graphviz files (call graph + one CFG per procedure)"),
    _flag("--symbols", ("link",),
          "print the program-level symbol table (unit -> defining "
          "file, COMMON block -> first declaration)"),
    _flag("--strict", ("analyze",),
          "fail fast: no frontend recovery, no fault isolation, and "
          "any component demotion is an error"),
    _flag("--verify-ir", ("analyze", "optimize"),
          "run the structural IR/SSA verifier between pipeline stages",
          {"optimize": dict(help="run the structural IR verifier after "
                            "every optimization pass (disables the "
                            "warm-cache replay path)")}),
    _flag("--report", ("batch",),
          "print each file's full CONSTANTS report, not just the "
          "one-line summary"),
    _flag("--link", ("batch",),
          "treat the files as one whole program (EXTERNAL/COMMON "
          "linkage) instead of N independent closed programs"),
    _flag("--optimize", ("analyze", "link", "batch"),
          "run the IPCP-driven optimization pipeline on the analyzed "
          "program and report per-pass changes"),
    _opt("--passes", _RUN,
         {"optimize": dict(help="comma-separated pass subset "
                           "(fold,branches,unswitch,callargs; default: "
                           "all)")},
         default=None, metavar="LIST",
         help="with --optimize: comma-separated pass subset "
         "(fold,branches,unswitch,callargs; default: all)"),
    _opt(("-o", "--output"), ("optimize",), default=None, metavar="FILE",
         help="write the optimized IR text to FILE"),
    # The engine, its caches, and the telemetry sinks.
    _opt("--jobs", _ALL,
         {"batch": dict(help="analyze files on N persistent pool workers "
                        "(default: 1; per-file results are byte-identical "
                        "at any N)"),
          "serve": dict(help="engine worker pool size for each analysis "
                        "(default: 1 = serial; results are "
                        "byte-identical)")},
         type=int, default=1, metavar="N",
         help="generate procedure summaries on N parallel workers "
         "(default: 1 = serial; results are byte-identical)"),
    _flag("--cache", _RUN,
          "reuse procedure summaries across runs via the persistent "
          "cache (default location; see --cache-dir)"),
    _opt("--cache-dir", _ALL,
         {"serve": dict(help="persistent cache directory (default: the "
                        "standard cache root — a daemon without its "
                        "caches answers nothing warm)")},
         default=None, metavar="DIR",
         help="persistent summary cache directory (implies --cache; "
         "default: $REPRO_CACHE_DIR, $XDG_CACHE_HOME/repro, or "
         "~/.cache/repro)"),
    _flag("--no-cache", ("serve",),
          "run without the persistent cache (every analyze is cold)"),
    _opt("--profile", _RUN, nargs="?", const="-", default=None,
         metavar="FILE",
         help="emit per-stage timings and counters as JSON to FILE "
         "(default: stdout)"),
    _flag("--explain-invalidation", _RUN,
          "with --cache: report which procedures were recomputed "
          "since the previous run of each file, and why"),
    _opt("--trace", _ALL,
         {"serve": dict(help="write Chrome trace-event JSON to FILE at "
                        "drain")},
         default=None, metavar="FILE",
         help="record structured trace events and write Chrome "
         "trace-event JSON to FILE (loadable in Perfetto / "
         "chrome://tracing)"),
    _opt("--metrics", _ALL,
         {"serve": dict(help="write Prometheus text-format metrics to "
                        "FILE at drain")},
         default=None, metavar="FILE",
         help="write Prometheus text-format metrics to FILE "
         "('-' = stdout)"),
    _opt("--log", _ALL,
         {"serve": dict(help="write a structured JSON-lines request log "
                        "to FILE ('-' = stderr); every record carries a "
                        "request_id")},
         default=None, metavar="FILE",
         help="write a structured JSON-lines log to FILE ('-' = stderr); "
         "every record carries the invocation's request_id/trace_id"),
    _opt("--log-level", _ALL, default="info",
         choices=("debug", "info", "warn", "error"),
         help="minimum severity for --log records (default: info)"),
    # The daemon's serving policy.
    _opt("--queue-limit", ("serve",), type=int, default=16, metavar="N",
         help="bounded request queue depth; beyond it requests are shed "
         "with an 'overloaded' error and a retry_after hint (default: 16)"),
    _opt("--deadline", ("serve",), type=float, default=30.0,
         metavar="SECONDS",
         help="default per-request deadline; requests may override via "
         "params.deadline_ms; 0 = unlimited (default: 30)"),
    _opt("--drain-timeout", ("serve",), type=float, default=5.0,
         metavar="SECONDS",
         help="grace period for queued/in-flight work after SIGTERM/"
         "SIGINT/shutdown before the rest is cancelled (default: 5)"),
    _opt("--slow-request", ("serve",), type=float, default=None,
         metavar="SECONDS",
         help="log a 'request.slow' record (stage timings + cache "
         "profile) for any request slower than SECONDS end to end"),
    _opt("--obs-window", ("serve",), type=int, default=256, metavar="N",
         help="per-request ring buffer capacity behind 'repro top' and "
         "the 'obs' protocol op (default: 256)"),
    _opt("--inject-fault", ("serve",), action="append", default=[],
         metavar="SPEC",
         help="arm a deterministic fault (repeatable), e.g. "
         "'kill-worker:stage=ret,nth=1' or 'delay-request:ms=200'; "
         "see repro.faults for the registry"),
)


class RunConfig:
    """Every setting of one request-path invocation.

    Each attribute starts at its option's default, so code that reads
    a flag another subcommand does not declare sees the default rather
    than a missing attribute; :meth:`set_from_args` overlays what the
    parsed subcommand declared. The builders below turn the settings
    into an :class:`AnalysisConfig`, an engine, and a ``ServeConfig``.
    """

    def __init__(self):
        self.command: Optional[str] = None
        for option in _OPTIONS:
            setattr(self, option.dest, option.default)

    def set_from_args(self, args: argparse.Namespace) -> "RunConfig":
        for key, value in vars(args).items():
            setattr(self, key, value)
        return self

    def analysis_config(self) -> AnalysisConfig:
        if self.intra_only:
            config = AnalysisConfig.intraprocedural_only()
        else:
            config = AnalysisConfig(
                jump_function=_KIND_ALIASES[self.jump],
                use_return_functions=not self.no_returns,
                use_mod=not self.no_mod,
                complete=self.complete,
                gsa_refinement=self.gsa,
            )
        budget = AnalysisBudget(
            solver_visits=self.solver_fuel,
            sccp_visits=self.sccp_fuel,
            polynomial_terms=self.max_poly_terms,
        )
        return replace(
            config,
            budget=budget,
            solver_strategy=self.solver,
            fault_isolation=not self.strict,
            verify_ir=self.verify_ir,
        )

    def cache_dir_or_none(self) -> Optional[str]:
        """The summary cache directory when any cache flag asks for
        one (``--cache``, ``--cache-dir``, ``--explain-invalidation``)."""
        if not (self.cache or self.cache_dir is not None
                or self.explain_invalidation):
            return None
        from repro.engine import default_cache_root

        return self.cache_dir or default_cache_root()

    def engine(self):
        """An :class:`repro.engine.Engine` when any engine feature is
        requested; None (the plain serial pipeline) otherwise."""
        cache_dir = self.cache_dir_or_none()
        if self.jobs <= 1 and cache_dir is None and self.profile is None:
            return None
        from repro.engine import Engine
        from repro.profiling import PipelineProfile

        profile = PipelineProfile() if self.profile is not None else None
        return Engine(jobs=self.jobs, cache_dir=cache_dir, profile=profile)

    def serve_config(self):
        from repro.engine import default_cache_root
        from repro.serve.server import ServeConfig

        return ServeConfig(
            socket_path=self.socket,
            analysis=self.analysis_config(),
            jobs=self.jobs,
            cache_dir=(
                None if self.no_cache
                else (self.cache_dir or default_cache_root())
            ),
            queue_limit=self.queue_limit,
            default_deadline_s=self.deadline if self.deadline > 0 else None,
            drain_timeout_s=self.drain_timeout,
            metrics_path=self.metrics,
            trace_path=self.trace,
            log_path=self.log,
            log_level=self.log_level,
            slow_request_s=self.slow_request,
            obs_window=self.obs_window,
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ipcp",
        description="Interprocedural constant propagation with jump functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, summary in _REQUEST_COMMANDS.items():
        subparser = sub.add_parser(command, help=summary)
        for option in _OPTIONS:
            if command in option.commands:
                subparser.add_argument(
                    *option.flags,
                    **dict(option.kwargs, **option.overrides.get(command, {})),
                )

    client = sub.add_parser(
        "client", help="query a running 'repro serve' daemon"
    )
    client.add_argument(
        "op", choices=("analyze", "explain", "invalidate", "status",
                       "obs", "shutdown"),
        help="operation to request",
    )
    client.add_argument(
        "file", nargs="*", default=[],
        help="input file (analyze/explain/invalidate); several files "
        "are sent as one linked-project manifest",
    )
    client.add_argument(
        "--socket", required=True, metavar="PATH",
        help="unix socket path of the daemon",
    )
    client.add_argument(
        "--entry", default=None, metavar="NAME",
        help="entry PROGRAM unit for a linked-project request",
    )
    client.add_argument(
        "--explain", default=None, metavar="NAME@PROC",
        help="also render the derivation of one VAL cell "
        "(analyze/explain)",
    )
    client.add_argument(
        "--deadline-ms", type=int, default=None, metavar="N",
        help="per-request deadline override in milliseconds",
    )
    client.add_argument(
        "--timeout", type=float, default=30.0, metavar="SECONDS",
        help="client-side socket timeout (default: 30)",
    )
    client.add_argument(
        "--json", action="store_true",
        help="print the raw response envelope as JSON",
    )
    client.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="op 'obs': newest ring-buffer requests to include",
    )

    top = sub.add_parser(
        "top",
        help="live per-request view of a running daemon (polls the "
        "'obs' op)",
    )
    top.add_argument(
        "--socket", required=True, metavar="PATH",
        help="unix socket path of the daemon",
    )
    top.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh interval (default: 2)",
    )
    top.add_argument(
        "--iterations", type=int, default=0, metavar="N",
        help="stop after N refreshes (default: 0 = until interrupted)",
    )
    top.add_argument(
        "--limit", type=int, default=10, metavar="N",
        help="newest ring-buffer requests to show (default: 10)",
    )
    top.add_argument(
        "--timeout", type=float, default=30.0, metavar="SECONDS",
        help="client-side socket timeout (default: 30)",
    )

    obs = sub.add_parser(
        "obs", help="offline telemetry analysis (logs, traces, metrics)"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report",
        help="join telemetry artifacts by request_id into a "
        "per-request stage breakdown table",
    )
    obs_report.add_argument(
        "artifact", nargs="+", metavar="TRACE_OR_LOG",
        help="artifact files: JSONL logs (--log), Chrome traces "
        "(--trace), Prometheus metrics (--metrics); kinds are "
        "auto-detected from content",
    )

    compare = sub.add_parser("compare", help="compare all four jump functions")
    compare.add_argument("file", help="MiniFortran source file")

    run = sub.add_parser("run", help="execute a program with the interpreter")
    run.add_argument("file", help="MiniFortran source file")
    run.add_argument(
        "--input",
        type=int,
        action="append",
        default=[],
        help="integer fed to READ statements (repeatable)",
    )
    run.add_argument(
        "--fuel", type=int, default=10_000_000, help="instruction budget"
    )

    clone = sub.add_parser("clone", help="procedure cloning on conflicts")
    clone.add_argument("file", help="MiniFortran source file")
    clone.add_argument(
        "--max-clones", type=int, default=4, help="clones per procedure cap"
    )

    integrate = sub.add_parser(
        "integrate", help="procedure integration (Wegman-Zadeck comparator)"
    )
    integrate.add_argument("file", help="MiniFortran source file")
    integrate.add_argument("--depth", type=int, default=6, help="inline rounds")

    suite = sub.add_parser(
        "suite", help="write the benchmark suite programs to a directory"
    )
    suite.add_argument(
        "--out", default="suite_programs", help="output directory"
    )

    tables = sub.add_parser("tables", help="regenerate the paper's tables")
    tables.add_argument(
        "--table",
        type=int,
        choices=(1, 2, 3),
        default=None,
        help="which table (default: all)",
    )

    oracle = sub.add_parser(
        "oracle", help="run the interpreter-backed differential oracle"
    )
    oracle.add_argument(
        "--trials", type=int, default=50, metavar="N",
        help="number of seeded trials (default: 50)",
    )
    oracle.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="first seed; trials use S..S+N-1 (default: 0)",
    )
    oracle.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="directory for minimized counterexamples (only written on failure)",
    )
    oracle.add_argument(
        "--procedures", type=int, default=None, metavar="K",
        help="procedures per generated program",
    )
    oracle.add_argument(
        "--max-statements", type=int, default=None, metavar="M",
        help="statement budget per generated procedure",
    )
    oracle.add_argument(
        "--property",
        action="append",
        choices=("soundness", "preservation", "monotonicity"),
        default=None,
        help="check only these properties (repeatable; default: all)",
    )
    oracle.add_argument(
        "--no-minimize", action="store_true",
        help="skip counterexample shrinking on failure",
    )
    oracle.add_argument(
        "--link-trials", type=int, default=None, metavar="N",
        help="run N partition-invariance trials instead of the "
        "standard campaign: each seeded program is split into K files "
        "(with generated EXTERNAL declarations), linked, and the "
        "linked analysis must be byte-identical to the unsplit one",
    )
    oracle.add_argument(
        "--opt-trials", type=int, default=None, metavar="N",
        help="run N differential-equivalence trials instead of the "
        "standard campaign: each seeded program is optimized under "
        "every pass subset and must interpret byte-identically to the "
        "unoptimized original; failures are minimized like the "
        "soundness campaign's",
    )
    oracle.add_argument(
        "--max-partitions", type=int, default=4, metavar="K",
        help="with --link-trials: maximum number of files per split "
        "(default: 4)",
    )
    oracle.add_argument(
        "--profile",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="emit campaign stage timings and counters (memo hits, "
        "parses) as JSON to FILE (default: stdout)",
    )
    return parser


def _render_substitution_counts(per_procedure) -> None:
    for name in sorted(per_procedure):
        count = per_procedure[name]
        if count:
            print(f"  {name}: {count}")


def _emit_profile(engine, destination: str) -> None:
    engine.finish_profile()
    from repro import profiling

    engine.profile.merge_counters(profiling.global_counters())
    _write_profile(engine.profile.to_json(), destination)


def _write_profile(text: str, destination: str) -> None:
    """``--profile``: JSON to stdout (``-``) or to a file."""
    if destination == "-":
        print("\n--- profile ---")
        print(text)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"[profile written to {destination}]")


def _start_trace(run: RunConfig):
    """Install the process tracer when ``--trace`` was given."""
    if run.trace is None:
        return None
    from repro.obs import trace

    return trace.enable()


def _write_trace(run: RunConfig, tracer) -> None:
    if tracer is None:
        return
    import json

    from repro.obs import trace

    trace.disable()
    payload = tracer.to_chrome()
    with open(run.trace, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")
    print(
        f"[trace written to {run.trace} "
        f"({len(payload['traceEvents'])} events)]",
        file=sys.stderr,
    )


def _write_metrics(run: RunConfig, registry=None) -> None:
    if run.metrics is None:
        return
    from repro.obs import metrics

    text = (registry or metrics.default_registry()).to_prometheus()
    if run.metrics == "-":
        sys.stdout.write(text)
    else:
        with open(run.metrics, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"[metrics written to {run.metrics}]", file=sys.stderr)


def _start_obs(run: RunConfig, command: str):
    """Begin request-scoped telemetry for one CLI invocation: enable
    ``--log`` if given, and install a ``cli-<command>`` correlation
    context whenever any telemetry sink (log or trace) is active, so
    every record and every worker flow carries the same ids.

    Returns ``(logger, context)`` for :func:`_finish_obs`.
    """
    logger = None
    context = None
    if run.log is not None:
        from repro.obs import log as obs_log

        logger = obs_log.enable(run.log, level=run.log_level)
    if logger is not None or run.trace is not None:
        from repro.obs import context as obs_context

        context = obs_context.RequestContext(f"cli-{command}")
        obs_context.set_context(context)
    if logger is not None:
        from repro.obs import log as obs_log

        obs_log.info("cli.start", command=command)
    return logger, context


def _flow_root(context, **attrs) -> None:
    """Emit the invocation's flow-root event (inside the root span):
    pool workers stitch to it with "t" steps sharing the same id."""
    if context is None:
        return
    from repro.obs import context as obs_context
    from repro.obs import trace

    if trace.ENABLED:
        trace.flow(
            "request", "s", obs_context.flow_id(context.request_id),
            request_id=context.request_id, **attrs,
        )


def _finish_obs(run: RunConfig, logger, context,
                exit_code=None) -> None:
    if logger is not None:
        from repro.obs import log as obs_log

        obs_log.info("cli.end", exit_code=exit_code)
        obs_log.disable()
        if run.log != "-":
            print(
                f"[log written to {run.log} "
                f"({logger.records_written} records)]",
                file=sys.stderr,
            )
    if context is not None:
        from repro.obs import context as obs_context

        if obs_context.current() is context:
            obs_context.clear()


def _cmd_request(run: RunConfig) -> int:
    """``analyze``, ``link``, ``optimize`` and ``batch --link``: one
    :func:`repro.request.run_request` call between the engine and
    telemetry set-up and teardown, then one rendering."""
    from repro.obs import trace
    from repro.request import Wants, run_request

    kind = "link" if run.command == "batch" else run.command
    paths = run.files if kind == "link" else [run.file]
    config = run.analysis_config()
    engine = run.engine()
    tracer = _start_trace(run)
    logger, context = _start_obs(run, kind)
    code: Optional[int] = None
    try:
        if kind == "link":
            span_attrs = flow_attrs = {"files": len(paths)}
        else:
            span_attrs, flow_attrs = {"file": run.file}, {"path": run.file}
        with trace.span(kind, **span_attrs,
                        request_id=context.request_id if context else None):
            _flow_root(context, op=kind, **flow_attrs)
            passes = None
            if run.optimize or kind == "optimize":
                from repro.opt import parse_passes

                try:
                    passes = parse_passes(run.passes)
                except ValueError as err:
                    print(f"optimize: {err}", file=sys.stderr)
                    code = EXIT_DIAGNOSTICS
                    return code
            # Modes that need the live program (dot files), strict mode,
            # the IR verifier, and analyze/link's optimization neither
            # replay from nor record into the run cache.
            wants = Wants(
                passes=passes, explain=run.explain or None, stats=run.stats,
                ir=run.dump_ir, strict=run.strict, entry=run.entry,
                cacheable=not (
                    run.dot or run.strict or run.verify_ir
                    or (passes is not None and kind != "optimize")
                ),
            )
            outcome = run_request(kind, paths, config, engine, wants)
            code = _render_request(kind, run, outcome)
            return code
    finally:
        if engine is not None:
            if engine.profile is not None:
                _emit_profile(engine, run.profile)
            engine.close()
        _write_trace(run, tracer)
        _write_metrics(run)
        _finish_obs(run, logger, context, exit_code=code)


def _render_request(kind: str, run: RunConfig, outcome) -> int:
    """Print one request outcome; live and replayed outcomes render
    byte-identically. Returns the exit code."""
    from repro.diagnostics import E_IO
    from repro.request import OK

    if outcome.io_error is not None:
        # Unreadable input: reported the way the analysis front end
        # reports it (a located E_IO diagnostic), or, when linking or
        # strict, as a plain located error.
        where, message = outcome.io_error
        code = "" if kind == "link" or run.strict else f"[{E_IO}]"
        print(f"{where}: error{code}: {message}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    if outcome.diagnostics:
        print(outcome.diagnostics, file=sys.stderr)
    if outcome.status != OK:
        return EXIT_INTERNAL if outcome.link_failed else EXIT_DIAGNOSTICS
    result, payload = outcome.result, outcome.payload
    print(f"configuration: {outcome.config}")
    code = EXIT_OK
    if kind == "optimize":
        print(outcome.opt_report)
        if run.dump_ir:
            print("\n--- optimized IR ---")
            print(outcome.opt_ir)
        if run.output:
            with open(run.output, "w", encoding="utf-8") as handle:
                handle.write(outcome.opt_ir + "\n")
            print(f"[optimized IR written to {run.output}]")
    else:
        if kind == "link" and result is not None:
            print(f"linked {len(run.files)} file(s) -> "
                  f"{sum(1 for _ in result.program)} procedure(s)")
            if run.symbols:
                print("\n--- symbol table ---")
                print(outcome.link.format_symbol_table())
        print(outcome.constants_report)
        print(f"substituted constant references: {outcome.substituted}")
        _render_substitution_counts(outcome.per_procedure)
        if outcome.opt_report is not None:
            print(outcome.opt_report)
        if run.explain:
            print(f"\n--- explain {run.explain} ---")
            if outcome.explain_error is not None:
                print(f"explain: {outcome.explain_error}", file=sys.stderr)
                code = EXIT_DIAGNOSTICS
            else:
                sys.stdout.write(outcome.explain)
        if run.transform:
            text = (
                payload.get("transformed_source") if outcome.replayed
                else result.transformed_source()
            )
            if text is not None:
                print("\n--- transformed source ---")
                print(text)
        if run.dump_ir:
            from repro.ir.printer import format_program

            header = "SSA IR" if outcome.opt_report is None else "optimized IR"
            print(f"\n--- {header} ---")
            print(payload["ir"] if outcome.replayed
                  else format_program(result.program))
        if run.stats:
            from repro.ipcp.stats import collect_statistics

            print("\n--- statistics ---")
            print(payload["stats"] if outcome.replayed
                  else collect_statistics(result).format())
        if run.dot:
            from repro.ir.dot import write_dot_files

            written = write_dot_files(
                result.program, result.callgraph, run.dot, result.constants
            )
            print(f"[{len(written)} Graphviz files written to {run.dot}]")
        if run.explain_invalidation and outcome.invalidation is not None:
            from repro.engine.incremental import format_invalidation

            print("\n--- invalidation ---")
            print(format_invalidation(outcome.invalidation))
    if result is not None and not result.resilience.ok:
        print("\n--- degraded components ---", file=sys.stderr)
        print(result.resilience.summary(), file=sys.stderr)
        if run.strict:
            return EXIT_INTERNAL
    if outcome.has_errors:
        return EXIT_DIAGNOSTICS
    return code


def _cmd_batch(run: RunConfig) -> int:
    import json

    from repro.engine.batch import read_stdin_list, run_batch
    from repro.engine.incremental import format_invalidation

    opt_passes = None
    if run.optimize and not run.link:
        from repro.opt import parse_passes

        try:
            opt_passes = parse_passes(run.passes)
        except ValueError as err:
            print(f"optimize: {err}", file=sys.stderr)
            return EXIT_DIAGNOSTICS
    paths = list(run.files)
    if run.stdin_list:
        paths.extend(read_stdin_list(sys.stdin))
    if not paths:
        print("batch: no input files", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    if run.link:
        # Whole-program mode: the file set is one linked program, not
        # N independent ones — the link request (same exit-code
        # contract: 2 on link failure).
        run.files = paths
        return _cmd_request(run)
    if len(paths) > 1:
        from repro.linkage.linker import duplicate_units_across_files

        for name, where in sorted(
            duplicate_units_across_files(paths).items()
        ):
            print(
                f"[note: unit {name!r} is defined in "
                f"{', '.join(where)}; files are analyzed as independent "
                f"closed programs (shared caches stay keyed per file) — "
                f"use --link to resolve them into one program]",
                file=sys.stderr,
            )
    tracer = _start_trace(run)
    logger, context = _start_obs(run, "batch")
    previous_handlers = _install_interrupt_handlers()
    interrupted: Optional[int] = None
    try:
        result = run_batch(
            paths,
            run.analysis_config(),
            jobs=run.jobs,
            cache_dir=run.cache_dir_or_none(),
            want_profile=run.profile is not None,
            explain=run.explain_invalidation,
            want_metrics=run.metrics is not None or run.report,
            want_trace=tracer is not None,
            optimize=opt_passes,
        )
    except _SignalInterrupt as err:
        interrupted = err.signum
    except KeyboardInterrupt:
        interrupted = EXIT_SIGINT - 128
    finally:
        _restore_interrupt_handlers(previous_handlers)
        _write_trace(run, tracer)
    if interrupted is not None:
        # Signal-driven drain: the pool shutdown already ran on the way
        # out of run_batch; flush whatever observability artifacts were
        # requested (partial by construction) and exit 128+signum
        # instead of unwinding into a traceback mid-pool.
        _write_metrics(run)
        print(
            f"[batch interrupted by signal {interrupted}: pool shut "
            f"down, partial artifacts flushed]",
            file=sys.stderr,
        )
        _finish_obs(run, logger, context, exit_code=128 + interrupted)
        return 128 + interrupted
    for note in result.notes:
        print(f"[degraded: {note}]", file=sys.stderr)
    for outcome in result.files:
        print(outcome.summary_line())
        if run.report and outcome.constants_report is not None:
            print(outcome.constants_report)
        if run.report and outcome.opt_report is not None:
            print(outcome.opt_report)
        if outcome.diagnostics:
            print(outcome.diagnostics, file=sys.stderr)
        if run.explain_invalidation and outcome.invalidation is not None:
            print(format_invalidation(outcome.invalidation))
    totals = result.totals()
    print(
        f"[{totals['files']} file(s), jobs={totals['jobs']}: "
        f"{totals['by_status'].get('ok', 0)} ok, "
        f"{totals['by_status'].get('diagnostics', 0)} with diagnostics, "
        f"{totals['by_status'].get('error', 0)} failed, "
        f"{totals['replayed']} replayed]"
    )
    merged = result.merged_metrics()
    if run.report and merged is not None:
        print("\n--- metrics (aggregated) ---")
        for name, value in merged.counters().items():
            print(f"  {name} {value}")
        histogram = merged.get_histogram("batch_file_seconds")
        if histogram is not None and histogram.count > 0:
            marks = histogram.percentiles()
            rendered = "  ".join(
                f"{label}={marks[label] * 1000:.3f}ms"
                for label in ("p50", "p95", "p99")
            )
            print(f"  batch_file_seconds {rendered}")
    _write_metrics(run, registry=merged)
    if run.profile is not None:
        _write_profile(
            json.dumps(result.profile_report(), indent=2), run.profile
        )
    code = EXIT_OK if result.ok else EXIT_DIAGNOSTICS
    _finish_obs(run, logger, context, exit_code=code)
    return code


def _cmd_serve(run: RunConfig) -> int:
    from repro import faults
    from repro.serve.server import ReproServer, SocketBusyError

    if run.inject_fault:
        try:
            plan = faults.install(run.inject_fault)
        except faults.FaultSpecError as err:
            print(f"serve: bad --inject-fault: {err}", file=sys.stderr)
            return EXIT_INTERNAL
        for line in plan.describe():
            print(f"[fault armed: {line}]", file=sys.stderr)
    try:
        server = ReproServer(run.serve_config())
        return server.serve_forever()
    except SocketBusyError as err:
        print(f"serve: {err}", file=sys.stderr)
        return EXIT_INTERNAL


def _cmd_client(args: argparse.Namespace) -> int:
    import json

    from repro.serve.client import ReproClient, ServeRequestError
    from repro.serve.protocol import PATH_OPS

    if args.op in PATH_OPS and not args.file:
        print(f"client: op {args.op!r} requires a file", file=sys.stderr)
        return EXIT_INTERNAL
    project = args.file if len(args.file) > 1 or args.entry else None
    single = args.file[0] if args.file else None
    try:
        client = ReproClient(args.socket, timeout=args.timeout)
    except OSError as err:
        print(f"client: cannot connect to {args.socket}: {err}",
              file=sys.stderr)
        return EXIT_INTERNAL
    try:
        if args.op == "explain" and args.explain is None:
            print("client: op 'explain' requires --explain NAME@PROC",
                  file=sys.stderr)
            return EXIT_INTERNAL
        if args.op in ("analyze", "explain") and project is not None:
            response = client.analyze_project(
                project, entry=args.entry,
                deadline_ms=args.deadline_ms, explain=args.explain,
            )
        elif args.op == "analyze":
            response = client.analyze(
                single, deadline_ms=args.deadline_ms, explain=args.explain,
            )
        elif args.op == "explain":
            response = client.explain(
                single, args.explain, deadline_ms=args.deadline_ms
            )
        elif args.op == "invalidate":
            if project is not None:
                response = client.invalidate_project(
                    project, entry=args.entry
                )
            else:
                response = client.invalidate(single)
        elif args.op == "status":
            response = client.status()
        elif args.op == "obs":
            response = client.obs(limit=getattr(args, "limit", None))
        else:
            response = client.shutdown()
    except ServeRequestError as err:
        print(f"client: {err}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    except (ConnectionError, OSError) as err:
        print(f"client: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        client.close()
    if args.json:
        print(json.dumps(response, indent=2, sort_keys=True))
        return EXIT_OK
    return _render_client_response(args.op, response)


def _format_latency_ms(value) -> str:
    return f"{value * 1000:.3f}" if value is not None else "-"


def _render_obs_snapshot(result: dict) -> None:
    """Human rendering of one ``obs`` op payload — shared by
    ``repro client obs`` and each ``repro top`` refresh."""
    threshold = result.get("slow_threshold_s")
    print(
        f"requests seen: {result.get('requests_seen', 0)}  "
        f"(ring window {result.get('window')}, "
        f"slow {result.get('slow_requests', 0)}, "
        f"slow threshold "
        f"{f'{threshold}s' if threshold is not None else 'off'})"
    )
    latency = result.get("latency") or {}
    populated = {
        name: stats for name, stats in latency.items()
        if stats.get("count")
    }
    if populated:
        print(f"{'histogram':<34} {'count':>7} {'p50 ms':>10} "
              f"{'p95 ms':>10} {'p99 ms':>10}")
        for name in sorted(populated):
            stats = populated[name]
            print(
                f"{name:<34} {stats.get('count', 0):>7} "
                f"{_format_latency_ms(stats.get('p50')):>10} "
                f"{_format_latency_ms(stats.get('p95')):>10} "
                f"{_format_latency_ms(stats.get('p99')):>10}"
            )
    recent = result.get("recent") or []
    if recent:
        print()
        print(
            f"{'request':<10} {'op':<10} {'status':<16} "
            f"{'queue':>8} {'parse':>8} {'solve':>8} {'opt':>8} "
            f"{'render':>8} {'total':>9}"
        )
        for entry in recent:
            cells = " ".join(
                f"{entry.get(f'{bucket}_ms', 0):>8.1f}"
                for bucket in ("queue", "parse", "solve", "opt", "render")
            )
            print(
                f"{str(entry.get('request_id', '?')):<10} "
                f"{str(entry.get('op', '')):<10} "
                f"{str(entry.get('status', '?')):<16} "
                f"{cells} {entry.get('total_ms', 0):>9.1f}"
            )


def _render_client_response(op: str, response: dict) -> int:
    """Human rendering of a successful daemon response; the exit code
    mirrors the local subcommands (0 clean, 1 diagnostics/error)."""
    import json

    for note in response.get("degraded", []):
        print(f"[degraded: {note}]", file=sys.stderr)
    result = response.get("result", {})
    if "project" in result and "path" not in result:
        # Project responses carry the manifest; render one joined label.
        result = dict(result, path="+".join(result["project"]))
    if op in ("analyze", "explain"):
        status = result.get("status")
        if status == "error":
            print(f"{result.get('path')}: error: {result.get('error')}")
            return EXIT_DIAGNOSTICS
        if status == "diagnostics":
            print(result.get("diagnostics", ""), file=sys.stderr)
            return EXIT_DIAGNOSTICS
        suffix = "  [replayed]" if result.get("replayed") else ""
        print(
            f"{result.get('path')}: {result.get('total_pairs')} "
            f"constant(s), {result.get('substituted')} substituted{suffix}"
        )
        report = result.get("constants_report")
        if report:
            print(report)
        if "explain" in result:
            sys.stdout.write(result["explain"])
        if "explain_error" in result:
            print(f"explain: {result['explain_error']}", file=sys.stderr)
            return EXIT_DIAGNOSTICS
        if result.get("diagnostics"):
            print(result["diagnostics"], file=sys.stderr)
        return EXIT_OK
    if op == "invalidate":
        verdict = "evicted" if result.get("invalidated") else "not cached"
        print(f"{result.get('path')}: {verdict}")
        if result.get("error"):
            print(f"invalidate: {result['error']}", file=sys.stderr)
            return EXIT_DIAGNOSTICS
        return EXIT_OK
    if op == "status":
        for key in ("socket", "jobs", "queue_depth", "queue_limit",
                    "pool_demoted", "stopping", "cache_dir"):
            print(f"{key}: {result.get(key)}")
        for line in result.get("faults", []):
            print(f"fault: {line}")
        counters = result.get("counters", {})
        for name in sorted(counters):
            print(f"  {name} {counters[name]}")
        return EXIT_OK
    if op == "obs":
        _render_obs_snapshot(result)
        return EXIT_OK
    print(json.dumps(result))  # shutdown and anything future
    return EXIT_OK


def _cmd_top(args: argparse.Namespace) -> int:
    """Poll the daemon's ``obs`` op and render a live per-request view.

    Each refresh opens a fresh connection so the view survives daemon
    restarts; ``--iterations 0`` polls until interrupted."""
    import time as time_module

    from repro.serve.client import ReproClient, ServeRequestError

    iteration = 0
    try:
        while True:
            iteration += 1
            try:
                with ReproClient(
                    args.socket, timeout=args.timeout
                ) as client:
                    response = client.obs(limit=args.limit)
            except ServeRequestError as err:
                print(f"top: {err}", file=sys.stderr)
                return EXIT_DIAGNOSTICS
            except (ConnectionError, OSError) as err:
                print(f"top: {err}", file=sys.stderr)
                return EXIT_INTERNAL
            if iteration > 1:
                print()
            print(f"--- repro top: {args.socket} (refresh {iteration}) ---")
            _render_obs_snapshot(response.get("result", {}))
            if args.iterations and iteration >= args.iterations:
                return EXIT_OK
            time_module.sleep(args.interval)
    except KeyboardInterrupt:
        return EXIT_OK


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import timeline as obs_timeline

    artifacts = []
    for path in args.artifact:
        try:
            kind, parsed = obs_timeline.load_artifact(path)
        except (OSError, UnicodeDecodeError, ValueError) as err:
            print(f"obs report: cannot read {path}: {err}",
                  file=sys.stderr)
            return EXIT_INTERNAL
        if kind == "unknown":
            print(
                f"obs report: {path}: not a recognized log, trace, or "
                f"metrics artifact (skipped)",
                file=sys.stderr,
            )
            continue
        artifacts.append((kind, parsed))
    if not artifacts:
        print("obs report: no usable artifacts", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    report = obs_timeline.build_report(artifacts)
    sys.stdout.write(obs_timeline.render_report(report))
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    header = f"{'jump function':>16} {'constants':>10} {'substituted refs':>17}"
    print(header)
    print("-" * len(header))
    for kind in JumpFunctionKind:
        result = analyze_file(args.file, AnalysisConfig(jump_function=kind))
        print(
            f"{kind.value:>16} {result.constants.total_pairs():>10} "
            f"{result.substituted_constants:>17}"
        )
    return 0


def _lower_file(path: str):
    """Parse (strict frontend) and lower ``path`` into a fresh program."""
    from repro.frontend.parser import parse_file
    from repro.frontend.source import SourceFile
    from repro.ir.lowering import lower_module

    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return lower_module(parse_file(path), SourceFile(path, text))


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.ir.interp import run_program

    trace = run_program(
        _lower_file(args.file), inputs=args.input, fuel=args.fuel
    )
    for line in trace.output:
        print(line)
    print(f"[{trace.steps} instructions executed]")
    return 0


def _cmd_clone(args: argparse.Namespace) -> int:
    from repro.ipcp.cloning import clone_for_constants

    report = clone_for_constants(
        _lower_file(args.file), max_clones_per_procedure=args.max_clones
    )
    print(f"substituted references before cloning: "
          f"{report.base.substituted_constants}")
    for original, clones in report.clones.items():
        print(f"  cloned {original} -> {', '.join(clones)}")
    print(f"substituted references after cloning:  "
          f"{report.final.substituted_constants} "
          f"(+{report.constants_gained})")
    return 0


def _cmd_integrate(args: argparse.Namespace) -> int:
    from repro.ipcp.inlining import integrate_and_propagate

    program = _lower_file(args.file)
    baseline = analyze_file(args.file, AnalysisConfig())
    report = integrate_and_propagate(program, max_depth=args.depth)
    print(f"jump-function framework:  {baseline.substituted_constants} "
          f"substituted references")
    print(f"procedure integration:    {report.substituted_references} "
          f"substituted references")
    print(f"  calls inlined: {report.inlined_calls}, remaining: "
          f"{report.remaining_calls}, code growth: {report.code_growth:.1f}x")
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    from repro.suite.programs import write_suite

    paths = write_suite(args.out)
    for path in paths:
        print(path)
    print(f"[{len(paths)} programs written to {args.out}]")
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.suite.tables import format_table1, format_table2, format_table3

    wanted = (args.table,) if args.table else (1, 2, 3)
    formatters = {1: format_table1, 2: format_table2, 3: format_table3}
    for number in wanted:
        print(formatters[number]())
        print()
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    """The soundness campaign, or with ``--link-trials`` the
    partition-invariance campaign, or with ``--opt-trials`` the
    optimizer's differential-equivalence campaign."""
    from dataclasses import replace as dc_replace

    from repro.oracle.harness import (
        DEFAULT_ORACLE_CONFIG,
        PROPERTIES,
        run_oracle,
    )

    generator_config = DEFAULT_ORACLE_CONFIG
    if args.procedures is not None:
        generator_config = dc_replace(generator_config, procedures=args.procedures)
    if args.max_statements is not None:
        generator_config = dc_replace(
            generator_config, max_statements_per_procedure=args.max_statements
        )
    trials = next(
        count for count in (args.link_trials, args.opt_trials, args.trials)
        if count is not None
    )
    done = [0]

    def progress(trial) -> None:
        skipped = getattr(trial, "skipped", False)
        sys.stderr.write("s" if skipped else "." if trial.ok else "F")
        done[0] += 1
        if done[0] % 50 == 0:
            sys.stderr.write(f" {done[0]}/{trials}\n")
        sys.stderr.flush()

    common = dict(
        trials=trials, seed=args.seed, generator_config=generator_config,
        progress=progress,
    )
    profile = None
    if args.link_trials is not None:
        from repro.oracle.partition import run_link_trials

        report = run_link_trials(max_partitions=args.max_partitions, **common)
    elif args.opt_trials is not None:
        from repro.oracle.equivalence import run_opt_oracle

        report = run_opt_oracle(
            corpus_dir=args.corpus, minimize=not args.no_minimize, **common
        )
    else:
        if args.profile is not None:
            from repro.profiling import PipelineProfile

            profile = PipelineProfile()
        report = run_oracle(
            properties=tuple(args.property) if args.property else PROPERTIES,
            corpus_dir=args.corpus,
            minimize=not args.no_minimize,
            profile=profile,
            **common,
        )
    sys.stderr.write("\n")
    print(report.summary())
    if profile is not None:
        _write_profile(profile.to_json(), args.profile)
    if report.ok:
        return EXIT_OK
    if args.corpus and args.link_trials is None:
        print(f"minimized counterexamples written to {args.corpus}/")
    return EXIT_DIAGNOSTICS


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command in _REQUEST_COMMANDS:
        args = RunConfig().set_from_args(args)
    handlers = {
        "analyze": _cmd_request,
        "link": _cmd_request,
        "batch": _cmd_batch,
        "optimize": _cmd_request,
        "serve": _cmd_serve,
        "client": _cmd_client,
        "top": _cmd_top,
        "obs": _cmd_obs,
        "compare": _cmd_compare,
        "run": _cmd_run,
        "clone": _cmd_clone,
        "integrate": _cmd_integrate,
        "suite": _cmd_suite,
        "tables": _cmd_tables,
        "oracle": _cmd_oracle,
    }
    try:
        return handlers[args.command](args)
    except FrontendError as err:
        location = f"{err.location}: " if err.location is not None else ""
        print(f"{location}error: {err.message}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    except BudgetExceeded as err:
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except VerificationError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
