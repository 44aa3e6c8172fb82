"""The analysis engine: cached, optionally parallel per-procedure
stages with byte-identical results.

An :class:`Engine` slots into :func:`repro.ipcp.driver.analyze_prepared`
and replaces the three per-procedure pipeline stages — return jump
functions, forward jump functions, substitution measurement — with
versions that

1. consult a persistent content-addressed summary cache
   (:mod:`repro.engine.cache`) keyed by Merkle fingerprints
   (:mod:`repro.engine.fingerprint`), so unchanged procedures are never
   re-analyzed across runs;
2. fan substitution measurement out over a worker pool forked after
   propagation (``--jobs N``, :mod:`repro.engine.parallel`);
3. time and count everything into a
   :class:`~repro.profiling.PipelineProfile` (``--profile``).

Return and forward jump functions are built in the parent, straight
into its :class:`~repro.ipcp.return_functions.ReturnFunctionMap` and
:class:`~repro.ipcp.jump_functions.JumpFunctionTable`, in the serial
pipeline's orders: Tarjan bottom-up for returns, top-down for forwards.
Every jump function refers to its caller's variables, so one built in a
worker would have to be re-resolved in the parent, which costs about
as much as building it. A cache hit decodes into the map or table at
the same position; a miss is built there and encoded only when the
cache stores it. Substitution results are merged in program order
whether they came from the cache, a worker or the parent, so cached,
parallel and serial runs are byte-identical.

The interprocedural solver stays in the parent (it is a tiny fraction
of the pipeline and inherently sequential), as does the GSA-refinement
loop and complete propagation (the driver passes ``engine=None`` under
``config.complete``).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.config import AnalysisConfig
from repro.engine import fingerprint, parallel, summaries
from repro.engine.cache import SummaryCache
from repro.engine.fingerprint import _sha
from repro.engine.scheduler import partition
from repro.ir.module import Program
from repro.obs import context as obs_context
from repro.obs import metrics as obs_metrics
from repro.obs import trace
from repro.profiling import PipelineProfile


class Engine:
    """One engine instance drives one or more analysis runs.

    At ``jobs=1`` without a cache the engine runs the plain builders in
    the plain order. A cache adds a lookup before each component and a
    store after each miss. ``jobs > 1`` forks a process pool for the
    substitution stage only; without the fork start method substitution
    runs inline.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        cache: Optional[SummaryCache] = None,
        profile: Optional[PipelineProfile] = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        if cache is None and cache_dir is not None:
            cache = SummaryCache(cache_dir)
        self.cache = cache
        self.profile = profile
        #: Optional cooperative-cancellation hook: called before each
        #: SCC, each forward procedure, the substitution fan-out and
        #: each procedure substitution measures inline; raising aborts
        #: the run (the daemon sets this to its per-request deadline
        #: and drain checks).
        self.checkpoint: Optional[callable] = None
        #: True once the worker pool broke twice and this engine fell
        #: back to in-process serial execution for good.
        self.pool_demoted = False
        self._pool_rebuilt = False
        self._pool = None
        self._config: Optional[AnalysisConfig] = None
        self._attached: Optional[Program] = None
        self._keys: Optional[Dict[str, str]] = None
        self._index: Optional[Dict[str, Dict[str, str]]] = None
        self._callgraph = None
        self._return_map = None
        #: Procedure names whose summaries were actually (re)computed
        #: this run, per stage namespace — the incremental layer's
        #: ground truth that recomputation stayed inside the dirty set.
        self.recomputed: Dict[str, List[str]] = {"ret": [], "fwd": [], "sub": []}

    # -- lifecycle -----------------------------------------------------------

    def start(self, program: Program, config: AnalysisConfig) -> None:
        """Bind the engine to one analysis run. Per-run state resets
        here (and again whenever :meth:`_attach` sees a new program),
        so one engine can serve many runs, sharing its cache, pool
        policy, and profile."""
        self._config = config
        self._reset_run()

    def _reset_run(self) -> None:
        self._attached = None
        self._keys = None
        self._index = None
        self._callgraph = None
        self._return_map = None
        self.recomputed = {"ret": [], "fwd": [], "sub": []}
        # A surviving pool's workers hold the previous run's state.
        self._shutdown_pool()

    def close(self) -> None:
        self._shutdown_pool()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    # -- attachment (first stage call) ---------------------------------------

    def _attach(self, program: Program, callgraph, config: AnalysisConfig):
        """Late binding at the first stage call: the program is prepared
        (SSA form) by now, so summary keys can be computed. A program
        the engine has not seen resets all per-run state, so reuse
        without :meth:`start` is safe."""
        if self._attached is not program:
            self._reset_run()
            self._attached = program
        self._config = config
        self._callgraph = callgraph
        if self._keys is None:
            with self.maybe_stage("fingerprint"):
                if self.cache is not None:
                    self._index = fingerprint.summary_index(
                        program, callgraph, config
                    )
                    self._keys = {
                        name: entry["key"]
                        for name, entry in self._index.items()
                    }
                else:
                    self._index = None
                    self._keys = {}

    # -- the substitution pool -----------------------------------------------

    def _ensure_pool(self):
        """The fork pool, created on first use; None at ``jobs=1`` or
        without the fork start method (nothing could be inherited)."""
        if self.jobs <= 1 or self._pool is not None:
            return self._pool
        import concurrent.futures as cf
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            return None
        # Workers fork during the first submit and inherit the state
        # installed by _fan_out copy-on-write.
        self._pool = cf.ProcessPoolExecutor(
            max_workers=self.jobs,
            mp_context=mp.get_context("fork"),
            initializer=parallel._worker_init,
        )
        return self._pool

    def _fan_out(self, state, names: List[str], resilience) -> Dict[str, dict]:
        """Measure ``names`` on a pool forked now, so its workers inherit
        ``state``. Empty when no pool runs — at ``jobs=1``, without
        fork, or after a demotion — and the caller measures inline."""
        # A pool from an earlier fan-out holds stale inherited state.
        self._shutdown_pool()
        parallel._set_state(state)
        try:
            results = self._dispatch(
                parallel._task_substitution,
                [(chunk,) for chunk in partition(names, self.jobs)],
                resilience=resilience,
                stage="sub",
            )
        finally:
            parallel._set_state(None)
        computed: Dict[str, dict] = {}
        for result in results or ():
            computed.update(result)
        return computed

    def _dispatch(
        self,
        task,
        arg_tuples: List[tuple],
        resilience=None,
        stage: Optional[str] = None,
    ) -> Optional[List[dict]]:
        """Run ``task(*args)`` for each tuple across the pool, results in
        submission order; None when there is no pool to run them.

        A broken pool (a worker SIGKILLed by the OOM killer, an
        operator, or the ``kill-worker`` fault point) is survived, not
        propagated: the pool is rebuilt once and the tasks retried
        after a jittered backoff; if the rebuilt pool breaks too, the
        engine demotes itself to in-process serial execution for the
        rest of its life, records the demotion on ``resilience`` and
        returns None. Tasks are pure measurements, so a retry can never
        double-apply work — the result is byte-identical to an
        undisturbed run.
        """
        import concurrent.futures as cf

        pool = self._ensure_pool()
        if pool is None:
            return None
        try:
            return self._pool_dispatch(pool, task, arg_tuples)
        except cf.BrokenExecutor:
            self._count("engine_pool_broken")
            self._shutdown_pool()
            if not self._pool_rebuilt:
                self._pool_rebuilt = True
                self._backoff(attempt=1)
                self._count("engine_pool_rebuilds")
                if trace.ENABLED:
                    trace.instant("engine.pool_rebuild", stage=stage or "")
                pool = self._ensure_pool()
                try:
                    return self._pool_dispatch(pool, task, arg_tuples)
                except cf.BrokenExecutor:
                    self._count("engine_pool_broken")
                    self._shutdown_pool()
            # Second failure: degrade to serial, permanently for this
            # engine. The caller measures inline, so results are
            # unchanged — only slower.
            self.pool_demoted = True
            self.jobs = 1
            self._count("engine_pool_demotions")
            if trace.ENABLED:
                trace.instant("engine.pool_demoted", stage=stage or "")
            if resilience is not None:
                resilience.record(
                    "engine_pool",
                    stage or "engine",
                    "process-pool",
                    "serial",
                    "worker pool broke twice; degraded to in-process "
                    "serial execution",
                )
            return None

    @staticmethod
    def _backoff(attempt: int) -> None:
        """Jittered backoff before a pool rebuild: base delay doubling
        per attempt, plus up to 50% random jitter so a fleet of daemons
        recovering from one shared cause does not rebuild in lockstep."""
        import random
        import time

        base = 0.05 * (2 ** (attempt - 1))
        time.sleep(base + random.uniform(0, base * 0.5))

    def _check(self) -> None:
        if self.checkpoint is not None:
            self.checkpoint()

    def _pool_dispatch(self, pool, task, arg_tuples: List[tuple]) -> List[dict]:
        if trace.ENABLED:
            trace.instant(
                "engine.dispatch", tasks=len(arg_tuples),
                pool="fork", jobs=self.jobs,
            )
        ctx = obs_context.current_ids()
        if trace.ENABLED or ctx is not None:
            # Process workers record into their own tracer and ship
            # the new events back with each result; the parent adopts
            # them (worker pids become separate trace tracks).
            # The wrapper also carries the request's correlation ids.
            tracer = trace.active()
            futures = [
                pool.submit(
                    parallel._ctx_call, ctx, trace.ENABLED, task, *args
                )
                for args in arg_tuples
            ]
            results = []
            for future in futures:
                wrapped = future.result()
                if tracer is not None and wrapped["events"]:
                    tracer.adopt(wrapped["events"])
                results.append(wrapped["result"])
            return results
        futures = [pool.submit(task, *args) for args in arg_tuples]
        return [future.result() for future in futures]

    # -- profiling helpers ---------------------------------------------------

    def maybe_stage(self, name: str):
        from repro.profiling import maybe_stage

        return maybe_stage(self.profile, name)

    def _count(self, name: str, amount: int = 1) -> None:
        # The process-wide metrics registry is the single sink
        # (``--metrics`` works without ``--profile``); profiles absorb
        # these counts once, via a registry delta (batch) or a
        # global-counters merge at emission time (CLI analyze) —
        # counting into the profile here as well would double them.
        obs_metrics.inc(name, amount)

    # -- stage: return jump functions ----------------------------------------

    def return_functions(self, program, callgraph, modref, config, resilience):
        """Engine version of :func:`repro.ipcp.return_functions.
        build_return_functions`: the same bottom-up walk into one map,
        with an all-or-nothing cache lookup per SCC — members see each
        other's partial summaries, so a component is built whole."""
        from repro.ipcp.return_functions import (
            ReturnFunctionMap,
            build_return_functions_for,
        )

        self._attach(program, callgraph, config)
        return_map = self._return_map = ReturnFunctionMap()
        for component in callgraph.sccs():
            self._check()
            cached = self._lookup_members("ret", [p.name for p in component])
            for procedure in component:
                name = procedure.name
                if cached is not None:
                    for encoded in cached[name]["fns"]:
                        return_map.add(
                            summaries.decode_return_function(encoded, program)
                        )
                    summaries.apply_demotions(cached[name]["dem"], resilience)
                    continue
                mark = len(resilience.demotions)
                build_return_functions_for(
                    program, [procedure], return_map, modref,
                    budget=config.budget, resilience=resilience,
                    fault_isolation=config.fault_isolation,
                )
                if self.cache is not None:
                    self._store_member("ret", name, {
                        "fns": summaries.encode_return_functions_of(
                            return_map, name, program
                        ),
                        "dem": summaries.encode_demotions(resilience, mark),
                    })
                self._note_recomputed("ret", name)
        return return_map

    # -- stage: forward jump functions ---------------------------------------

    def forward_functions(self, program, callgraph, config, return_map,
                          resilience):
        """Engine version of :func:`repro.ipcp.jump_functions.
        build_forward_jump_functions`: the same top-down walk into one
        table, with a cache lookup per procedure."""
        from repro.ipcp.jump_functions import (
            JumpFunctionTable,
            build_forward_jump_functions_for,
        )
        from repro.ipcp.return_functions import ReturnFunctionMap

        self._attach(program, callgraph, config)
        return_map = return_map or ReturnFunctionMap()
        table = JumpFunctionTable(config.jump_function)
        for procedure in callgraph.top_down_order():
            self._check()
            name = procedure.name
            cached = self._lookup_member("fwd", name)
            if cached is not None:
                for encoded in cached["fns"]:
                    table.add(
                        summaries.decode_forward_function(encoded, program)
                    )
                summaries.apply_demotions(cached["dem"], resilience)
                continue
            mark = len(resilience.demotions)
            build_forward_jump_functions_for(
                program, procedure, config.jump_function, table, return_map,
                gcp_oracle=config.gcp_oracle, budget=config.budget,
                resilience=resilience, fault_isolation=config.fault_isolation,
            )
            if self.cache is not None:
                self._store_member("fwd", name, {
                    "fns": summaries.encode_forward_functions_of(
                        table, procedure, program
                    ),
                    "dem": summaries.encode_demotions(resilience, mark),
                })
            self._note_recomputed("fwd", name)
        return table

    # -- stage: substitution measurement -------------------------------------

    def substitution(self, program, callgraph, constants, config, resilience):
        """Engine version of :func:`repro.ipcp.substitution.
        measure_substitution`, the one stage that fans out. The report
        carries no ``sccp_results`` (only complete propagation reads
        those, and the driver never routes complete propagation through
        the engine)."""
        from repro.analysis.sccp import SCCPCallModel
        from repro.ipcp.return_functions import ReturnFunctionCallModel
        from repro.ipcp.substitution import SubstitutionReport

        self._attach(program, callgraph, config)
        if config.use_return_functions:
            call_model = ReturnFunctionCallModel(program, self._return_map)
        else:
            call_model = SCCPCallModel()
        state = parallel._WorkerState(program, config, constants, call_model)

        keys = self._substitution_keys(program, constants)
        cached: Dict[str, dict] = {}
        for name, key in keys.items():
            data = self.cache.get("sub", key)
            if data is not None:
                self._count("summary_cache_hits")
                cached[name] = data
            else:
                self._count("summary_cache_misses")
        pending = [p.name for p in program if p.name not in cached]
        computed: Dict[str, dict] = {}
        if pending:
            self._check()
            computed = self._fan_out(state, pending, resilience)

        # Merge in program order, the serial pipeline's order.
        report = SubstitutionReport()
        for procedure in program:
            name = procedure.name
            data = cached.get(name) or computed.get(name)
            if data is not None:
                summaries.decode_substitution_into(
                    data["sub"], procedure, report
                )
                summaries.apply_demotions(data["dem"], resilience)
            else:
                self._check()
                mark = len(resilience.demotions)
                measured = parallel.measure(state, procedure, resilience)
                report.per_procedure[name] = measured.per_procedure[name]
                report.sites.extend(measured.sites)
                if name in keys:
                    data = {
                        "sub": summaries.encode_substitution_of(
                            measured, name
                        ),
                        "dem": summaries.encode_demotions(resilience, mark),
                    }
            if name not in cached:
                self._note_recomputed("sub", name)
                if name in keys:
                    self.cache.put("sub", keys[name], data)
                    self._count("summary_cache_stores")
        return report

    # -- cache plumbing ------------------------------------------------------

    def _note_recomputed(self, namespace: str, name: str) -> None:
        self.recomputed[namespace].append(name)
        self._count(f"recomputed_{namespace}")

    def _lookup_member(self, namespace: str, name: str) -> Optional[dict]:
        if self.cache is None:
            return None
        data = self.cache.get(namespace, self._keys[name])
        if data is not None:
            self._count("summary_cache_hits")
        else:
            self._count("summary_cache_misses")
        if trace.ENABLED:
            trace.instant(
                "cache.hit" if data is not None else "cache.miss",
                namespace=namespace, procedure=name,
            )
        return data

    def _lookup_members(
        self, namespace: str, names: List[str]
    ) -> Optional[Dict[str, dict]]:
        """All-or-nothing lookup of one SCC: a component's members are
        built together, so a partial hit is recomputed whole."""
        if self.cache is None:
            return None
        found: Dict[str, dict] = {}
        for name in names:
            data = self._lookup_member(namespace, name)
            if data is None:
                return None
            found[name] = data
        return found

    def _store_member(self, namespace: str, name: str, data: dict) -> None:
        self.cache.put(namespace, self._keys[name], data)
        self._count("summary_cache_stores")

    def _substitution_keys(
        self, program: Program, constants
    ) -> Dict[str, str]:
        """Per-procedure substitution cache keys; empty without a cache.

        Substitution depends on the callee summaries (the member key)
        *and* on the procedure's CONSTANTS cells — which reflect the
        whole program, callers included — so the key salts the member
        key with the encoded VAL cells. It also folds in the
        procedure's source-location digest: substitution payloads carry
        absolute coordinates for the transformed-source renderer, which
        a line-shifting edit elsewhere in the file silently invalidates
        even though the procedure's semantics (and semantic key) are
        untouched."""
        if self.cache is None:
            return {}
        cells = summaries.encode_constants(constants, program)
        return {
            procedure.name: _sha([
                "sub", self._keys[procedure.name],
                fingerprint.location_digest(procedure),
                json.dumps(cells.get(procedure.name, [])),
            ])
            for procedure in program
        }

    # -- incremental manifests -----------------------------------------------

    def finish_incremental(self, path: str):
        """Diff this run's summary index against the previous manifest
        for ``path`` and persist the new manifest. Returns an
        :class:`~repro.engine.incremental.InvalidationReport`, or None
        when no cache (and hence no manifest history) is attached.

        Call after the analysis completed, while the engine is still
        attached to the run's program.
        """
        if self.cache is None or self._index is None:
            return None
        from repro.engine import incremental

        key = incremental.manifest_key(path, self._config)
        previous = self.cache.get(incremental.MANIFEST_NAMESPACE, key)
        report = incremental.diff_manifest(
            path, previous, self._index, self._callgraph
        )
        self.cache.put(
            incremental.MANIFEST_NAMESPACE,
            key,
            incremental.build_manifest(self._index),
        )
        self._count("incremental_dirty", len(report.dirty))
        self._count("incremental_clean", len(report.clean))
        if trace.ENABLED and report.dirty:
            trace.instant(
                "cache.stale", path=path,
                dirty=len(report.dirty), clean=len(report.clean),
            )
        return report

    def replayed_report(self, path: str):
        """The invalidation report for a run served entirely from the
        run-level cache: the source is unchanged, nothing recomputed."""
        from repro.engine.incremental import InvalidationReport

        return InvalidationReport(path=path, replayed=True)

    # -- whole-run result cache ----------------------------------------------

    def cached_run(self, text: str, config: AnalysisConfig) -> Optional[dict]:
        """Look up a whole (source, config) outcome — the fast path
        that skips parsing entirely on an unchanged input."""
        return self._lookup_outcome("run", fingerprint.run_key(text, config))

    def record_run(self, text: str, config: AnalysisConfig, result) -> None:
        """Record a *clean* run's render-ready outcome.

        Besides the constants report, the payload carries the renderings
        every replayable CLI mode needs — the transformed source, the
        ``--stats`` table, and the ``--dump-ir`` text — so a warm replay
        can serve those flags without re-analyzing.
        """
        if not self._recordable(result):
            return
        self._store_outcome("run", fingerprint.run_key(text, config), {
            "config": config.describe(),
            "constants_report": result.constants.format_report(),
            "total_pairs": result.constants.total_pairs(),
            "substituted": result.substitution.total,
            "per_procedure": dict(result.substitution.per_procedure),
            "transformed_source": (
                result.transformed_source()
                if result.program.source is not None
                else None
            ),
            "stats": self._render_stats(result),
            "ir": self._render_ir(result),
            "provenance": self._render_provenance(result),
        })

    def cached_opt(self, text: str, config: AnalysisConfig,
                   passes) -> Optional[dict]:
        """Look up a whole (source, config, passes) optimization outcome
        — the ``repro optimize`` fast path replaying the optimized IR
        and report byte-identically on an unchanged input."""
        return self._lookup_outcome(
            "opt", fingerprint.opt_key(text, config, passes)
        )

    def record_opt(self, text: str, config: AnalysisConfig, passes,
                   result, report) -> None:
        """Record a clean optimization run: the rendered report, the
        optimized (destructed) IR, and the pass statistics."""
        if not self._recordable(result):
            return
        self._store_outcome("opt", fingerprint.opt_key(text, config, passes), {
            "config": config.describe(),
            "passes": list(passes),
            "report": report.render(),
            "opt": report.to_payload(),
            "ir": self._render_ir(result),
        })

    def _lookup_outcome(self, namespace: str, key: str) -> Optional[dict]:
        if self.cache is None:
            return None
        payload = self.cache.get(namespace, key)
        hit = payload is not None
        self._count(f"{namespace}_cache_{'hits' if hit else 'misses'}")
        if trace.ENABLED:
            trace.instant(f"{namespace}_cache.{'hit' if hit else 'miss'}")
        return payload

    def _recordable(self, result) -> bool:
        """Only clean runs are recorded: the output of a run with
        demotions or diagnostics depends on more than its content."""
        if self.cache is None or result.resilience.demotions:
            return False
        return not (
            result.diagnostics is not None and result.diagnostics.diagnostics
        )

    def _store_outcome(self, namespace: str, key: str, payload: dict) -> None:
        self.cache.put(namespace, key, payload)
        self._count(f"{namespace}_cache_stores")

    @staticmethod
    def _render_stats(result) -> Optional[str]:
        from repro.ipcp.stats import collect_statistics

        try:
            return collect_statistics(result).format()
        except Exception:  # noqa: BLE001 — a failed rendering only
            return None  # narrows what the replay can serve

    @staticmethod
    def _render_ir(result) -> Optional[str]:
        from repro.ir.printer import format_program

        try:
            return format_program(result.program)
        except Exception:  # noqa: BLE001
            return None

    @staticmethod
    def _render_provenance(result) -> Optional[dict]:
        from repro.obs.provenance import build_provenance

        try:
            return build_provenance(result).to_payload()
        except Exception:  # noqa: BLE001 — narrows what --explain can
            return None  # serve from a replay, same as stats/ir

    # -- reporting -----------------------------------------------------------

    def finish_profile(self) -> None:
        """Fold cache statistics into the profile's counters."""
        if self.profile is None or self.cache is None:
            return
        stats = self.cache.stats
        self.profile.set_counter("cache_lookups", stats.lookups)
        self.profile.set_counter("cache_hits", stats.hits)
        self.profile.set_counter("cache_misses", stats.misses)
        self.profile.set_counter("cache_stores", stats.stores)
