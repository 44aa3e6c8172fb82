"""Parallel determinism: engine output must be byte-identical to the
serial pipeline — same CONSTANTS report, same substitution counts, same
transformed source, same demotion log — inline and with the
substitution pool."""

import multiprocessing
import os
from dataclasses import replace

import pytest

from repro.config import AnalysisBudget, AnalysisConfig
from repro.engine import Engine, parallel, summaries
from repro.ipcp.driver import analyze_source
from repro.ipcp.substitution import SubstitutionReport
from repro.suite.generator import (
    GeneratorConfig,
    ScaleConfig,
    generate_case,
    generate_scaled_program,
)
from repro.suite.programs import SUITE_PROGRAM_NAMES, program_source

GENERATOR = GeneratorConfig(procedures=6, max_statements_per_procedure=8)
SEEDS = range(25)


def fingerprint_run(text, config=None, engine=None):
    result = analyze_source(text, config or AnalysisConfig(), engine=engine)
    return (
        result.constants.format_report(),
        dict(result.substitution.per_procedure),
        result.transformed_source(),
        [
            (d.component, d.site, d.from_kind, d.to_kind, d.reason)
            for d in result.resilience.demotions
        ],
    )


class TestInlineEngineDeterminism:
    """``Engine(jobs=1)`` builds every summary in-process, in the
    serial pipeline's order."""

    def test_generated_programs_25_seeds(self):
        for seed in SEEDS:
            text = generate_case(seed, GENERATOR).source
            serial = fingerprint_run(text)
            with Engine(jobs=1) as engine:
                parallel = fingerprint_run(text, engine=engine)
            assert parallel == serial, f"seed {seed} diverged"

    @pytest.mark.parametrize("name", SUITE_PROGRAM_NAMES)
    def test_suite_programs(self, name):
        text = program_source(name)
        serial = fingerprint_run(text)
        with Engine(jobs=1) as engine:
            assert fingerprint_run(text, engine=engine) == serial

    def test_demotion_log_parity_under_tight_budget(self):
        config = replace(AnalysisConfig(), budget=AnalysisBudget.tight())
        generator = GeneratorConfig(
            procedures=10, max_statements_per_procedure=12
        )
        for seed in range(5):
            text = generate_case(seed, generator).source
            serial = fingerprint_run(text, config)
            assert serial[3], "tight budget should demote something"
            with Engine(jobs=1) as engine:
                assert fingerprint_run(text, config, engine=engine) == serial

    def test_demotion_counters_match_plain(self):
        """Each demotion is counted once, as on the plain path."""
        from repro.obs import metrics

        config = replace(AnalysisConfig(), budget=AnalysisBudget.tight())
        text = generate_case(
            0, GeneratorConfig(procedures=10, max_statements_per_procedure=12)
        ).source

        def demotion_counters(engine=None):
            base = metrics.snapshot()
            analyze_source(text, config, engine=engine)
            counters = metrics.delta_since(base)["counters"]
            return {
                name: value for name, value in counters.items()
                if name.startswith("demotions_")
            }

        plain = demotion_counters()
        assert plain, "tight budget should demote something"
        with Engine(jobs=1) as engine:
            assert demotion_counters(engine) == plain


class TestProcessPoolDeterminism:
    """Substitution workers fork after propagation and rebuild nothing
    (copy-on-write inheritance); their identity-free results are merged
    in program order, so outputs are byte-identical. Kept small: pool
    startup dominates on a 1-CPU container."""

    @pytest.mark.parametrize("name", SUITE_PROGRAM_NAMES)
    def test_suite_program(self, name):
        text = program_source(name)
        serial = fingerprint_run(text)
        with Engine(jobs=2) as engine:
            assert fingerprint_run(text, engine=engine) == serial

    def test_generated_programs_two_seeds(self):
        for seed in (3, 11):
            text = generate_case(seed, GENERATOR).source
            serial = fingerprint_run(text)
            with Engine(jobs=2) as engine:
                assert fingerprint_run(text, engine=engine) == serial


class TestEngineReuse:
    def test_one_engine_many_programs(self):
        with Engine(jobs=2) as engine:
            for name in ("adm", "linpackd"):
                text = program_source(name)
                assert fingerprint_run(text, engine=engine) == (
                    fingerprint_run(text)
                )

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            Engine(jobs=0)


class TestCacheParallelInteraction:
    def test_warm_parallel_matches_cold_serial(self, tmp_path):
        text = program_source("adm")
        serial = fingerprint_run(text)
        with Engine(jobs=2, cache_dir=str(tmp_path)) as engine:
            assert fingerprint_run(text, engine=engine) == serial
        with Engine(jobs=2, cache_dir=str(tmp_path)) as engine:
            assert fingerprint_run(text, engine=engine) == serial
            assert engine.cache.stats.misses == 0


@pytest.mark.skipif(
    not hasattr(os, "fork"), reason="the substitution pool forks"
)
class TestPoolEquivalence:
    """Pool vs serial vs disk cache over 24 seeded programs."""

    SEEDS = range(24)

    def test_24_seeds_pool_matches_serial(self):
        for seed in self.SEEDS:
            text = generate_case(seed, GENERATOR).source
            serial = fingerprint_run(text)
            with Engine(jobs=2) as engine:
                parallel = fingerprint_run(text, engine=engine)
                assert engine._pool is not None, "the pool never forked"
            assert parallel == serial, f"seed {seed} diverged"

    def test_pool_run_matches_disk_cache_run(self, tmp_path):
        for seed in range(6):
            text = generate_case(seed, GENERATOR).source
            with Engine(jobs=2) as engine:
                via_pool = fingerprint_run(text, engine=engine)
            cache_dir = str(tmp_path / f"cache{seed}")
            with Engine(cache_dir=cache_dir) as engine:
                cold = fingerprint_run(text, engine=engine)
            with Engine(cache_dir=cache_dir) as engine:
                warm = fingerprint_run(text, engine=engine)
                assert engine.cache.stats.hits > 0
            assert via_pool == cold == warm, f"seed {seed} diverged"


class TestWithoutFork:
    """Without the fork start method nothing can be inherited, so the
    engine starts no pool and measures substitution inline; the result
    stays byte-identical."""

    @pytest.fixture(autouse=True)
    def no_fork(self, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )

    def test_file_runs_inline(self):
        text = program_source("adm")
        serial = fingerprint_run(text)
        with Engine(jobs=2) as engine:
            assert fingerprint_run(text, engine=engine) == serial
            assert engine._pool is None

    def test_linked_program_runs_inline(self):
        from repro.linkage import analyze_linked_sources

        named = [("prog.f", program_source("adm"))]
        serial, _ = analyze_linked_sources(named)
        with Engine(jobs=2) as engine:
            linked, _ = analyze_linked_sources(named, engine=engine)
            assert engine._pool is None
        assert linked.program.source is None

        def fingerprint(result):
            return (result.constants.format_report(),
                    dict(result.substitution.per_procedure))

        assert fingerprint(linked) == fingerprint(serial)


class TestSubstitutionTask:
    """The task a forked worker runs, called in-process with the state
    the parent installs before forking."""

    def test_without_inherited_state_is_an_error(self):
        parallel._set_state(None)
        with pytest.raises(RuntimeError, match="never installed"):
            parallel._task_substitution(["main"])

    def test_chunk_results_merge_to_the_serial_report(self):
        from repro.ipcp.return_functions import ReturnFunctionCallModel

        text = generate_case(5, GENERATOR).source
        serial = analyze_source(text)
        program = serial.program
        state = parallel._WorkerState(
            program, serial.config, serial.constants,
            ReturnFunctionCallModel(program, serial.return_functions),
        )
        names = [p.name for p in program]
        parallel._set_state(state)
        try:
            results = {}
            for chunk in (names[:3], names[3:]):
                results.update(parallel._task_substitution(chunk))
        finally:
            parallel._set_state(None)
        assert list(results) == names
        report = SubstitutionReport()
        for procedure in program:
            data = results[procedure.name]
            assert data["dem"] == []
            summaries.decode_substitution_into(data["sub"], procedure, report)
        assert report.per_procedure == serial.substitution.per_procedure
        assert [
            (s.procedure_name, s.use.var.name, s.value) for s in report.sites
        ] == [
            (s.procedure_name, s.use.var.name, s.value)
            for s in serial.substitution.sites
        ]


class Expired(Exception):
    pass


class TestCheckpoint:
    TEXT = generate_scaled_program(7, ScaleConfig(procedures=200))

    def test_fifth_call_aborts_inside_the_return_stage(self):
        """The checkpoint runs before every SCC, so a deadline that
        expires mid-stage stops the return stage itself, not the next
        stage boundary."""
        text = self.TEXT
        calls = []

        def checkpoint():
            calls.append(None)
            if len(calls) == 5:
                raise Expired

        with Engine(jobs=1) as engine:
            engine.checkpoint = checkpoint
            with pytest.raises(Expired):
                analyze_source(text, AnalysisConfig(), engine=engine)
            assert 4 <= len(engine.recomputed["ret"]) < 100
            assert engine.recomputed["fwd"] == []
            assert engine.recomputed["sub"] == []

    @pytest.mark.parametrize("stage", ["fwd", "sub"])
    def test_abort_inside_a_later_stage(self, stage):
        """The checkpoint also runs before every forward procedure and
        every procedure substitution measures inline: a deadline a few
        calls into either stage stops that stage part-way."""
        procedures = len(analyze_source(self.TEXT).program.procedures)
        previous = {"fwd": "ret", "sub": "fwd"}[stage]
        seen = []

        def checkpoint():
            # The first call after the previous stage finished is the
            # first call of this one.
            if len(engine.recomputed[previous]) == procedures:
                seen.append(None)
                if len(seen) == 4:
                    raise Expired

        with Engine(jobs=1) as engine:
            engine.checkpoint = checkpoint
            with pytest.raises(Expired):
                analyze_source(self.TEXT, AnalysisConfig(), engine=engine)
            assert 0 < len(engine.recomputed[stage]) < procedures
            if stage == "fwd":
                assert engine.recomputed["sub"] == []

    def test_expired_deadline_stops_the_fan_out_before_forking(self):
        procedures = len(analyze_source(self.TEXT).program.procedures)

        def checkpoint():
            if len(engine.recomputed["fwd"]) == procedures:
                raise Expired

        with Engine(jobs=2) as engine:
            engine.checkpoint = checkpoint
            with pytest.raises(Expired):
                analyze_source(self.TEXT, AnalysisConfig(), engine=engine)
            assert engine._pool is None
            assert engine.recomputed["sub"] == []
