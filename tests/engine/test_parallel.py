"""Parallel determinism: engine output must be byte-identical to the
serial pipeline — same CONSTANTS report, same substitution counts, same
transformed source, same demotion log — inline and on the process
pool."""

from dataclasses import replace

import pytest

from repro.config import AnalysisBudget, AnalysisConfig
from repro.engine import Engine
from repro.ipcp.driver import analyze_source
from repro.suite.generator import GeneratorConfig, generate_case
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
    """``Engine(jobs=1)`` runs every wave in-process through the same
    task functions and payload codec a pool worker uses."""

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


class TestProcessPoolDeterminism:
    """Fork workers rebuild nothing (copy-on-write inheritance); spawn
    fallbacks re-lower from source. Either way the merge is driven by
    identity-free payloads, so outputs are byte-identical. Kept small:
    pool startup dominates on a 1-CPU container."""

    def test_suite_program(self):
        text = program_source("adm")
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


class TestSpawnWithoutSource:
    def test_linked_program_runs_inline(self, monkeypatch):
        """Spawn workers rebuild the program from its source text; a
        linked program has none, so the engine runs the waves inline
        and the result stays byte-identical."""
        import multiprocessing

        from repro.linkage import analyze_linked_sources

        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
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
