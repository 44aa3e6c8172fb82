"""Arena transport under injected corruption and vanishing segments:
every fault quarantines the arena for the run and re-dispatches the
wave over the pool's pickle channel — visibly (``arena_fallbacks``,
read/attach failure counters) but never as a wrong or failed
analysis."""

from __future__ import annotations

import os

import pytest

from repro import faults
from repro.config import AnalysisConfig
from repro.engine import Engine
from repro.engine.arena import ArenaAttachError, ArenaReadError, SummaryArena
from repro.ipcp.driver import analyze_source
from repro.obs import metrics
from repro.suite.generator import GeneratorConfig, generate_case

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="pool workers fork on this path"
)

GENERATOR = GeneratorConfig(procedures=8, max_statements_per_procedure=8)


def fingerprint_run(text, engine=None):
    result = analyze_source(text, AnalysisConfig(), engine=engine)
    return (
        result.constants.format_report(),
        dict(result.substitution.per_procedure),
        result.transformed_source(),
    )


class TestFaultSpecs:
    def test_points_registered(self):
        assert "corrupt-arena" in faults.POINTS
        assert "unlink-arena" in faults.POINTS

    def test_specs_parse(self):
        plan = faults.parse_plan(
            "corrupt-arena:namespace=ret;unlink-arena:nth=1"
        )
        assert [spec.point for spec in plan] == [
            "corrupt-arena", "unlink-arena",
        ]


class TestArenaUnitFaults:
    def test_corrupt_arena_rots_exactly_the_matched_record(self, tmp_path):
        arena = SummaryArena.create(capacity=64 * 1024,
                                    directory=str(tmp_path))
        try:
            faults.install("corrupt-arena:nth=1", export_env=False)
            arena.append("ret", "rotted", {"x": 1})
            faults.clear()
            arena.append("ret", "clean", {"x": 2})
            with pytest.raises(ArenaReadError):
                arena.read(0)
            assert arena.read_payload(1) == {"x": 2}
        finally:
            arena.destroy()

    def test_unlink_arena_fires_at_attach(self, tmp_path):
        arena = SummaryArena.create(capacity=4096,
                                    directory=str(tmp_path))
        path = arena.path
        faults.install("unlink-arena:nth=1", export_env=False)
        with pytest.raises(ArenaAttachError, match="unlinked"):
            SummaryArena.attach_cached(path)
        assert not os.path.exists(path)
        arena.close()


@pytest.mark.parametrize(
    "spec",
    [
        "corrupt-arena:nth=1",
        "corrupt-arena:namespace=ret",
        "corrupt-arena:namespace=sub",
        "unlink-arena:nth=1",
    ],
)
def test_engine_fault_falls_back_byte_identically(spec):
    """The whole matrix: whatever the arena fault, the engine must
    quarantine the arena, finish over the pickle channel, and produce
    exactly the serial result — degraded transport, not degraded
    analysis."""
    text = generate_case(5, GENERATOR).source
    serial = fingerprint_run(text)

    faults.install(spec)  # export_env so forked workers also see it
    base = metrics.snapshot()
    try:
        with Engine(jobs=2) as engine:
            chaotic = fingerprint_run(text, engine=engine)
    finally:
        faults.clear()

    assert chaotic == serial, f"{spec} changed the analysis result"
    delta = metrics.delta_since(base)["counters"]
    assert delta.get("arena_fallbacks", 0) == 1, (
        f"{spec} should disable the arena exactly once for the run"
    )
    # The fallback wave re-shipped payload over the pickle channel.
    assert delta.get("engine_pickle_payload_entries", 0) > 0


def test_fault_free_control_run_never_falls_back():
    text = generate_case(5, GENERATOR).source
    serial = fingerprint_run(text)
    base = metrics.snapshot()
    with Engine(jobs=2) as engine:
        assert fingerprint_run(text, engine=engine) == serial
    delta = metrics.delta_since(base)["counters"]
    assert delta.get("arena_fallbacks", 0) == 0
    assert delta.get("engine_pickle_payload_entries", 0) == 0
