"""Accelerator equivalence at scale: every engine path gives the plain
pipeline's output on a 2,000-procedure layered program.

The paths are the plain pipeline, ``Engine(jobs=1)``, ``Engine(jobs=2)``,
a summary cache cold then warm, and :func:`repro.request.run_request`
through an engine. Each run is reduced to one digest over the CONSTANTS
report, the per-procedure substitution counts, the transformed source
and the demotion list in order. The tight-budget configuration demotes
in every per-procedure stage, which pins the demotion order of the
engine's in-parent loops and of the substitution merge.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.config import AnalysisBudget, AnalysisConfig
from repro.engine import Engine
from repro.ipcp.driver import analyze_source
from repro.obs import metrics
from repro.request import run_request
from repro.suite.generator import ScaleConfig, generate_scaled_program

PROCEDURES = 2000

CONFIGS = {
    "default": AnalysisConfig(),
    # Tight, with SCCP fuel low enough that substitution demotes too.
    "tight": replace(
        AnalysisConfig(),
        budget=replace(AnalysisBudget.tight(), sccp_visits=64),
    ),
}


@pytest.fixture(scope="module")
def program_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("matrix") / "scale.f"
    path.write_text(
        generate_scaled_program(7, ScaleConfig(procedures=PROCEDURES))
    )
    return str(path)


def digest(result) -> str:
    payload = json.dumps([
        result.constants.format_report(),
        dict(result.substitution.per_procedure),
        result.transformed_source(),
        [
            [d.component, d.site, d.from_kind, d.to_kind, d.reason]
            for d in result.resilience.demotions
        ],
    ])
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_path_matches_plain(name, program_file, tmp_path):
    config = CONFIGS[name]
    with open(program_file, encoding="utf-8") as handle:
        text = handle.read()

    def analyze(engine=None):
        return analyze_source(text, config, program_file, engine=engine)

    plain = analyze()
    if name == "tight":
        stages = {d.component for d in plain.resilience.demotions}
        assert {"return_function", "jump_function", "substitution"} <= stages
    expected = digest(plain)
    del plain

    digests = {}
    for jobs in (1, 2):
        with Engine(jobs=jobs) as engine:
            digests[f"jobs={jobs}"] = digest(analyze(engine))
    cache_dir = str(tmp_path / "cache")
    with Engine(cache_dir=cache_dir) as engine:
        digests["cache-cold"] = digest(analyze(engine))
    before = metrics.snapshot()
    with Engine(cache_dir=cache_dir) as engine:
        digests["cache-warm"] = digest(analyze(engine))
    counters = metrics.delta_since(before)["counters"]
    assert counters.get("summary_cache_misses", 0) == 0, counters
    assert counters.get("summary_cache_hits", 0) > 0, counters
    with Engine(jobs=2) as engine:
        outcome = run_request("analyze", [program_file], config, engine)
        digests["run_request"] = digest(outcome.result)

    assert digests == {path: expected for path in digests}
