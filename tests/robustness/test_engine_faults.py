"""The engine's fault matrix: every cache fault in every summary
namespace, and a crashed substitution worker, under ``Engine(jobs=2)``
with a summary cache.

A torn, rotted or failed store in one namespace must cost exactly a
recomputation of that namespace on the next run — the other stages
still decode their entries — and every run must match the serial
pipeline byte for byte.
"""

from __future__ import annotations

import os

import pytest

from repro import faults
from repro.config import AnalysisConfig
from repro.engine import Engine
from repro.ipcp.driver import analyze_source
from repro.obs import metrics
from repro.suite.generator import GeneratorConfig, generate_case

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="the substitution pool forks"
)

NAMESPACES = ("ret", "fwd", "sub")
TEXT = generate_case(
    5, GeneratorConfig(procedures=8, max_statements_per_procedure=8)
).source


def fingerprint_run(engine=None):
    result = analyze_source(TEXT, AnalysisConfig(), engine=engine)
    return (
        result.constants.format_report(),
        dict(result.substitution.per_procedure),
        result.transformed_source(),
        [
            (d.component, d.site, d.from_kind, d.to_kind, d.reason)
            for d in result.resilience.demotions
        ],
    )


@pytest.mark.parametrize("namespace", NAMESPACES)
@pytest.mark.parametrize(
    "point", ["truncate-cache", "corrupt-cache", "fail-write"]
)
def test_cache_fault_recomputes_only_its_namespace(point, namespace, tmp_path):
    serial = fingerprint_run()
    faults.install(f"{point}:namespace={namespace}", export_env=False)
    try:
        with Engine(jobs=2, cache_dir=str(tmp_path)) as engine:
            assert fingerprint_run(engine) == serial
    finally:
        faults.clear()

    with Engine(jobs=2, cache_dir=str(tmp_path)) as engine:
        assert fingerprint_run(engine) == serial, f"{point} changed the result"
        assert engine.recomputed[namespace], (
            f"{point} left usable {namespace} entries behind"
        )
        for other in NAMESPACES:
            if other != namespace:
                assert engine.recomputed[other] == [], (
                    f"a {namespace} fault made {other} recompute"
                )
        quarantined = engine.cache.stats.quarantined
    if point == "fail-write":
        assert quarantined == 0
    else:
        assert quarantined > 0


def test_worker_crash_still_fills_the_cache(tmp_path):
    """A substitution worker killed once costs a pool rebuild; the
    retried results are stored, so the next run misses nothing."""
    serial = fingerprint_run()
    flag = tmp_path / "armed"
    flag.write_text("")
    cache_dir = str(tmp_path / "cache")
    faults.install(f"kill-worker:stage=sub,flag={flag}")
    base = metrics.snapshot()
    try:
        with Engine(jobs=2, cache_dir=cache_dir) as engine:
            assert fingerprint_run(engine) == serial
            assert not engine.pool_demoted
    finally:
        faults.clear()
    assert metrics.delta_since(base)["counters"].get(
        "engine_pool_rebuilds"
    ) == 1

    with Engine(jobs=2, cache_dir=cache_dir) as engine:
        assert fingerprint_run(engine) == serial
        assert engine.cache.stats.misses == 0
        assert engine.recomputed == {"ret": [], "fwd": [], "sub": []}


def test_fault_free_control_run(tmp_path):
    serial = fingerprint_run()
    with Engine(jobs=2, cache_dir=str(tmp_path)) as engine:
        assert fingerprint_run(engine) == serial
    with Engine(jobs=2, cache_dir=str(tmp_path)) as engine:
        assert fingerprint_run(engine) == serial
        assert engine.cache.stats.quarantined == 0
        assert engine.cache.stats.misses == 0
        assert engine.recomputed == {"ret": [], "fwd": [], "sub": []}
