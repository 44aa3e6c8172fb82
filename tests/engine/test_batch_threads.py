"""Per-file isolation of batch telemetry.

A file analyzed on a thread that holds its own metrics scope reports
exactly its own counters, even while another thread keeps counting
into the process registry — the daemon's dispatcher thread relies on
this against its connection-handler threads. Files analyzed on the
batch process pool each carry their own profile."""

from __future__ import annotations

import threading

import pytest

from repro import faults
from repro.config import AnalysisConfig
from repro.engine import batch
from repro.obs import metrics as obs_metrics
from repro.suite.generator import GeneratorConfig, generate_case

GENERATOR = GeneratorConfig(procedures=6, max_statements_per_procedure=8)


@pytest.fixture(autouse=True)
def _no_leaked_faults():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture
def files(tmp_path):
    paths = []
    for seed in range(4):
        path = tmp_path / f"unit{seed}.f"
        path.write_text(generate_case(seed, GENERATOR).source)
        paths.append(str(path))
    return paths


def analysis_counters(counters):
    # Interpreter-level memo counters depend on process history; the
    # analysis counters must match exactly.
    return {k: v for k, v in counters.items() if not k.startswith("memo_")}


def test_thread_scoped_metrics_isolate_per_file(files):
    """Each file, analyzed on its own thread while a noisy sibling
    thread counts into the process registry, must report exactly the
    counters it reports when analyzed alone."""
    alone = {
        path: batch.analyze_one(path, AnalysisConfig(), want_metrics=True)
        for path in files
    }
    stop = threading.Event()

    def noisy():
        while not stop.is_set():
            obs_metrics.inc("summary_cache_hits")

    sibling = threading.Thread(target=noisy)
    sibling.start()
    observed = {}
    try:
        for path in files:
            worker = threading.Thread(
                target=lambda p=path: observed.__setitem__(
                    p, batch.analyze_one(p, AnalysisConfig(), want_metrics=True)
                )
            )
            worker.start()
            worker.join()
    finally:
        stop.set()
        sibling.join()
    for path in files:
        assert analysis_counters(observed[path].metrics["counters"]) == (
            analysis_counters(alone[path].metrics["counters"])
        ), path


def test_pool_profiles_attach_per_file(files):
    pooled = batch.run_batch(
        files, AnalysisConfig(), jobs=2, want_profile=True,
    )
    assert pooled.ok
    for outcome in pooled.files:
        assert outcome.profile is not None
        assert outcome.profile["counters"].get("parses", 0) >= 1
