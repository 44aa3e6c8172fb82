"""The shared request path: one outcome shape for live and replayed
runs, and an outcome that crosses a process boundary."""

from __future__ import annotations

import pickle

import pytest

from repro.config import AnalysisConfig
from repro.engine import Engine
from repro.request import ERROR, OK, Wants, run_request
from repro.testkit import TRI_PROGRAM

SHARED = ("status", "config", "constants_report", "total_pairs",
          "substituted", "per_procedure")


@pytest.fixture
def program(tmp_path):
    path = tmp_path / "prog.f"
    path.write_text(TRI_PROGRAM)
    return str(path)


def test_replay_matches_live(program, tmp_path):
    config = AnalysisConfig()
    with Engine(cache_dir=str(tmp_path / "cache")) as engine:
        live = run_request("analyze", [program], config, engine,
                           Wants(explain="x@foo"))
        replayed = run_request("analyze", [program], config, engine,
                               Wants(explain="x@foo"))
    assert not live.replayed and replayed.replayed
    assert live.result is not None and replayed.result is None
    for name in SHARED + ("explain",):
        assert getattr(replayed, name) == getattr(live, name), name


def test_outcome_pickles_without_live_objects(program):
    outcome = run_request("analyze", [program], AnalysisConfig())
    assert outcome.status == OK and outcome.result is not None
    copy = pickle.loads(pickle.dumps(outcome))
    assert copy.result is None and copy.link is None
    for name in SHARED:
        assert getattr(copy, name) == getattr(outcome, name), name


def test_unreadable_source_is_an_error_outcome(tmp_path):
    outcome = run_request("link", [str(tmp_path / "missing.f")], AnalysisConfig())
    assert outcome.status == ERROR and outcome.has_errors
    assert outcome.io_error[0].endswith("missing.f:0:0")


def test_unknown_kind_rejected(program):
    with pytest.raises(ValueError):
        run_request("compile", [program], AnalysisConfig())
