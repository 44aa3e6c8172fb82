"""Characterization of the request path: CLI and daemon, byte for byte.

Every ``analyze``/``link``/``optimize``/``batch`` invocation below is
run through :func:`repro.cli.main` in order, and its stdout, stderr and
exit code are compared verbatim with the recording under
``characterization/``. The scenarios cover the plain run, the
``--cache`` cold → warm → edited sequence, every rendering flag, the
optimizer, ``--explain-invalidation``, a broken file (exit 1) and a
tight budget (exit 2 under ``--strict``). The daemon's
``analyze``/``explain``/``invalidate`` responses for one file and one
linked project are recorded the same way, with timing fields removed.

``batch`` and ``link`` have no benchmark workload, so this file is
their only end-to-end guard. Regenerate intentional changes with
``pytest tests/test_request_characterization.py --update-goldens`` and
review the diff.
"""

from __future__ import annotations

import json
import os
import re

import pytest

from repro.cli import main
from repro.oracle.golden import golden_programs, golden_projects

DATA_DIR = os.path.join(os.path.dirname(__file__), "characterization")

#: Input name -> a VAL cell worth explaining (an unknown cell exercises
#: the explain error path).
PROGRAMS = {
    "tri_program": "x@foo",
    "edge_function_returns": "nope@main",
    "suite_trfd": "k@llll3",
}
PROJECT = "proj_killing_pair"
PROJECT_CELL = "n@work"

BROKEN = (
    "      PROGRAM MAIN\n"
    "      CALL S(3\n"
    "      END\n"
    "      SUBROUTINE S(K)\n"
    "      A = K + 1\n"
    "      END\n"
)


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    """Write every input under ``tmp_path`` and run from there, so all
    paths in the recorded output are short and relative."""
    monkeypatch.chdir(tmp_path)
    programs = golden_programs()
    for name in PROGRAMS:
        (tmp_path / f"{name}.f").write_text(programs[name].source)
    (tmp_path / "broken.f").write_text(BROKEN)
    (tmp_path / "proj").mkdir()
    for filename, text in golden_projects()[PROJECT].files:
        (tmp_path / "proj" / filename).write_text(text)
    return tmp_path


def project_files():
    return [f"proj/{filename}" for filename, _ in golden_projects()[PROJECT].files]


def edit(path: str) -> None:
    """Append one procedure: the rest of the program stays clean."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("      SUBROUTINE EXTRA(Q)\n      Q = 1\n      END\n")


def analyze_steps(name: str, cell: str):
    source = f"{name}.f"
    return [
        ("default", ["analyze", source]),
        ("transform", ["analyze", source, "--transform"]),
        ("dump-ir", ["analyze", source, "--dump-ir"]),
        ("stats", ["analyze", source, "--stats"]),
        ("explain", ["analyze", source, "--explain", cell]),
        ("optimize", ["analyze", source, "--optimize", "--dump-ir"]),
        ("cache-cold", ["analyze", source, "--cache-dir", "c1",
                        "--explain-invalidation"]),
        ("cache-warm", ["analyze", source, "--cache-dir", "c1",
                        "--explain-invalidation", "--transform",
                        "--dump-ir", "--stats", "--explain", cell]),
        ("cache-warm-optimize", ["analyze", source, "--cache-dir", "c1",
                                 "--optimize"]),
        ("edit", None),
        ("cache-edited", ["analyze", source, "--cache-dir", "c1",
                          "--explain-invalidation"]),
        ("strict-budget", ["analyze", source, "--strict",
                           "--solver-fuel", "1"]),
        ("budget", ["analyze", source, "--solver-fuel", "1"]),
        ("broken", ["analyze", "broken.f"]),
        ("broken-strict", ["analyze", "broken.f", "--strict"]),
    ]


def optimize_steps(name: str, cell: str):
    source = f"{name}.f"
    return [
        ("default", ["optimize", source]),
        ("dump-ir", ["optimize", source, "--dump-ir", "-o", "out.ir"]),
        ("passes", ["optimize", source, "--passes", "fold,branches"]),
        ("bad-passes", ["optimize", source, "--passes", "nosuch"]),
        ("verify", ["optimize", source, "--verify-ir"]),
        ("cache-cold", ["optimize", source, "--cache-dir", "c1"]),
        ("cache-warm", ["optimize", source, "--cache-dir", "c1",
                        "--dump-ir"]),
        ("edit", None),
        ("cache-edited", ["optimize", source, "--cache-dir", "c1"]),
        ("budget", ["optimize", source, "--solver-fuel", "1"]),
        ("broken", ["optimize", "broken.f"]),
    ]


def link_steps(files, cell: str):
    return [
        ("default", ["link", *files]),
        ("symbols", ["link", *files, "--symbols"]),
        ("dump-ir", ["link", *files, "--dump-ir"]),
        ("stats", ["link", *files, "--stats"]),
        ("explain", ["link", *files, "--explain", cell]),
        ("optimize", ["link", *files, "--optimize", "--dump-ir"]),
        ("cache-cold", ["link", *files, "--cache-dir", "c2",
                        "--explain-invalidation"]),
        ("cache-warm", ["link", *files, "--cache-dir", "c2",
                        "--explain-invalidation", "--dump-ir", "--stats",
                        "--explain", cell]),
        ("edit", None),
        ("cache-edited", ["link", *files, "--cache-dir", "c2",
                          "--explain-invalidation"]),
        ("budget", ["link", *files, "--solver-fuel", "1"]),
        ("broken", ["link", *files, "broken.f"]),
        ("missing", ["link", *files, "missing.f"]),
    ]


def batch_steps(files):
    return [
        ("default", ["batch", *files]),
        ("report", ["batch", *files, "--report"]),
        ("optimize", ["batch", *files, "--optimize", "--report"]),
        ("cache-cold", ["batch", *files, "--cache-dir", "c3",
                        "--explain-invalidation"]),
        ("cache-warm", ["batch", *files, "--cache-dir", "c3",
                        "--explain-invalidation", "--report"]),
        ("cache-warm-optimize", ["batch", *files, "--cache-dir", "c3",
                                 "--optimize", "--report"]),
        ("edit", None),
        ("cache-edited", ["batch", *files, "--cache-dir", "c3",
                          "--explain-invalidation"]),
        ("budget", ["batch", *files, "--solver-fuel", "1", "--report"]),
        ("broken", ["batch", *files, "broken.f", "missing.f"]),
        ("link", ["batch", *project_files(), "--link", "--report"]),
        ("link-cached", ["batch", *project_files(), "--link",
                         "--cache-dir", "c4", "--explain-invalidation"]),
        ("link-warm", ["batch", *project_files(), "--link",
                       "--cache-dir", "c4", "--explain-invalidation"]),
    ]


#: A linked project's manifest label hashes the absolute paths of its
#: files, so it differs with the temporary directory.
LABEL = re.compile(r"/repro-linked/[0-9a-f]{24}")
#: ``batch --report`` prints the per-file latency percentiles.
LATENCY = re.compile(r"(batch_file_seconds) p50=.*")


def normalize(text: str) -> str:
    text = LABEL.sub("/repro-linked/<label>", text)
    return LATENCY.sub(r"\1 <timing>", text)


def run_steps(steps, edit_target, capsys):
    recorded = {}
    for label, argv in steps:
        if argv is None:
            edit(edit_target)
            continue
        code = main(argv)
        captured = capsys.readouterr()
        recorded[label] = {
            "argv": argv,
            "exit": code,
            "stdout": normalize(captured.out),
            "stderr": normalize(captured.err),
        }
    return recorded


def compare(name: str, recorded: dict, update: bool) -> None:
    path = os.path.join(DATA_DIR, f"{name}.json")
    if update:
        os.makedirs(DATA_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(recorded, handle, indent=1, sort_keys=True)
            handle.write("\n")
        return
    with open(path, "r", encoding="utf-8") as handle:
        expected = json.load(handle)
    assert sorted(recorded) == sorted(expected)
    for label in expected:
        assert recorded[label] == expected[label], f"{name}: step {label!r}"


CLI_CASES = (
    [(f"analyze-{name}", "analyze", name) for name in PROGRAMS]
    + [(f"optimize-{name}", "optimize", name) for name in PROGRAMS]
    + [(f"link-{name}", "link", name) for name in PROGRAMS]
    + [("link-project", "link", PROJECT)]
    + [("batch-programs", "batch", None), ("batch-project", "batch", PROJECT)]
)


@pytest.mark.parametrize(
    "case,command,name", CLI_CASES, ids=[case[0] for case in CLI_CASES]
)
def test_cli_output_unchanged(case, command, name, inputs, capsys,
                              update_goldens):
    if command == "analyze":
        steps = analyze_steps(name, PROGRAMS[name])
        target = f"{name}.f"
    elif command == "optimize":
        steps = optimize_steps(name, PROGRAMS[name])
        target = f"{name}.f"
    elif command == "link" and name == PROJECT:
        steps = link_steps(project_files(), PROJECT_CELL)
        target = project_files()[-1]
    elif command == "link":
        steps = link_steps([f"{name}.f"], PROGRAMS[name])
        target = f"{name}.f"
    elif name == PROJECT:
        steps = batch_steps(project_files())
        target = project_files()[-1]
    else:
        files = [f"{program}.f" for program in PROGRAMS]
        steps = batch_steps(files)
        target = files[0]
    compare(case, run_steps(steps, target, capsys), update_goldens)


#: Response fields that measure time rather than content.
TIMING_KEYS = {"elapsed_ms", "queue_ms", "seconds", "ts"}


def strip_timing(value):
    if isinstance(value, dict):
        return {
            key: strip_timing(item)
            for key, item in value.items()
            if key not in TIMING_KEYS and not key.endswith(("_ms", "_s"))
        }
    if isinstance(value, list):
        return [strip_timing(item) for item in value]
    if isinstance(value, str):
        return normalize(value)
    return value


def test_daemon_responses_unchanged(inputs, update_goldens):
    from repro.serve import ReproClient, ReproServer, ServeConfig, wait_for_server
    from repro.serve.client import ServeRequestError

    server = ReproServer(ServeConfig(
        socket_path=str(inputs / "repro.sock"),
        cache_dir=str(inputs / "cache"),
        drain_timeout_s=2.0,
    ))
    server.start()
    assert wait_for_server(server.config.socket_path, timeout=5.0)
    files = project_files()
    source = "tri_program.f"
    steps = [
        ("file-cold", lambda c: c.analyze(source)),
        ("file-warm", lambda c: c.analyze(source)),
        ("file-explain", lambda c: c.explain(source, "x@foo")),
        ("file-explain-unknown", lambda c: c.explain(source, "nope@foo")),
        ("file-analyze-explain", lambda c: c.analyze(source, explain="g1@bar")),
        ("file-invalidate", lambda c: c.invalidate(source)),
        ("file-after-invalidate", lambda c: c.analyze(source)),
        ("file-invalidate-missing", lambda c: c.invalidate("missing.f")),
        ("file-missing", lambda c: c.analyze("missing.f")),
        ("file-broken", lambda c: c.analyze("broken.f")),
        ("project-cold", lambda c: c.analyze_project(files)),
        ("project-warm", lambda c: c.analyze_project(files)),
        ("project-explain",
         lambda c: c.analyze_project(files, explain=PROJECT_CELL)),
        ("project-invalidate", lambda c: c.invalidate_project(files)),
        ("project-after-invalidate", lambda c: c.analyze_project(files)),
        ("project-broken",
         lambda c: c.analyze_project([*files, "broken.f"])),
        ("project-missing",
         lambda c: c.analyze_project([*files, "missing.f"])),
        ("explain-without-cell", lambda c: c.call("explain", source)),
    ]
    recorded = {}
    try:
        with ReproClient(server.config.socket_path) as client:
            for label, call in steps:
                try:
                    response = call(client)
                except ServeRequestError as err:
                    response = {"error": err.code, "message": str(err)}
                recorded[label] = strip_timing(response)
    finally:
        server.request_stop()
        assert server.finish() == 0
    compare("daemon", recorded, update_goldens)
