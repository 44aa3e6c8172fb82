"""The benchmark's own tests: tiny-size smoke runs of every workload,
the metric contract of BENCHMARK.json, and the checks that make a
wrong output count as a failure.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join("perfbench", "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_bench(workload, *extra, trace=0, cwd=ROOT):
    command = [
        sys.executable, RUN, "--workload", workload, "--seed", "3",
        "--seconds", "1", "--trace", str(trace), *extra,
    ]
    return subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=300
    )


def result_of(completed):
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    assert lines[-2].startswith("context ")
    return json.loads(lines[-1]), json.loads(lines[-2][len("context "):])


def test_spec_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in SPEC[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    result, context = result_of(run_bench(workload, "--size", "tiny", trace=trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, context["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["metrics"] == {
        metric["name"]: {
            "value": result["metrics"][metric["name"]]["value"],
            "unit": metric["unit"],
        }
        for metric in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    samples = "edits" if workload == "serve-edit" else "iterations"
    for key in ("cpu_count", "python", "seed", "procedures", "input_bytes", samples):
        assert key in context
    assert context["error_rate"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_is_counted_as_failures(workload):
    result, context = result_of(
        run_bench(workload, "--size", "tiny", "--corrupt-reference")
    )
    assert result["correct"] is False
    assert result["failed"] > 0
    assert context["error_rate"] > 0


def _group_members(pgid):
    """Processes, zombies included, in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue
        # Fields after the command: state, ppid, pgrp.
        if int(fields[2]) == pgid:
            members.append((int(entry), fields[0]))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_leaves_no_process_behind(workload):
    """Every process a run starts (daemon, pool workers, the resource
    tracker a spawned pool starts) has ended when the run exits."""
    process = subprocess.Popen(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    stdout, stderr = process.communicate(timeout=300)
    assert process.returncode == 0, stderr
    assert json.loads(stdout.strip().splitlines()[-1])["correct"] is True
    assert _group_members(process.pid) == []


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = run_bench("scale-cold", cwd=str(tmp_path))
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
