"""Fast self-test of the benchmark at a tiny size.

Runs every workload once untraced and once traced on a few moving objects,
so that a change to the program's public API, or to the benchmark, that
breaks a workload or a check shows up in the ordinary test run.  It writes
only under pytest's temporary directories.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks, spec, workloads
from perfbench.inputs import make_inputs

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "generate": {"objects": 4, "duration": 60.0, "shards": 2},
    "generate-fingerprint": {"objects": 4, "duration": 60.0, "shards": 2},
    "query-mix": {"objects": 4, "duration": 60.0, "shards": 1},
    "monitor-replay": {"objects": 4, "duration": 60.0, "shards": 1},
}


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """``{(workload, traced): (tally, values)}`` for every workload."""
    patch = pytest.MonkeyPatch()
    for workload, sizes in TINY.items():
        patch.setitem(spec.WORKLOADS, workload, {**spec.WORKLOADS[workload], **sizes})
    runs = {}
    try:
        for workload in TINY:
            work = tmp_path_factory.mktemp(workload)
            make_inputs(workload, 1, work / "inputs")
            for traced in (False, True):
                runs[(workload, traced)] = workloads.run(
                    workload, work / "inputs", work, 1, 0.0, traced)
    finally:
        patch.undo()
    return runs


@pytest.mark.parametrize("workload", list(TINY))
@pytest.mark.parametrize("traced", [False, True])
def test_every_operation_is_checked_and_passes(tiny_runs, workload, traced):
    tally, values = tiny_runs[(workload, traced)]
    assert tally.correct and tally.failed == 0
    assert tally.attempted >= {"query-mix": workloads.MIN_QUERIES}.get(workload, 3)
    for metric in BENCHMARK["end_to_end"]:
        assert values[metric["name"]] > 0, metric["name"]


def test_benchmark_json_names_every_metric_the_runs_report(tiny_runs):
    reported = {name for (_, traced), (_, values) in tiny_runs.items() if traced for name in values}
    per_layer = {metric["name"] for metric in BENCHMARK["per_layer"]}
    end_to_end = {metric["name"] for metric in BENCHMARK["end_to_end"]}
    assert per_layer <= reported
    assert reported <= per_layer | end_to_end
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(spec.WORKLOADS)


def test_checks_reject_wrong_outputs():
    square = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]
    assert checks.point_in_polygon(2.0, 2.0, square)
    assert checks.point_in_polygon(4.0, 1.0, square)  # on an edge
    assert not checks.point_in_polygon(5.0, 2.0, square)

    rows = [{"object_id": "o", "t": float(t), "floor_id": 0, "partition_id": "p",
             "x": 1.0, "y": 1.0} for t in range(3)]
    moved = rows[:2] + [dict(rows[2], x=9.0)]
    polygons = {(0, "p"): square}
    assert checks.check_trajectory(checks.samples(rows), polygons, 1.0) == []
    assert checks.check_trajectory(checks.samples(moved), polygons, 1.0)
    assert checks.check_trajectory(checks.samples(rows[::2]), polygons, 1.0)

    assert checks.digest({"d": iter(rows)}) == checks.digest({"d": rows[::-1]})
    assert checks.digest({"d": rows}) != checks.digest({"d": moved})
    assert checks.digest({"d": rows}) != checks.digest({"d": rows[:2]})
    assert checks.answers_match("knn", [("o", 1.0)], [["o", 1.0 + 1e-12]])
    assert not checks.answers_match("knn", [("o", 1.0)], [["o", 1.1]])
    expected = checks.answer_fingerprint("object-rows", rows)
    assert checks.answers_match("object-rows", rows, expected)
    assert not checks.answers_match("object-rows", moved, expected)
    assert not checks.answers_match("object-rows", rows[::-1], expected)
    assert checks.windows_match("knn", [(("o", 1.0),)], [[["o", 1.0 + 1e-12]]])
    assert not checks.windows_match("density", [1, 2], [1, 3])


def test_run_refuses_to_measure_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    finished = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "generate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert finished.returncode != 0
    assert finished.stdout.strip() == ""
