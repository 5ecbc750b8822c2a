"""Smoke test of the benchmark itself, at a tiny size.

Run from the repository root with ``python3 -m pytest perfbench``.  Each
workload runs untraced and traced at the ``smoke`` size; the test
asserts that every metric named in ``BENCHMARK.json`` is emitted with
its unit and that every correctness check of the workload ran.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", autouse=True)
def program():
    if "repro" not in sys.modules:
        run.import_program()


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_emits_every_metric_and_runs_every_check(name, traced, tmp_path):
    outcome = run.measure(name, 7, 1.0, traced, "smoke", tmp_path)
    line = outcome["line"]
    wanted = BENCHMARK["per_layer" if traced else "end_to_end"]
    assert sorted(line["metrics"]) == sorted(m["name"] for m in wanted)
    for metric in wanted:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
        if not traced:
            assert line["metrics"][metric["name"]]["value"] > 0
    assert line["correct"], outcome["failures"]
    assert line["failed"] == 0 and line["attempted"] > 0
    for check in workloads.REQUIRED_CHECKS[name]:
        assert outcome["checks"].get(check, 0) > 0, check
    if traced:
        # Not a check on the program: self times telescope, so this pins
        # only the bookkeeping (every span maps to a layer, none counted twice).
        values = {k: v["value"] for k, v in line["metrics"].items()}
        accounted = sum(outcome["layers"].values()) + values["trace.residual_s"]
        assert accounted == pytest.approx(values["trace.wall_s"], rel=1e-6)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in layers.LAYER_METRICS
    ]


def test_checks_reject_wrong_rounds():
    size = workloads.WORKLOADS["supervised-n64"].sizes(1.0, "smoke")
    state = workloads.WORKLOADS["supervised-n64"].setup(size, 3, Path("."))
    result = state["sequential"].run_round()
    anchor = workloads.anchor_latency(state["values"], size["rate"])
    assert workloads.check_clean_round(result, size["rate"], anchor) == []
    assert workloads.check_clean_round(result, size["rate"], anchor * 1.001)
    shifted = dataclasses.replace(
        result, loads={k: v * 1.001 for k, v in result.loads.items()}
    )
    assert workloads.check_clean_round(shifted, size["rate"], anchor)
    assert workloads.parity_problems(result, result) == []
    assert workloads.parity_problems(result, shifted)


def test_normalisation_divides_by_the_local_slowness():
    speed = hostspeed.HostSpeed()
    speed.times = [0.1 * k for k in range(100)]
    speed.slowness = [1.0] * 50 + [2.0] * 50
    arm = hostspeed.Arm(speed)
    arm.starts, arm.durations = [1.0, 7.0], [0.2, 0.4]
    assert arm.normalised_seconds().tolist() == pytest.approx([0.2, 0.2])
    assert arm.mean_slowness() == pytest.approx(1.5, rel=0.1)


def test_chaos_plan_is_seeded_and_stratified():
    names = [f"C{i + 1}" for i in range(64)]
    plan = workloads.chaos_plan(names, 40, seed=5)
    assert plan.to_json() == workloads.chaos_plan(names, 40, seed=5).to_json()
    assert plan.to_json() != workloads.chaos_plan(names, 40, seed=6).to_json()
    for start in (0, 20):
        block = plan.rounds[start:start + 20]
        assert sum(len(r.machine_faults) for r in block) == 13
        assert sum(r.coordinator_crash is not None for r in block) == 1
        assert sum(r.drop_probability > 0 for r in block) == 2
        assert sum(r.is_clean for r in block) == 9


def test_run_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: exit non-zero, no result."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
