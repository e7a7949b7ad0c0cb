"""Checks of the benchmark itself, at its default seed.

    python -m pytest bench

Each workload is run twice with tracing on and a one-second budget (one
untraced pass, then at least two traced passes), in a fresh process as the
runner is meant to be used.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as runner
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RATIONALE = json.loads((BENCH / "rationale.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, seed: int = RATIONALE["default_seed"], cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


def parse(out) -> tuple[dict, dict]:
    assert out.returncode == 0, out.stderr
    detail, result = out.stdout.splitlines()[-2:]
    return json.loads(detail), json.loads(result)


@pytest.fixture(scope="module")
def traced():
    return {w: [parse(run(w, 1)) for _ in range(2)] for w in WORKLOADS}


def values(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_untraced_run_reports_every_end_to_end_metric():
    detail, result = parse(run("periodic", 0))
    assert result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert result["metrics"][spec["name"]]["value"] > 0
    assert detail["tail_samples"] - detail["tail_samples"] * detail["tail_percentile"] / 100 >= 10


def test_traced_run_reports_every_per_layer_metric(traced):
    for workload, runs in traced.items():
        for _detail, result in runs:
            assert result["correct"], workload
            assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
            for spec in SPEC["per_layer"]:
                assert result["metrics"][spec["name"]]["unit"] == spec["unit"]


def test_routes_and_outcomes_are_covered(traced):
    extract = values(traced["extract"][0][1])
    assert extract["dilation.descent.items"] > 0 and extract["dilation.sweep.items"] > 0
    assert extract["core.find_violation.calls"] > 0
    grids = values(traced["grids"][0][1])
    assert grids["folner.defect.enum.calls"] > 0 and grids["folner.defect.closed.calls"] > 0
    periodic = values(traced["periodic"][0][1])
    for tag in ("periodic-containment", "density-drop", "ap-not-found"):
        assert periodic[f"periodic.fls_step.outcome.{tag}"] > 0, tag
    assert periodic["periodic.fls_step.outcome.falsified"] == 0
    solve = values(traced["solve"][0][1])
    assert solve["solver.bb.nodes"] > 0 and solve["solver.brute.nodes"] > 0


def test_counts_repeat_exactly_between_runs(traced):
    for workload, (first, second) in traced.items():
        a, b = first[1]["metrics"], second[1]["metrics"]
        counts = [name for name, m in a.items() if m["unit"] == "count"]
        assert counts
        for name in counts:
            assert a[name]["value"] == b[name]["value"], (workload, name)


def test_self_times_add_up_to_the_traced_item_time(traced):
    layers = ("core", "dilation", "folner", "solver", "periodic", "measures", "harness")
    for workload, runs in traced.items():
        m = values(runs[0][1])
        total = sum(m[f"{layer}.self_s"] for layer in layers) + m["bench.self_s"]
        assert total == pytest.approx(m["trace.item_s"], rel=1e-9), workload
        assert 0 < m["bench.self_s"] < m["trace.item_s"]


def test_same_seed_same_inputs_and_outputs(traced):
    for workload, (first, second) in traced.items():
        assert first[0]["input_digest"] == second[0]["input_digest"], workload
        assert first[0]["output_digest"] == second[0]["output_digest"], workload
    sys.path.insert(0, str(ROOT / "src"))
    try:
        program = runner.load_program()
    finally:
        sys.path.remove(str(ROOT / "src"))
    for workload, generate in workloads.WORKLOADS.items():
        digests = {
            workloads.batch_digest((i.kind, i.params) for i in generate(program, seed))
            for seed in (RATIONALE["default_seed"], RATIONALE["held_out_seed"])
        }
        assert len(digests) == 2, workload


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "traces")
    )
    out = run("extract", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_speed_scales_use_the_probes_around_each_item():
    import speed

    # three probes before the first item, one after each item, two more after the last
    samples = [2e-3] * 3 + [2e-3, 4e-3, 4e-3, 4e-3] + [4e-3] * 2
    factors = speed.scales(samples, [3, 4, 5, 6])
    assert factors[0] == pytest.approx(speed.REFERENCE_S / 2e-3)
    assert factors[-1] == pytest.approx(speed.REFERENCE_S / 4e-3)
    assert factors[0] > factors[1] > factors[-1]
