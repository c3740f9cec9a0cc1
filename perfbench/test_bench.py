"""The benchmark's own test: a short run of the smoke workload
(scenarios/handover_3.json, about 5 s per run), untraced and traced.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# per-layer metrics that must be above 0 on the smoke scenario, which runs
# every layer: a 0 means a wrapper no longer catches its caller's calls
SMOKE_NONZERO = (
    "opt_engine.qp_calls",
    "bezier_opt.solves",
    "corridor.builds",
    "corridor.separator_instances",
    "discrete_planner.maxflow_calls",
    "discrete_planner.ilp_calls",
    "discrete_planner.graph_builds",
    "validate.calls",
    "validate.smoothness_s",
    "refine.rounds",
    "scenario.load_s",
)


def run(trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return done.stdout.splitlines()


@pytest.fixture(scope="module")
def untraced():
    return run(0)


@pytest.fixture(scope="module")
def traced(untraced):
    lines = run(1)
    trace = json.loads((ROOT / ".perfbench_out" / "smoke.trace.json").read_text())
    return lines, trace


def check_printed(lines, declared):
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        # the human-readable lines name each metric with its unit too
        assert any(
            line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"] for line in lines
        ), m["name"]


def test_end_to_end_metrics_printed_with_units(untraced):
    check_printed(untraced, BENCHMARK["end_to_end"])
    result = json.loads(untraced[-1])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_metrics_printed_with_units(traced):
    lines, _ = traced
    check_printed(lines, BENCHMARK["per_layer"])


def test_every_layer_is_seen_on_the_smoke_scenario(traced):
    _, trace = traced
    assert trace["summary"]["unwrapped"] == []
    for name in SMOKE_NONZERO:
        assert trace["per_layer"][name]["value"] > 0, name


def test_self_times_are_not_negative(traced):
    _, trace = traced
    # child durations are summed in floating point, hence the rounding slack
    assert all(s["self"] >= -1e-9 for s in trace["spans"] if "self" in s)
    assert all(v >= -1e-9 for v in trace["summary"]["layer_self_s"].values())


def test_child_spans_lie_inside_their_parent(traced):
    _, trace = traced
    spans = trace["spans"]
    assert any(s["parent"] is not None for s in spans)
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
            assert s["scenario"] == parent["scenario"]


def test_layer_self_times_add_up_to_the_traced_plan_time(traced):
    _, trace = traced
    # plan_s_samples are timed by the harness, not read from the spans
    samples = trace["plan_s_samples"]
    assert trace["summary"]["plans"] == len(samples)
    measured = sum(samples) / len(samples)
    assert trace["summary"]["layer_self_sum_s"] == pytest.approx(measured, abs=1e-3)


def test_team_generator_matches_the_acceptance_suite():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    from test_acceptance import random_team_scenario as reference
    from workloads import random_team_scenario

    for seed in range(20):
        assert random_team_scenario(np.random.default_rng(seed)) == reference(
            np.random.default_rng(seed)
        )
