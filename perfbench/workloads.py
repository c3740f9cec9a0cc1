"""Workload definitions: the scenarios each workload plans, the pipeline it
times, and the correctness checks made on every result.

Every workload is a closed loop with one client: the next scenario starts
only after the previous one has finished and been checked.  See README.md
for why each workload exists and which layer it stresses.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from swarmplan import cli, discrete_planner
from swarmplan.bezier_opt import PiecewiseBezierTrajectory
from swarmplan.discrete_planner import (
    DiscreteInfeasibleError,
    DiscretePlan,
    check_discrete_rules,
    lower_bound_makespan,
)
from swarmplan.scenario import GridSpec, ScenarioSpec
from swarmplan.validate import validate_trajectories

ROOT = Path(__file__).resolve().parent.parent
WALL = ROOT / "scenarios" / "wall_windows_8.json"
HANDOVER = ROOT / "scenarios" / "handover_3.json"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "plan": the full `swarmplan plan` path; "grid": discrete stage only
    scenarios: Callable  # (seed, workdir) -> endless iterator of the Items to plan
    jobs: int | None = None  # --jobs for the plan path; None keeps the CLI default
    iterations: int | None = None  # --iterations; None keeps the scenario's own budget
    expected_makespan: int | None = None


def cli_jobs(workload):
    """The --jobs value the plan path runs with (the CLI default when unset)."""
    if workload.kind != "plan":
        return None
    return workload.jobs if workload.jobs is not None else os.cpu_count()


@dataclass
class Item:
    """One scenario of a workload, as the planner receives it."""

    key: str  # identifies the scenario; repeats of one scenario share it
    scenario: ScenarioSpec
    path: Path | None = None  # scenario file handed to the CLI
    lower_bound: int | None = None


def random_team_scenario(rng):
    """A 6-robot team on a 5x5x2 grid with 0-3 obstacles.

    A copy of tests/test_acceptance.py::random_team_scenario, kept here so
    that set-up does not import the test suite; test_bench.py checks that
    the two draw the same teams.
    """
    cols = [(x, y) for x in range(5) for y in range(5)]
    sp = rng.choice(len(cols), size=6, replace=False)
    gp = rng.choice(len(cols), size=6, replace=False)
    starts = [cols[i] + (int(rng.integers(2)),) for i in sp]
    goals = [cols[i] + (int(rng.integers(2)),) for i in gp]
    used = set(starts) | set(goals)
    free = [
        c for c in itertools.product(range(5), range(5), range(2)) if c not in used
    ]
    k = int(rng.integers(0, 4))
    obstacles = [free[i] for i in rng.choice(len(free), size=k, replace=False)]
    return ScenarioSpec(
        grid=GridSpec(dims=(5, 5, 2), cell_size=0.5),
        starts=starts,
        goals=goals,
        obstacles=obstacles,
    )


def two_layer_wall():
    """wall_windows_8 plus a copy of every start and goal at z=3: 16 robots."""
    base = ScenarioSpec.load(WALL)

    def upper(cells):
        return [(x, y, 3) for x, y, _ in cells]

    return dataclasses.replace(
        base, starts=base.starts + upper(base.starts), goals=base.goals + upper(base.goals)
    )


def repeat_file(path):
    """Scenario source that plans one scenario file over and over; the seed is unused."""

    def stream(seed, workdir):
        return itertools.repeat(Item(path.stem, ScenarioSpec.load(path), path))

    return stream


def repeat_two_layer_wall(seed, workdir):
    """Scenario source of grid16: the two-layer wall, over and over."""
    return itertools.repeat(Item("wall_windows_8_two_layer", two_layer_wall()))


def random_teams(seed, workdir):
    """Scenario source of teams6: a fresh team drawn from the seed each time,
    skipping draws whose goals are unreachable."""
    rng = np.random.default_rng(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    for index in itertools.count():
        scenario = random_team_scenario(rng)
        try:
            bound = lower_bound_makespan(scenario)
        except DiscreteInfeasibleError:
            continue
        path = workdir / f"team_{index:04d}.json"
        scenario.save(path)
        yield Item(f"team{index}", scenario, path, bound)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("wall8", "plan", repeat_file(WALL), jobs=1, expected_makespan=11),
        Workload("grid16", "grid", repeat_two_layer_wall, expected_makespan=14),
        Workload("teams6", "plan", random_teams, iterations=2),
        # the benchmark's own test: every layer on a ~5 s scenario
        Workload("smoke", "plan", repeat_file(HANDOVER), jobs=1),
    )
}


@dataclass
class Sample:
    """What one planned scenario produced."""

    key: str
    plan_s: float
    makespan: int | None = None
    first_safe_s: float | None = None
    final_cost: float | None = None
    peak_accel: float | None = None
    robot_rounds: int = 0  # robot-rounds after round 0
    kept_rounds: int = 0  # of those, rounds in which the curve did not change
    frozen: list = field(default_factory=list)  # robots kept in every round after 0
    problems: list = field(default_factory=list)


class RefineCapture:
    """Reads refinement iterates through refine_trajectories' on_accept hook.

    Installed around the CLI's binding in traced and untraced runs alike,
    so that first_safe_s and kept_frac come from the same path.
    """

    def __init__(self):
        self.calls = []

    def install(self):
        original = cli.refine_trajectories

        def refine_with_capture(plan, scenario, **kwargs):
            accepted = []

            def on_accept(iteration, trajectories):
                points = [
                    np.concatenate([piece.points for piece in t.pieces])
                    for t in trajectories
                ]
                accepted.append((time.perf_counter(), points))

            result = original(plan, scenario, on_accept=on_accept, **kwargs)
            self.calls.append((accepted, result))
            return result

        cli.refine_trajectories = refine_with_capture


def run_plan(workload, item, outdir, capture, timed):
    """Time one `swarmplan plan` call inside the context timed; the checks
    run after the clock stops."""
    argv = ["plan", "--scenario", str(item.path), "--out", str(outdir)]
    if workload.jobs is not None:
        argv += ["--jobs", str(workload.jobs)]
    if workload.iterations is not None:
        argv += ["--iterations", str(workload.iterations)]
    capture.calls.clear()
    console = io.StringIO()
    with timed:
        t0 = time.perf_counter()
        error = None
        try:
            with contextlib.redirect_stdout(console):
                code = cli.main(argv)
        except Exception:
            error = traceback.format_exc()
        sample = Sample(item.key, time.perf_counter() - t0)

    if error is not None:
        sample.problems.append(f"swarmplan plan raised: {error}")
    elif code != 0:
        sample.problems.append(f"swarmplan plan exited {code}: {console.getvalue().strip()}")
    if len(capture.calls) != 1:
        sample.problems.append(f"refinement ran {len(capture.calls)} times, expected once")
        return sample
    accepted, result = capture.calls[0]
    if accepted:
        sample.first_safe_s = accepted[0][0] - t0
    if result.rows:
        sample.final_cost = float(result.rows[-1]["cost"])
    sample.peak_accel = float(result.validation.peaks["accel"])
    kept = np.zeros(item.scenario.num_robots, dtype=int)
    for (_, before), (_, after) in zip(accepted, accepted[1:]):
        kept += [np.array_equal(a, b) for a, b in zip(before, after)]
    sample.robot_rounds = max(0, len(accepted) - 1) * item.scenario.num_robots
    sample.kept_rounds = int(kept.sum())
    if len(accepted) > 1:
        sample.frozen = [int(r) for r in np.flatnonzero(kept == len(accepted) - 1)]
    sample.problems += check_plan_output(workload, item, outdir, sample)
    return sample


def check_plan_output(workload, item, outdir, sample):
    """Reload the exported artifacts and audit them as `swarmplan validate` would."""
    problems = []
    scenario = item.scenario
    plan_file = outdir / "discrete_plan.json"
    if not plan_file.is_file():
        return [f"missing {plan_file.name}"]
    plan = DiscretePlan.load(plan_file)
    sample.makespan = len(plan.cell_paths[0]) - 1
    problems += check_makespan(workload, item, sample.makespan)
    problems += check_discrete_rules(plan.cell_paths, scenario)

    names = sorted((outdir / "trajectories").glob("robot_*.csv"))
    if len(names) != scenario.num_robots:
        return problems + [f"{len(names)} trajectory files for {scenario.num_robots} robots"]
    trajectories = [PiecewiseBezierTrajectory.load_csv(n) for n in names]
    report = validate_trajectories(
        trajectories,
        scenario,
        expected_starts=plan.waypoints[:, 0],
        expected_goals=plan.waypoints[:, -1],
    )
    if not report.ok:
        problems.append(f"reloaded trajectories fail validation: {report.to_dict()}")
    return problems


def check_makespan(workload, item, makespan):
    problems = []
    if workload.expected_makespan is not None and makespan != workload.expected_makespan:
        problems.append(f"makespan {makespan}, expected {workload.expected_makespan}")
    if item.lower_bound is not None and makespan < item.lower_bound:
        problems.append(f"makespan {makespan} below the flow lower bound {item.lower_bound}")
    return problems


def run_grid(workload, item, timed):
    """Time the discrete stage alone, solve_discrete(...).postprocessed(),
    inside the context timed."""
    with timed:
        t0 = time.perf_counter()
        error = None
        try:
            plan = discrete_planner.solve_discrete(item.scenario)
            plan.postprocessed()
        except Exception:
            error = traceback.format_exc()
        sample = Sample(item.key, time.perf_counter() - t0)
    if error is not None:
        sample.problems.append(f"discrete stage raised: {error}")
        return sample
    sample.makespan = plan.num_segments
    sample.problems += check_makespan(workload, item, sample.makespan)
    sample.problems += check_discrete_rules(plan.cell_paths, item.scenario)
    return sample
