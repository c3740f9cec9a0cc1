"""The wall teams under scenarios/: the generator that writes them, the
discrete stage at 32 and 48 robots, and the round-0 smoothing programs at
32 robots."""

import hashlib
import importlib.util
import json
import os

import numpy as np
import pytest

from test_bezier import fitted_coefficients

from swarmplan.bezier_opt import fallback_trajectory, optimize_trajectory
from swarmplan.corridor import build_corridors
from swarmplan.discrete_planner import (
    EnvironmentGraph,
    TimeExpandedGraph,
    check_discrete_rules,
    lower_bound_makespan,
    solve_discrete,
)
from swarmplan.opt_engine import max_flow
from swarmplan.scenario import ScenarioSpec

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


@pytest.fixture(scope="module")
def make_walls():
    spec = importlib.util.spec_from_file_location(
        "make_walls", os.path.join(SCENARIO_DIR, "make_walls.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("rows, robots", [(2, 32), (3, 48)])
def test_generator_reproduces_the_committed_files(make_walls, rows, robots):
    path = make_walls.team_path(rows)
    assert os.path.basename(path) == f"wall_windows_{robots}.json"
    with open(path, "rb") as f:
        assert f.read() == make_walls.team_text(rows).encode()
    assert ScenarioSpec.load(path).num_robots == robots


@pytest.fixture(scope="module")
def wall_32():
    # about 1.3 s on two cores: the K = 19 program (37,863 columns) is above
    # the root LP's column cap, and branch and cut closes it at its root node
    sc = ScenarioSpec.load(os.path.join(SCENARIO_DIR, "wall_windows_32.json"))
    return solve_discrete(sc), sc


def test_32_robot_discrete_stage_is_makespan_19(wall_32):
    plan, sc = wall_32
    assert plan.num_segments == 19
    assert check_discrete_rules(plan.cell_paths, sc) == []


def test_32_robot_bound_walks_six_horizons_above_the_hop_bound():
    # the robots' nearest goals are 13 hops away, but the wall's windows
    # let all 32 through only by step 19
    sc = ScenarioSpec.load(os.path.join(SCENARIO_DIR, "wall_windows_32.json"))
    env = EnvironmentGraph(sc)
    hops = max(env.goal_dist[env.starts].max(), env.start_dist[env.goals].max())
    assert hops == 13
    assert lower_bound_makespan(sc, env) == 19
    assert max_flow(TimeExpandedGraph(sc, env, 18).flow_network()) < 32


def test_32_robot_cell_paths_are_pinned(wall_32):
    # the plan that HiGHS' branch and cut returns; a different one changes
    # every later stage of the 32-robot wall
    plan, _ = wall_32
    digest = hashlib.sha256(json.dumps(plan.cell_paths).encode()).hexdigest()
    assert digest == "cacf8db4bc301dccae8c6a1d6e8e364bb643a4864c790c9aeb3c4398a1d9268d"


@pytest.fixture(scope="module")
def wall_48():
    # about 1.3 s on two cores
    sc = ScenarioSpec.load(os.path.join(SCENARIO_DIR, "wall_windows_48.json"))
    return solve_discrete(sc), sc


def test_48_robot_cell_paths_are_pinned(wall_48):
    plan, sc = wall_48
    assert plan.num_segments == 25
    assert check_discrete_rules(plan.cell_paths, sc) == []
    digest = hashlib.sha256(json.dumps(plan.cell_paths).encode()).hexdigest()
    assert digest == "ddf813bdb45592dbaebabdc4d8e22dcefcedcf1a61b86536b35d6aa688c178eb"


def test_32_robot_round_zero_programs_stop_as_converged(wall_32):
    # refinement's round 0: corridors around the straight lines' control
    # points (which lie on the plan's segments), every program started
    # from its straight line's coefficients.  Each closes its duality gap,
    # none ends by stall or breakdown
    plan, sc = wall_32
    plan = plan.postprocessed()
    durations = [plan.dt] * plan.num_segments
    straight = [
        fallback_trajectory(wp, durations, sc.degree, sc.continuity)
        for wp in plan.waypoints
    ]
    corridors = build_corridors(np.stack([t.points for t in straight]), sc)
    assert not corridors.failed_pairs and not corridors.failed_robots
    out = optimize_trajectory(
        plan.waypoints[:, 0], plan.waypoints[:, -1], durations,
        corridors.cells, corridors.normals, corridors.offsets,
        sc.degree, sc.continuity, tuple(sc.weights),
        fitted_coefficients(straight, sc.degree, sc.continuity),
    )
    assert [result.stop for _, _, result in out] == ["converged"] * 32
