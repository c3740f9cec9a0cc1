"""The wall teams under scenarios/: the generator that writes them, and the
discrete stage at 32 robots."""

import importlib.util
import os

import pytest

from swarmplan.discrete_planner import check_discrete_rules, solve_discrete
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


def test_32_robot_discrete_stage_is_makespan_19():
    # about 3 s on two cores: the root LP stops at its iteration cap and
    # branch and cut closes the K = 19 program at its root node
    sc = ScenarioSpec.load(os.path.join(SCENARIO_DIR, "wall_windows_32.json"))
    plan = solve_discrete(sc)
    assert plan.num_segments == 19
    assert check_discrete_rules(plan.cell_paths, sc) == []
