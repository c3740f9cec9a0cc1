"""Grid-stage planner tests.

Hand cases are small enough to reason through on paper; the broad random
comparison against the joint-state search lives in the acceptance suite.
"""

import hashlib
import json
import os

import numpy as np
import pytest
from scipy.optimize import linprog

from swarmplan import discrete_planner
from swarmplan.discrete_planner import (
    DiscreteInfeasibleError,
    DiscretePlan,
    EnvironmentGraph,
    TimeExpandedGraph,
    check_discrete_rules,
    lower_bound_makespan,
    solve_discrete,
)
from swarmplan.opt_engine import ILPInfeasibleError, solve_ilp
from swarmplan.scenario import GridSpec, ScenarioSpec
from swarmplan.validate import mapf_oracle

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def scenario(dims, starts, goals, obstacles=(), cell_size=0.5, radii=(0.12, 0.12, 0.3)):
    return ScenarioSpec(
        grid=GridSpec(dims=dims, cell_size=cell_size),
        starts=list(starts),
        goals=list(goals),
        obstacles=list(obstacles),
        radii=radii,
    )


class TestRuleChecker:
    def setup_method(self):
        self.sc = scenario((3, 3, 2), [(0, 0, 0), (2, 0, 0)], [(2, 2, 0), (0, 2, 0)])

    def test_valid_plan_passes(self):
        paths = [
            [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 2, 0), (0, 2, 0)],
            [(2, 0, 0), (2, 1, 0), (2, 2, 0), (2, 2, 0), (2, 2, 0)],
        ]
        assert check_discrete_rules(paths, self.sc) == []

    def test_wrong_start(self):
        paths = [[(1, 0, 0), (0, 0, 0)], [(2, 0, 0), (2, 0, 0)]]
        problems = check_discrete_rules(paths, self.sc)
        assert any("starts at" in p for p in problems)

    def test_illegal_diagonal_move(self):
        paths = [[(0, 0, 0), (1, 1, 0)], [(2, 0, 0), (2, 0, 0)]]
        problems = check_discrete_rules(paths, self.sc)
        assert any("illegal move" in p for p in problems)

    def test_blocked_cell(self):
        sc = scenario(
            (3, 3, 2),
            [(0, 0, 0), (2, 0, 0)],
            [(2, 2, 0), (0, 2, 0)],
            obstacles=[(1, 0, 0)],
        )
        paths = [[(0, 0, 0), (1, 0, 0)], [(2, 0, 0), (2, 1, 0)]]
        problems = check_discrete_rules(paths, sc)
        assert any("blocked" in p for p in problems)

    def test_wrong_goal_set(self):
        paths = [[(0, 0, 0), (0, 1, 0)], [(2, 0, 0), (2, 1, 0)]]
        problems = check_discrete_rules(paths, self.sc)
        assert any("goal set" in p for p in problems)

    def test_shared_cell(self):
        paths = [
            [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0), (2, 2, 0)],
            [(2, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 2, 0)],
        ]
        problems = check_discrete_rules(paths, self.sc)
        assert any("share cell" in p for p in problems)

    def test_swap_detected(self):
        sc = scenario((2, 2, 1), [(0, 0, 0), (1, 0, 0)], [(1, 0, 0), (0, 0, 0)])
        paths = [[(0, 0, 0), (1, 0, 0)], [(1, 0, 0), (0, 0, 0)]]
        problems = check_discrete_rules(paths, sc)
        assert any("swap" in p for p in problems)

    def test_column_stacking_detected(self):
        # cells one level apart in the same column sit 0.5 m apart, closer
        # than the 0.6 m the ellipsoid height demands
        paths = [
            [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 2, 0), (0, 2, 0)],
            [(2, 0, 0), (1, 0, 1), (1, 1, 1), (2, 1, 0), (2, 2, 0)],
        ]
        problems = check_discrete_rules(paths, self.sc)
        assert any("stack too closely" in p for p in problems)

    def test_opposite_edge_crossing_detected(self):
        sc = scenario(
            (2, 1, 2), [(0, 0, 0), (1, 0, 1)], [(1, 0, 0), (0, 0, 1)]
        )
        paths = [[(0, 0, 0), (1, 0, 0)], [(1, 0, 1), (0, 0, 1)]]
        problems = check_discrete_rules(paths, sc)
        assert any("opposite directions" in p for p in problems)

    def test_opposite_crossing_far_apart_allowed(self):
        # same crossing two levels apart: 1.0 m clears the 0.6 m threshold
        sc = scenario(
            (2, 1, 3), [(0, 0, 0), (1, 0, 2)], [(1, 0, 0), (0, 0, 2)]
        )
        paths = [[(0, 0, 0), (1, 0, 0)], [(1, 0, 2), (0, 0, 2)]]
        assert check_discrete_rules(paths, sc) == []

    def test_mixed_lengths(self):
        paths = [[(0, 0, 0), (0, 1, 0)], [(2, 0, 0)]]
        problems = check_discrete_rules(paths, self.sc)
        assert any("mixed lengths" in p for p in problems)

    def test_wrong_robot_count(self):
        problems = check_discrete_rules([[(0, 0, 0)]], self.sc)
        assert any("paths" in p for p in problems)


class TestLowerBound:
    def test_single_robot_is_manhattan_distance(self):
        sc = scenario((4, 3, 1), [(0, 0, 0)], [(3, 2, 0)])
        assert lower_bound_makespan(sc) == 5

    def test_zero_when_already_at_goals(self):
        sc = scenario((3, 3, 1), [(0, 0, 0), (2, 2, 0)], [(2, 2, 0), (0, 0, 0)])
        assert lower_bound_makespan(sc) == 0

    def test_detour_around_obstacle(self):
        # straight line blocked, so the flow bound sees the longer route
        sc = scenario((3, 3, 1), [(0, 1, 0)], [(2, 1, 0)], obstacles=[(1, 1, 0)])
        assert lower_bound_makespan(sc) == 4

    def test_unreachable_goal_raises(self):
        sc = scenario(
            (3, 3, 1),
            [(0, 0, 0)],
            [(2, 2, 0)],
            obstacles=[(1, 2, 0), (2, 1, 0)],
        )
        with pytest.raises(DiscreteInfeasibleError, match="unreachable"):
            lower_bound_makespan(sc)

    def test_component_capacity_mismatch_raises(self):
        # two goals in a sealed pocket holding only one start
        sc = scenario(
            (3, 3, 1),
            [(0, 0, 0), (2, 2, 0)],
            [(2, 2, 0), (1, 2, 0)],
            obstacles=[(0, 2, 0), (1, 1, 0), (2, 1, 0)],
        )
        with pytest.raises(DiscreteInfeasibleError, match="holds"):
            lower_bound_makespan(sc)


class TestSolveDiscrete:
    def test_single_robot_straight_line(self):
        sc = scenario((4, 1, 1), [(0, 0, 0)], [(3, 0, 0)])
        plan = solve_discrete(sc)
        assert plan.num_segments == 3
        assert plan.cell_paths == [[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)]]
        assert np.allclose(plan.waypoints[0, 0], [0.0, 0.0, 0.0])
        assert np.allclose(plan.waypoints[0, -1], [1.5, 0.0, 0.0])

    def test_goal_set_equal_to_start_set_needs_no_steps(self):
        # robots are interchangeable: a swapped goal list is the same set
        sc = scenario((3, 1, 1), [(0, 0, 0), (2, 0, 0)], [(2, 0, 0), (0, 0, 0)])
        plan = solve_discrete(sc)
        assert plan.num_segments == 0
        assert sorted(p[0] for p in plan.cell_paths) == [(0, 0, 0), (2, 0, 0)]

    def test_adjacent_columns_move_vertically_in_one_step(self):
        sc = scenario((2, 1, 2), [(0, 0, 0), (1, 0, 1)], [(0, 0, 1), (1, 0, 0)])
        plan = solve_discrete(sc)
        assert plan.num_segments == mapf_oracle(sc)[0] == 1

    def test_matches_oracle_on_hand_scenarios(self):
        cases = [
            scenario((3, 3, 1), [(0, 0, 0), (2, 0, 0)], [(2, 2, 0), (0, 2, 0)]),
            scenario((4, 1, 1), [(0, 0, 0), (1, 0, 0)], [(2, 0, 0), (3, 0, 0)]),
            scenario(
                (3, 3, 1),
                [(0, 1, 0), (2, 1, 0)],
                [(2, 1, 0), (0, 1, 0)],
                obstacles=[(1, 0, 0)],
            ),
            scenario((2, 2, 2), [(0, 0, 0), (1, 1, 1)], [(1, 1, 0), (0, 0, 1)]),
            scenario(
                (3, 2, 2),
                [(0, 0, 0), (2, 0, 0), (1, 1, 1)],
                [(2, 1, 1), (0, 1, 0), (1, 0, 0)],
            ),
        ]
        for sc in cases:
            plan = solve_discrete(sc)
            steps, _ = mapf_oracle(sc)
            assert plan.num_segments == steps
            assert check_discrete_rules(plan.cell_paths, sc) == []

    def test_assignment_maps_finals_to_goals(self):
        sc = scenario((3, 3, 1), [(0, 0, 0), (2, 0, 0)], [(2, 2, 0), (0, 2, 0)])
        plan = solve_discrete(sc)
        assert sorted(plan.assignment) == [0, 1]
        for i, path in enumerate(plan.cell_paths):
            assert path[-1] == sc.goals[plan.assignment[i]]

    def test_waypoints_are_cell_centers(self):
        sc = scenario((3, 3, 1), [(0, 0, 0)], [(2, 2, 0)])
        plan = solve_discrete(sc)
        for i, path in enumerate(plan.cell_paths):
            for k, cell in enumerate(path):
                assert np.allclose(plan.waypoints[i, k], sc.grid.cell_center(cell))

    def test_infeasible_raises(self):
        sc = scenario(
            (3, 3, 1),
            [(0, 0, 0)],
            [(2, 2, 0)],
            obstacles=[(1, 2, 0), (2, 1, 0)],
        )
        with pytest.raises(DiscreteInfeasibleError):
            solve_discrete(sc)

    def test_shorter_horizon_cannot_route_everyone(self):
        # one step below the optimum the program routes fewer than n robots
        sc = scenario((3, 3, 1), [(0, 0, 0), (2, 0, 0)], [(2, 2, 0), (0, 2, 0)])
        plan = solve_discrete(sc)
        K = plan.num_segments
        assert K > 0
        env = EnvironmentGraph(sc)
        graph = TimeExpandedGraph(sc, env, K - 1)
        try:
            result = solve_ilp(graph.binary_program())
            assert int(round(result.objective)) < sc.num_robots
        except ILPInfeasibleError:
            pass

    def test_fractional_root_goes_to_branch_and_cut(self):
        # two robots on two layers: the root LP of the K = 3 program is
        # fractional, so the plan comes from HiGHS' branch and cut
        sc = scenario((3, 3, 2), [(1, 0, 0), (2, 2, 1)], [(0, 1, 1), (2, 2, 0)])
        env = EnvironmentGraph(sc)
        K = lower_bound_makespan(sc, env)
        ilp = TimeExpandedGraph(sc, env, K).binary_program()
        root = linprog(
            -ilp.c, A_ub=ilp.A_in, b_ub=ilp.b_in, A_eq=ilp.A_eq, b_eq=ilp.b_eq,
            bounds=(0, 1), method="highs",
        )
        assert root.status == 0
        assert np.abs(root.x - np.round(root.x)).max() > 0.1

        plan = solve_discrete(sc)
        assert check_discrete_rules(plan.cell_paths, sc) == []
        assert plan.num_segments == K == mapf_oracle(sc)[0]

        first = solve_ilp(ilp, target=sc.num_robots)
        second = solve_ilp(ilp, target=sc.num_robots)
        assert first.objective == sc.num_robots
        assert np.array_equal(first.z, second.z)
        assert first.nodes == second.nodes

    def test_wall_cell_paths_are_pinned(self):
        # the wall's root LP is integral, so the plan is that vertex; a
        # different plan changes every later stage of the bundled scenario
        sc = ScenarioSpec.load(os.path.join(SCENARIO_DIR, "wall_windows_8.json"))
        plan = solve_discrete(sc)
        assert plan.num_segments == 11
        digest = hashlib.sha256(json.dumps(plan.cell_paths).encode()).hexdigest()
        assert digest == "0761b0b1176e1a1a01633ae3ac021c5b15c5944030a8d1885d7f499c6a2a3b42"

    def test_wall_builds_one_graph_per_horizon(self, monkeypatch):
        # the lower bound's bisection already built and routed the graph at
        # K = lower bound; the ILP there must reuse it
        built = []

        def recording(scenario, env, K):
            built.append(K)
            return TimeExpandedGraph(scenario, env, K)

        monkeypatch.setattr(discrete_planner, "TimeExpandedGraph", recording)
        sc = ScenarioSpec.load(os.path.join(SCENARIO_DIR, "wall_windows_8.json"))
        plan = solve_discrete(sc)
        assert plan.num_segments in built
        assert len(built) == len(set(built))


class TestDiscretePlan:
    def make_plan(self):
        sc = scenario((3, 1, 1), [(0, 0, 0)], [(2, 0, 0)])
        return solve_discrete(sc)

    def test_round_trip(self, tmp_path):
        plan = self.make_plan()
        path = tmp_path / "plan.json"
        plan.save(path)
        again = DiscretePlan.load(path)
        assert again.dt == plan.dt
        assert again.assignment == plan.assignment
        assert again.cell_paths == plan.cell_paths
        assert np.array_equal(again.waypoints, plan.waypoints)

    def test_postprocessed_shape_and_endpoints(self):
        plan = self.make_plan()
        post = plan.postprocessed()
        assert post.dt == plan.dt / 2
        assert post.num_segments == 2 * plan.num_segments + 2
        # standstill padding repeats the first and last waypoints
        assert np.array_equal(post.waypoints[:, 0], post.waypoints[:, 1])
        assert np.array_equal(post.waypoints[:, -1], post.waypoints[:, -2])
        assert np.array_equal(post.waypoints[:, 0], plan.waypoints[:, 0])
        assert np.array_equal(post.waypoints[:, -1], plan.waypoints[:, -1])
        assert post.duration == pytest.approx(plan.duration + plan.dt)

    def test_postprocessed_inserts_midpoints(self):
        plan = self.make_plan()
        post = plan.postprocessed()
        inner = post.waypoints[:, 1:-1]
        assert np.array_equal(inner[:, 0::2], plan.waypoints)
        expected_mid = 0.5 * (plan.waypoints[:, :-1] + plan.waypoints[:, 1:])
        assert np.allclose(inner[:, 1::2], expected_mid)

    def test_bad_waypoint_shape_rejected(self):
        with pytest.raises(ValueError):
            DiscretePlan(dt=0.5, waypoints=np.zeros((2, 3)), assignment=[0, 1])


class TestOracle:
    def test_single_robot_manhattan(self):
        sc = scenario((4, 3, 2), [(0, 0, 0)], [(3, 2, 1)])
        steps, configs = mapf_oracle(sc)
        assert steps == 6
        assert configs[0] == ((0, 0, 0),)
        assert configs[-1] == ((3, 2, 1),)

    def test_configs_are_sorted_tuples(self):
        sc = scenario((3, 1, 1), [(2, 0, 0), (0, 0, 0)], [(0, 0, 0), (2, 0, 0)])
        steps, configs = mapf_oracle(sc)
        assert steps == 0
        assert configs == [((0, 0, 0), (2, 0, 0))]

    def test_consecutive_configs_differ_by_legal_moves(self):
        sc = scenario((3, 3, 1), [(0, 0, 0), (2, 0, 0)], [(2, 2, 0), (0, 2, 0)])
        steps, configs = mapf_oracle(sc)
        assert len(configs) == steps + 1
        for cfg in configs:
            assert cfg == tuple(sorted(cfg))
            assert len(set(cfg)) == len(cfg)

    def test_unsolvable_raises(self):
        sc = scenario(
            (3, 3, 1),
            [(0, 0, 0)],
            [(2, 2, 0)],
            obstacles=[(1, 2, 0), (2, 1, 0)],
        )
        with pytest.raises(ValueError, match="no synchronized plan"):
            mapf_oracle(sc)
