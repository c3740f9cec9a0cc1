"""Grid-stage planner tests.

Hand cases are small enough to reason through on paper; the broad random
comparison against the joint-state search lives in the acceptance suite.
"""

import dataclasses
import hashlib
import itertools
import json
import os
from collections import defaultdict, deque

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from test_acceptance import random_team_scenario
from test_opt_engine import random_ilps

from swarmplan import discrete_planner, opt_engine
from swarmplan.discrete_planner import (
    DiscreteInfeasibleError,
    DiscretePlan,
    EnvironmentGraph,
    TimeExpandedGraph,
    check_discrete_rules,
    lower_bound_makespan,
    solve_discrete,
)
from swarmplan.opt_engine import BinaryILP, FlowNetwork, ILPInfeasibleError, max_flow, solve_ilp
from swarmplan.scenario import GridSpec, ScenarioSpec
from swarmplan.validate import mapf_oracle

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def two_layer_wall():
    """wall_windows_8 with every start and goal copied one layer up, at
    z = 3: 16 robots."""
    base = ScenarioSpec.load(os.path.join(SCENARIO_DIR, "wall_windows_8.json"))

    def upper(cells):
        return [(x, y, 3) for x, y, _ in cells]

    return dataclasses.replace(
        base, starts=base.starts + upper(base.starts), goals=base.goals + upper(base.goals)
    )


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

    def test_step_cap_stops_the_walk(self, monkeypatch):
        # the cap falls to one step, below this robot's bound of 5
        monkeypatch.setattr(discrete_planner, "_STEP_CAP_PER_DIAMETER", 0)
        sc = scenario((4, 3, 1), [(0, 0, 0)], [(3, 2, 0)])
        with pytest.raises(DiscreteInfeasibleError, match="too congested"):
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
            # three levels: a column's top and bottom cells, 1.0 m apart,
            # may hold robots together, which two steps need here
            scenario(
                (3, 1, 3), [(1, 0, 1), (0, 0, 2), (2, 0, 0)], [(2, 0, 0), (2, 0, 2), (1, 0, 0)]
            ),
            scenario(
                (3, 2, 3), [(2, 0, 1), (0, 0, 2), (1, 0, 1)], [(2, 0, 2), (2, 0, 0), (1, 0, 0)]
            ),
        ]
        for sc in cases:
            plan = solve_discrete(sc)
            steps, _ = mapf_oracle(sc)
            assert plan.num_segments == steps
            assert check_discrete_rules(plan.cell_paths, sc) == []

    def test_matches_oracle_on_seeded_three_level_scenarios(self):
        # the acceptance corpus has two levels, where a column's cells all
        # conflict; seed 3 draws an instance whose two-step plans hold a
        # column's top and bottom cells together
        def column_ok(cells):
            return all(
                a[:2] != b[:2] or abs(a[2] - b[2]) > 1 for a, b in itertools.combinations(cells, 2)
            )

        rng = np.random.default_rng(3)
        for dims in [(3, 1, 3), (3, 2, 3)] * 8:
            cells = list(itertools.product(*map(range, dims)))
            while True:
                starts, goals = (
                    [cells[i] for i in rng.choice(len(cells), size=3, replace=False)]
                    for _ in range(2)
                )
                if column_ok(starts) and column_ok(goals):
                    break
            sc = scenario(dims, starts, goals)
            plan = solve_discrete(sc)
            assert plan.num_segments == mapf_oracle(sc)[0], (starts, goals)
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
        # three robots on two layers: the root LP of the K = 2 program (31
        # columns, far below the column cap) ends at a fractional vertex,
        # which is discarded, so the plan comes from HiGHS' branch and cut
        sc = scenario(
            (3, 3, 2), [(2, 0, 0), (1, 0, 0), (0, 2, 1)], [(1, 0, 1), (2, 0, 1), (2, 2, 1)]
        )
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

    @pytest.mark.parametrize(
        "name, makespan, digest",
        [
            ("handover_3", 3, "5e8406f893e51c09c30dbc2678864319127f53f4ad886eb07e11e5b03f274466"),
            ("pillars_6", 10, "b2f8a3e8e8fd793efe2c5203957faccc0b29066cec5f52293988c92ad6fa3f43"),
        ],
        ids=["handover_3", "pillars_6"],
    )
    def test_bundled_cell_paths_are_pinned(self, name, makespan, digest):
        # like the wall's: each plan is its root LP's integral vertex
        sc = ScenarioSpec.load(os.path.join(SCENARIO_DIR, f"{name}.json"))
        plan = solve_discrete(sc)
        assert plan.num_segments == makespan
        assert hashlib.sha256(json.dumps(plan.cell_paths).encode()).hexdigest() == digest

    def test_two_layer_wall_cell_paths_are_pinned(self):
        # 16 robots whose program (K = 14) is above the root LP's column
        # cap, so this pins the plan that HiGHS' branch and cut returns
        plan = solve_discrete(two_layer_wall())
        assert plan.num_segments == 14
        digest = hashlib.sha256(json.dumps(plan.cell_paths).encode()).hexdigest()
        assert digest == "bb5692e35bd7de68b4546261648a7d7948ba1c2306f8dc07f57d5a898e89efd4"

    def test_two_layer_wall_branch_and_cut_starts_with_every_robot_routed(self, monkeypatch):
        # target = 16 is the program's largest objective, so its 16 source
        # arcs, and no other column, are fixed at 1
        sc = two_layer_wall()
        bounds = []
        highs = opt_engine._highs

        def recorded(cost, rows, col_lower, col_upper, integral=False):
            if integral:
                bounds.append((col_lower, col_upper))
            return highs(cost, rows, col_lower, col_upper, integral=integral)

        monkeypatch.setattr(opt_engine, "_highs", recorded)
        K = solve_discrete(sc).num_segments
        graph = TimeExpandedGraph(sc, EnvironmentGraph(sc), K)
        sources = np.flatnonzero(graph.kinds == discrete_planner.ARC_SOURCE)
        assert len(sources) == sc.num_robots == 16
        assert len(bounds) == 1
        assert np.array_equal(np.flatnonzero(bounds[0][0] == 1), sources)
        assert (bounds[0][1] == 1).all()

    @pytest.mark.parametrize("name, lp_calls", [("wall_windows_8", 1), ("two_layer_wall", 0)])
    def test_root_lp_runs_below_the_column_cap_only(self, monkeypatch, name, lp_calls):
        # each solves one program, at its flow bound: wall_windows_8's
        # (K = 11, 1,258 columns) is its root LP's vertex, the two-layer
        # wall's (K = 14, 10,101 columns) goes to branch and cut without one
        if name == "two_layer_wall":
            sc = two_layer_wall()
        else:
            sc = ScenarioSpec.load(os.path.join(SCENARIO_DIR, f"{name}.json"))
        calls = []
        highs = opt_engine._highs

        def counted(*args, integral=False, **kwargs):
            if not integral:
                calls.append(args)
            return highs(*args, integral=integral, **kwargs)

        monkeypatch.setattr(opt_engine, "_highs", counted)
        solve_discrete(sc)
        assert len(calls) == lp_calls

    @pytest.mark.parametrize("name", ["handover_3", "wall_windows_8", "pillars_6"])
    def test_bundled_root_lps_run_within_the_cap(self, name):
        # each bundled plan is its root LP's integral vertex; a column cap
        # low enough to skip one of these LPs would hand the plan to branch
        # and cut and change every later stage of that scenario.  The
        # largest, pillars_6's, has 2,612 columns
        sc = ScenarioSpec.load(os.path.join(SCENARIO_DIR, f"{name}.json"))
        env = EnvironmentGraph(sc)
        K = solve_discrete(sc).num_segments
        ilp = TimeExpandedGraph(sc, env, K).binary_program()
        assert ilp.n <= opt_engine._ROOT_LP_MAX_COLUMNS
        root = linprog(
            -ilp.c, A_ub=ilp.A_in, b_ub=ilp.b_in, A_eq=ilp.A_eq, b_eq=ilp.b_eq,
            bounds=(0, 1), method="highs",
        )
        assert root.status == 0
        assert np.abs(root.x - np.round(root.x)).max() <= 1e-6



def public_milp(ilp, target=None):
    """The program solve_ilp hands to branch and cut, posed to scipy's
    public milp: the same rows in the same order, the same forced columns,
    presolve off, relative gap 0, and HiGHS' default symmetry detection."""
    constraints = []
    if ilp.A_eq.shape[0]:
        constraints.append(LinearConstraint(ilp.A_eq, ilp.b_eq, ilp.b_eq))
    if ilp.A_in.shape[0]:
        constraints.append(LinearConstraint(ilp.A_in, -np.inf, ilp.b_in))
    bounds = Bounds(0, 1)
    if target is not None:
        constraints.append(LinearConstraint(ilp.c[None, :], target - 1e-6, np.inf))
        if target >= ilp.c[ilp.c > 0].sum() - 1e-6:
            bounds = Bounds(ilp.c > 0, ilp.c >= 0)
    return milp(
        -ilp.c,
        integrality=np.ones(ilp.n),
        bounds=bounds,
        constraints=constraints or None,
        options={"presolve": False, "node_limit": 20000, "mip_rel_gap": 0.0},
    )


def fractional_root_program():
    """Three robots on two layers whose K = 2 program has a fractional
    root LP (see test_fractional_root_goes_to_branch_and_cut)."""
    sc = scenario(
        (3, 3, 2), [(2, 0, 0), (1, 0, 0), (0, 2, 1)], [(1, 0, 1), (2, 0, 1), (2, 2, 1)]
    )
    env = EnvironmentGraph(sc)
    return TimeExpandedGraph(sc, env, lower_bound_makespan(sc, env)).binary_program()


class TestMatchesPublicMilp:
    """solve_ilp calls HiGHS through its binding, with symmetry detection
    off; scipy's public milp, with it on, is the reference."""

    @pytest.mark.parametrize(
        "cap", [opt_engine._ROOT_LP_MAX_COLUMNS, 0], ids=["root_lp", "branch_and_cut"]
    )
    def test_random_programs(self, monkeypatch, cap):
        monkeypatch.setattr(opt_engine, "_ROOT_LP_MAX_COLUMNS", cap)
        solved = 0
        for ilp in random_ilps():
            ref = public_milp(ilp)
            if ref.status == 2:
                with pytest.raises(ILPInfeasibleError):
                    solve_ilp(ilp)
                continue
            assert ref.status == 0
            res = solve_ilp(ilp)
            assert abs(res.objective + ref.fun) <= 1e-9
            assert ilp.feasible(res.z) and ilp.feasible(np.round(ref.x))
            solved += 1
        assert solved == 56

    @pytest.mark.parametrize(
        "cap", [opt_engine._ROOT_LP_MAX_COLUMNS, 0], ids=["root_lp", "branch_and_cut"]
    )
    def test_fractional_root_program(self, monkeypatch, cap):
        monkeypatch.setattr(opt_engine, "_ROOT_LP_MAX_COLUMNS", cap)
        ilp = fractional_root_program()
        ref = public_milp(ilp, target=3)
        assert ref.status == 0
        res = solve_ilp(ilp, target=3)
        assert abs(res.objective + ref.fun) <= 1e-9
        assert ilp.feasible(res.z) and ilp.feasible(np.round(ref.x))

    def test_two_layer_wall_gets_the_same_assignment(self):
        # K = 14 is above the root LP's column cap: both calls are one
        # branch and cut, ended at the root
        sc = two_layer_wall()
        ilp = TimeExpandedGraph(sc, EnvironmentGraph(sc), 14).binary_program()
        ref = public_milp(ilp, target=16)
        res = solve_ilp(ilp, target=16)
        assert ref.status == 0 and ref.mip_node_count == 1
        assert res.nodes == 1
        assert np.array_equal(res.z, np.round(ref.x).astype(int))


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


class LoopTimeExpandedGraph:
    """The time expansion built one arc at a time, with BFS hop counts,
    dict vertex ids and tuple arc infos: the reference the array
    construction must reproduce exactly."""

    SOURCE = 0
    SINK = 1

    def __init__(self, scenario, K):
        self.scenario = scenario
        self.K = K
        self.cells = scenario.free_cells()
        index = {c: i for i, c in enumerate(self.cells)}
        self.edges = []
        for i, c in enumerate(self.cells):
            for dx, dy, dz in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                j = index.get((c[0] + dx, c[1] + dy, c[2] + dz))
                if j is not None:
                    self.edges.append((i, j))
        adjacency = defaultdict(list)
        for i, j in self.edges:
            adjacency[i].append(j)
            adjacency[j].append(i)

        def distances_from(seed_cells):
            dist = np.full(len(self.cells), np.inf)
            queue = deque()
            for c in seed_cells:
                i = index[c]
                if not np.isfinite(dist[i]):
                    dist[i] = 0.0
                    queue.append(i)
            while queue:
                i = queue.popleft()
                for j in adjacency[i]:
                    if not np.isfinite(dist[j]):
                        dist[j] = dist[i] + 1.0
                        queue.append(j)
            return dist

        dist_s = distances_from(scenario.starts)
        dist_g = distances_from(scenario.goals)
        goal_ids = {index[g]: gi for gi, g in enumerate(scenario.goals)}

        def u_ok(v, k):
            return dist_s[v] <= k and dist_g[v] <= K - k

        def w_ok(v, k):
            if k == K:
                return v in goal_ids and dist_s[v] <= K
            return dist_s[v] <= k + 1 and dist_g[v] <= K - k - 1

        self.u_ok, self.w_ok = u_ok, w_ok
        self.ids = {}
        vid = self.vid
        self.tails, self.heads, self.kinds, self.infos = [], [], [], []

        def add(tail, head, kind, info):
            self.tails.append(tail)
            self.heads.append(head)
            self.kinds.append(kind)
            self.infos.append(info)

        for s in scenario.starts:
            v = index[s]
            if u_ok(v, 0):
                add(self.SOURCE, vid(("u", v, 0)), "source", v)
        for k in range(K + 1):
            for v in range(len(self.cells)):
                if u_ok(v, k) and w_ok(v, k):
                    add(vid(("u", v, k)), vid(("w", v, k)), "intra", (v, k))
            if k == K:
                break
            for e, (v1, v2) in enumerate(self.edges):
                for a, b in ((v1, v2), (v2, v1)):
                    if u_ok(a, k) and w_ok(b, k):
                        add(vid(("u", a, k)), vid(("w", b, k)), "move", (e, k, a, b))
            for v in range(len(self.cells)):
                if w_ok(v, k):
                    add(vid(("w", v, k)), vid(("u", v, k + 1)), "green", (v, k))
        for g in scenario.goals:
            v = index[g]
            if w_ok(v, K):
                add(vid(("w", v, K)), self.SINK, "sink", (v, goal_ids[v]))

    def vid(self, key):
        return self.ids.setdefault(key, len(self.ids) + 2)

    def gadget_network(self):
        """The arcs with each step's edge as the five-arc gadget of Yu &
        LaValle in place of its moves: entries u -> a from every end that
        can be entered, one a -> b, exits b -> w to every end that can be
        left.  Its max flow is the reference value of flow_network()'s."""
        arcs = [
            (t, h) for t, h, kind in zip(self.tails, self.heads, self.kinds) if kind != "move"
        ]
        for k in range(self.K):
            for e, (v1, v2) in enumerate(self.edges):
                entries = [v for v in (v1, v2) if self.u_ok(v, k)]
                exits = [v for v in (v1, v2) if self.w_ok(v, k)]
                if not entries or not exits:
                    continue
                a, b = self.vid(("a", e, k)), self.vid(("b", e, k))
                arcs += [(self.vid(("u", v, k)), a) for v in entries]
                arcs.append((a, b))
                arcs += [(b, self.vid(("w", v, k))) for v in exits]
        return FlowNetwork(
            num_vertices=len(self.ids) + 2, edges=arcs, source=self.SOURCE, sink=self.SINK
        )

    def conflicts(self):
        cs = self.scenario.grid.cell_size
        threshold = 2.0 * self.scenario.radii[2] - 1e-9
        con = defaultdict(set)
        by_column = defaultdict(list)
        by_edge = defaultdict(list)
        by_line = defaultdict(list)
        for idx, kind in enumerate(self.kinds):
            if kind == "green":
                v, k = self.infos[idx]
                x, y, z = self.cells[v]
                by_column[(k, x, y)].append((z, idx))
            elif kind == "move":
                e, k, v_from, v_to = self.infos[idx]
                by_edge[(e, k)].append(idx)
                cf, ct = self.cells[v_from], self.cells[v_to]
                if cf[2] == ct[2]:
                    key = (k,) + tuple(sorted((cf[:2], ct[:2])))
                    by_line[key].append((cf[:2], cf[2], idx))
        for items in by_column.values():
            for (za, ea), (zb, eb) in itertools.combinations(items, 2):
                if abs(za - zb) * cs < threshold:
                    con[ea].add(eb)
                    con[eb].add(ea)
        # both directions of one edge in one step: a swap
        for items in by_edge.values():
            for ea, eb in itertools.combinations(items, 2):
                con[ea].add(eb)
                con[eb].add(ea)
        for items in by_line.values():
            for (fa, za, ea), (fb, zb, eb) in itertools.combinations(items, 2):
                if fa != fb and za != zb and abs(za - zb) * cs < threshold:
                    con[ea].add(eb)
                    con[eb].add(ea)
        return con

    def binary_program(self):
        n = len(self.tails)
        c = np.array([1.0 if kind == "source" else 0.0 for kind in self.kinds])
        vertex_row = {}
        rows, cols, vals = [], [], []
        for idx, (t, h) in enumerate(zip(self.tails, self.heads)):
            for vertex, sign in ((h, 1.0), (t, -1.0)):
                if vertex in (self.SOURCE, self.SINK):
                    continue
                rows.append(vertex_row.setdefault(vertex, len(vertex_row)))
                cols.append(idx)
                vals.append(sign)
        A_eq = sparse.csr_matrix((vals, (rows, cols)), shape=(len(vertex_row), n))
        con = self.conflicts()
        pairs = sorted({(min(i, j), max(i, j)) for i in con for j in con[i]})
        rows = [row for row in range(len(pairs)) for _ in range(2)]
        cols = [j for pair in pairs for j in pair]
        A_in = sparse.csr_matrix((np.ones(len(cols)), (rows, cols)), shape=(len(pairs), n))
        return BinaryILP(
            c=c, A_eq=A_eq, b_eq=np.zeros(len(vertex_row)), A_in=A_in, b_in=np.ones(len(pairs))
        )

    def extract_paths(self, z):
        out_arcs = defaultdict(list)
        for idx, value in enumerate(z):
            if value > 0.5:
                out_arcs[self.tails[idx]].append(idx)

        def step(vertex):
            (arc,) = out_arcs[vertex]
            return arc

        paths, goal_choice = [], []
        for idx in sorted(out_arcs[self.SOURCE]):
            path = [self.infos[idx]]
            vertex = self.heads[idx]
            for _ in range(self.K):
                arc = step(vertex)
                if self.kinds[arc] == "move":
                    path.append(self.infos[arc][3])
                else:
                    path.append(self.infos[arc][0])
                vertex = self.heads[step(self.heads[arc])]
            sink_arc = step(self.heads[step(vertex)])
            goal_choice.append(self.infos[sink_arc][1])
            paths.append(path)
        return paths, goal_choice


def assert_same_csr(a, b):
    assert a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def oracle_scenarios():
    cases = [
        ScenarioSpec.load(os.path.join(SCENARIO_DIR, name))
        for name in ("wall_windows_8.json", "handover_3.json")
    ]
    rng = np.random.default_rng(53)
    while len(cases) < 6:
        sc = random_team_scenario(rng)
        try:
            lower_bound_makespan(sc)
        except DiscreteInfeasibleError:
            continue
        cases.append(sc)
    return cases


@pytest.mark.parametrize("case", range(6))
def test_array_graph_matches_loop_oracle(case):
    # the array construction must hand HiGHS the very same program, row
    # order included, and decompose every solution into the same paths
    sc = oracle_scenarios()[case]
    env = EnvironmentGraph(sc)
    lb = lower_bound_makespan(sc, env)
    for K in range(max(lb - 1, 0), lb + 2):
        graph = discrete_planner.TimeExpandedGraph(sc, env, K)
        loop = LoopTimeExpandedGraph(sc, K)
        ilp, ref = graph.binary_program(), loop.binary_program()
        for name in ("c", "b_eq", "b_in"):
            assert np.array_equal(getattr(ilp, name), getattr(ref, name)), name
        assert_same_csr(ilp.A_eq, ref.A_eq)
        assert_same_csr(ilp.A_in, ref.A_in)

        # a conflict-free max flow routes only some robots below lb, and
        # as many as the loop's five-arc gadgets, which forbid swaps
        value = max_flow(graph.flow_network())
        assert (value >= sc.num_robots) == (K >= lb)
        assert value == max_flow(loop.gadget_network())
        try:
            z = solve_ilp(ilp, target=sc.num_robots).z
        except ILPInfeasibleError:
            continue
        assert graph.extract_paths(z) == loop.extract_paths(z)
