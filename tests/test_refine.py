import csv
import dataclasses
import os
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from test_bezier import first_face, fitted_coefficients, straight_lines

import swarmplan.refine as refine_mod
from swarmplan import bezier_opt, corridor, geometry
from swarmplan.bezier_opt import (
    PiecewiseBezierTrajectory,
    fallback_trajectory,
    optimize_trajectory,
    spline_to_bernstein,
    waypoint_splines,
)
from swarmplan.corridor import build_corridors
from swarmplan.discrete_planner import solve_discrete
from swarmplan.opt_engine import QPInfeasibleError
from swarmplan.refine import refine_trajectories, write_report_csv
from swarmplan.scenario import GridSpec, ScenarioSpec
from swarmplan.validate import smoothness_report, validate_trajectories

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
REPORT_FIELDS = [
    "iteration", "cost", "peak_accel", "peak_omega", "wall_time_s", "fallback_count", "failed_count",
]


@pytest.fixture(scope="module")
def small():
    sc = ScenarioSpec(
        grid=GridSpec(dims=(3, 3, 1), cell_size=0.5),
        starts=[(0, 0, 0), (2, 0, 0)],
        goals=[(2, 2, 0), (0, 2, 0)],
    )
    plan = solve_discrete(sc).postprocessed()
    return sc, plan


@pytest.fixture(scope="module")
def trio():
    sc = ScenarioSpec(
        grid=GridSpec(dims=(3, 3, 1), cell_size=0.5),
        starts=[(0, 0, 0), (2, 0, 0), (1, 2, 0)],
        goals=[(2, 2, 0), (0, 2, 0), (1, 0, 0)],
    )
    plan = solve_discrete(sc).postprocessed()
    return sc, plan


def start_points(
    starts, goals, durations, cells, normals, offsets, degree, continuity, weights, coefficients
):
    """The control points (robots, pieces, degree + 1, 3) of the curves
    x0 + Z c that optimize_trajectory starts its programs from, given its
    arguments, computed as it computes them."""
    durations = tuple(float(t) for t in durations)
    space, ends, _ = bezier_opt._smoothing_space(durations, degree, continuity, tuple(weights))
    x0 = np.array([(ends @ np.vstack([s, g])).ravel() for s, g in zip(starts, goals)])
    return (x0 + (space.Z @ coefficients.T).T).reshape(len(x0), len(durations), degree + 1, 3)


def spline_curves(waypoints, coefficients, durations, degree, continuity):
    """Each robot's trajectory of the given free coefficients, at rest at
    its first and last waypoint: per axis the B-spline of coefficients
    continuity + 1 times the start, then the row's, then continuity + 1
    times the goal, through spline_to_bernstein's map."""
    durations = tuple(float(t) for t in durations)
    basis = spline_to_bernstein(durations, degree, continuity)
    k = continuity + 1
    out = []
    for w, c in zip(waypoints, coefficients):
        full = np.vstack([np.repeat(w[:1], k, axis=0), c.reshape(-1, 3), np.repeat(w[-1:], k, axis=0)])
        out.append(PiecewiseBezierTrajectory(durations, (basis @ full).reshape(len(durations), -1, 3)))
    return out


class TestRefine:
    def test_result_traces_plan_and_validates(self, small):
        sc, plan = small
        result = refine_trajectories(plan, sc, iterations=2)
        assert result.ok
        assert len(result.trajectories) == plan.num_robots
        for i, traj in enumerate(result.trajectories):
            assert len(traj.pieces) == plan.num_segments
            assert np.linalg.norm(traj.evaluate(0.0) - plan.waypoints[i, 0]) <= 1e-5
            assert (
                np.linalg.norm(traj.evaluate(traj.duration) - plan.waypoints[i, -1])
                <= 1e-5
            )
        assert result.validation.min_pair_clearance >= 2.0 - 1e-6

    def test_rows_structure(self, small):
        sc, plan = small
        result = refine_trajectories(plan, sc, iterations=2)
        assert 1 <= len(result.rows) <= 2
        for k, row in enumerate(result.rows):
            assert set(row) == set(REPORT_FIELDS)
            assert row["iteration"] == k
            assert row["cost"] > 0
            assert row["wall_time_s"] > 0
            assert row["failed_count"] == 0

    def test_first_round_no_worse_than_straight_lines(self, small):
        sc, plan = small
        straight_cost = sum(
            fallback_trajectory(
                plan.waypoints[i],
                [plan.dt] * plan.num_segments,
                sc.degree,
                sc.continuity,
            ).cost(sc.weights)
            for i in range(plan.num_robots)
        )
        result = refine_trajectories(plan, sc, iterations=1)
        assert result.rows[0]["cost"] <= straight_cost * (1 + 1e-9)

    def test_zero_iterations_returns_baseline(self, small):
        sc, plan = small
        result = refine_trajectories(plan, sc, iterations=0)
        assert result.ok
        assert result.rows == []

    def test_relative_cost_stop(self, small):
        sc, plan = small
        result = refine_trajectories(plan, sc, iterations=10)
        assert len(result.rows) < 10
        if len(result.rows) >= 2:
            a, b = result.rows[-2]["cost"], result.rows[-1]["cost"]
            assert abs(a - b) / max(1.0, abs(a)) < 1e-3

    def test_deterministic_across_runs(self, small):
        sc, plan = small
        r1 = refine_trajectories(plan, sc, iterations=2)
        r2 = refine_trajectories(plan, sc, iterations=2)
        assert len(r1.rows) == len(r2.rows)
        for a, b in zip(r1.rows, r2.rows):
            assert a["cost"] == b["cost"]
            assert a["peak_accel"] == b["peak_accel"]
        ts = np.linspace(0, r1.trajectories[0].duration, 50)
        for t1, t2 in zip(r1.trajectories, r2.trajectories):
            assert np.array_equal(t1.evaluate_many(ts), t2.evaluate_many(ts))

    def test_previous_corridor_set_is_freed_before_the_next_build(self, small, monkeypatch):
        # at 192 robots a round's corridor set holds 102 MB, and the next
        # round's pair separators set the plan's peak memory
        real = refine_mod.build_corridors
        built = []

        def spy(*args):
            assert all(ref() is None for ref in built)
            out = real(*args)
            built.append(weakref.ref(out))
            return out

        monkeypatch.setattr(refine_mod, "build_corridors", spy)
        sc, plan = small
        refine_trajectories(plan, sc, iterations=3)
        assert len(built) >= 2

    def test_log_callback_receives_messages(self, small):
        sc, plan = small
        messages = []
        refine_trajectories(plan, sc, iterations=1, log=messages.append)
        assert any("baseline" in m for m in messages)
        assert any("iteration 0" in m for m in messages)

    @pytest.mark.parametrize("name", ["wall_windows_8", "pillars_6"])
    def test_every_round_starts_inside_its_corridors(self, name, monkeypatch):
        # each round's corridors are built from the control points of the
        # curves the robots fly now, and a piece lies in the hull of its
        # control points: every one of them satisfies every row of its
        # robot's corridor, within optimize_trajectory's 1e-6 row check.
        # Round 0 flies the straight lines but starts its programs from
        # exactly the waypoint splines' coefficients; every later round
        # starts from coefficients whose curves (x0 + Z c) are the ones its
        # corridors were built from
        sc = ScenarioSpec.load(os.path.join(SCENARIO_DIR, f"{name}.json"))
        plan = solve_discrete(sc).postprocessed()
        durations = [plan.dt] * plan.num_segments
        straight = [
            fallback_trajectory(w, durations, sc.degree, sc.continuity) for w in plan.waypoints
        ]
        splines = waypoint_splines(
            plan.waypoints, durations, sc.degree, sc.continuity, tuple(sc.weights)
        )
        real = refine_mod.optimize_trajectory
        worst = []

        def spy(*args):
            (cells, normals, offsets), coefficients = args[3:6], args[9]
            if worst:
                points = start_points(*args)
            else:
                assert np.array_equal(coefficients, splines)
                points = np.stack([t.points for t in straight])
            # each face over its own robot's control points on its piece
            face_points = points[cells[:, 0], cells[:, 1]]
            rows = (normals[:, None] @ face_points.swapaxes(-1, -2))[:, 0] - offsets[:, None]
            worst.append(float(rows.max()))
            return real(*args)

        monkeypatch.setattr(refine_mod, "optimize_trajectory", spy)
        result = refine_trajectories(plan, sc)
        assert result.ok
        assert len(worst) == len(result.rows) == sc.refine_iterations
        assert max(worst) <= 1e-6

    @pytest.mark.parametrize("degree, continuity", [(7, 3), (11, 4)])
    def test_other_degrees_refine_every_robot(self, degree, continuity):
        # the bundled scenarios fly degree 9 with continuity 4; the same
        # wall at degrees 7 and 11 solves every program of both rounds to
        # its duality gap and validates
        base = ScenarioSpec.load(os.path.join(SCENARIO_DIR, "wall_windows_8.json"))
        sc = dataclasses.replace(base, degree=degree, continuity=continuity)
        plan = solve_discrete(sc).postprocessed()
        log = []
        result = refine_trajectories(plan, sc, iterations=2, log=log.append)
        assert result.ok
        assert [row["iteration"] for row in result.rows] == [0, 1]
        assert all(row["failed_count"] == 0 for row in result.rows)
        for it in (0, 1):
            assert any(m.startswith(f"iteration {it}: 8 QPs: 8 converged;") for m in log), log
        assert all(t.degree == degree for t in result.trajectories)


class TestRoundZeroStart:
    """Round 0's programs start from each robot's minimum-cost spline
    through its waypoints (waypoint_splines)."""

    @pytest.mark.parametrize("name", ["wall_windows_8", "pillars_6"])
    def test_splines_pass_the_waypoints_at_rest(self, name):
        sc = ScenarioSpec.load(os.path.join(SCENARIO_DIR, f"{name}.json"))
        plan = solve_discrete(sc).postprocessed()
        durations = [plan.dt] * plan.num_segments
        weights = tuple(sc.weights)
        coefficients = waypoint_splines(plan.waypoints, durations, sc.degree, sc.continuity, weights)
        splines = spline_curves(plan.waypoints, coefficients, durations, sc.degree, sc.continuity)
        assert len(splines) == plan.num_robots
        knots = plan.dt * np.arange(plan.num_segments + 1)
        for spline, waypoints in zip(splines, plan.waypoints):
            assert np.array_equal(spline.durations, durations)
            assert spline.degree == sc.degree
            assert np.abs(spline.evaluate_many(knots) - waypoints).max() <= 1e-9
        assert smoothness_report(splines, sc.continuity) == []
        # the straight line also passes the waypoints at rest, so it differs
        # from the minimum by a curve orthogonal to it in the cost's inner
        # product: its cost is the spline's plus that of the difference
        for spline, waypoints in zip(splines, plan.waypoints):
            straight = fallback_trajectory(waypoints, durations, sc.degree, sc.continuity)
            gap = PiecewiseBezierTrajectory(durations, straight.points - spline.points)
            assert straight.cost(weights) == pytest.approx(
                spline.cost(weights) + gap.cost(weights), rel=1e-9
            )

    def test_map_is_built_once_per_layout(self, small):
        # the waypoint splines build the layout's smoothing setup, and the
        # one round's programs and the second plan read it back
        sc, plan = small
        cache = bezier_opt._smoothing_space
        cache.cache_clear()
        refine_trajectories(plan, sc, iterations=1)
        assert (cache.cache_info().hits, cache.cache_info().misses) == (1, 1)
        refine_trajectories(plan, sc, iterations=1)
        assert (cache.cache_info().hits, cache.cache_info().misses) == (3, 1)

    @pytest.mark.parametrize("name", ["wall_windows_8", "pillars_6"])
    def test_spline_start_reaches_the_straight_start_optimum(self, name):
        # round 0's programs, in the corridors of the straight lines
        sc = ScenarioSpec.load(os.path.join(SCENARIO_DIR, f"{name}.json"))
        plan = solve_discrete(sc).postprocessed()
        durations = [plan.dt] * plan.num_segments
        d, c, weights = sc.degree, sc.continuity, tuple(sc.weights)
        straight = [fallback_trajectory(w, durations, d, c) for w in plan.waypoints]
        corridors = build_corridors(np.stack([t.points for t in straight]), sc)
        args = (
            plan.waypoints[:, 0], plan.waypoints[:, -1], durations,
            corridors.cells, corridors.normals, corridors.offsets, d, c, weights,
        )
        old = optimize_trajectory(*args, fitted_coefficients(straight, d, c))
        new = optimize_trajectory(*args, waypoint_splines(plan.waypoints, durations, d, c, weights))
        for results in (old, new):
            assert all(out[2].stop == "converged" for out in results)
        cost = sum(out[1] for out in old)
        assert sum(out[1] for out in new) == pytest.approx(cost, rel=1e-9)
        assert sum(out[2].iterations for out in new) < sum(out[2].iterations for out in old)

    @pytest.mark.parametrize("processed", [False, True], ids=["one-piece", "postprocessed"])
    def test_one_piece_plan_and_waiting_robot(self, processed):
        # robot 1 never moves; the grid plan itself is one step, one piece
        sc = ScenarioSpec(
            grid=GridSpec(dims=(3, 3, 1), cell_size=0.5),
            starts=[(0, 0, 0), (2, 2, 0)],
            goals=[(1, 0, 0), (2, 2, 0)],
        )
        plan = solve_discrete(sc)
        if processed:
            plan = plan.postprocessed()
        else:
            assert plan.num_segments == 1
        durations = [plan.dt] * plan.num_segments
        coefficients = waypoint_splines(
            plan.waypoints, durations, sc.degree, sc.continuity, tuple(sc.weights)
        )
        splines = spline_curves(plan.waypoints, coefficients, durations, sc.degree, sc.continuity)
        # the waiting robot's spline stays at its cell, to rounding
        assert np.abs(splines[1].points - plan.waypoints[1, 0]).max() <= 1e-12
        result = refine_trajectories(plan, sc, iterations=2)
        assert result.ok
        assert [row["iteration"] for row in result.rows] == [0, 1]
        assert all(row["failed_count"] == 0 for row in result.rows)
        again = validate_trajectories(
            result.trajectories, sc,
            expected_starts=plan.waypoints[:, 0], expected_goals=plan.waypoints[:, -1],
        )
        assert again.ok and again.to_dict() == result.validation.to_dict()


def spied_calls(monkeypatch):
    """Every optimize_trajectory call refinement makes from now on, as (its
    arguments, its results)."""
    real = refine_mod.optimize_trajectory
    calls = []

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(refine_mod, "optimize_trajectory", spy)
    return calls


@pytest.fixture(scope="module")
def wall_rounds():
    """wall_windows_8's refinement: its plan and scenario, each
    optimize_trajectory call as (its arguments, its results), and the
    accepted sets."""
    sc = ScenarioSpec.load(os.path.join(SCENARIO_DIR, "wall_windows_8.json"))
    plan = solve_discrete(sc).postprocessed()
    accepted = []
    with pytest.MonkeyPatch.context() as mp:
        calls = spied_calls(mp)
        result = refine_trajectories(plan, sc, on_accept=lambda it, t: accepted.append(t))
    assert result.ok and len(accepted) == len(calls) == sc.refine_iterations
    return plan, sc, calls, accepted


class TestCarriedCoefficients:
    """Refinement keeps each robot's free B-spline coefficients beside its
    curve and starts its next program from them: no curve is turned back
    into coefficients."""

    def test_coefficients_give_each_accepted_rounds_control_points(self, wall_rounds):
        # bit for bit: x0 + Z c, computed as optimize_trajectory computes
        # its start points, is the curve the robot flies
        _, _, calls, accepted = wall_rounds
        for (args, results), trajectories in zip(calls, accepted, strict=True):
            assert len(results) == len(trajectories) == 8
            points = start_points(*args[:9], np.array([result.c for _, _, result in results]))
            for p, trajectory in zip(points, trajectories):
                assert np.array_equal(p, trajectory.points)

    def test_each_round_starts_from_the_last_accepted_coefficients(self, wall_rounds):
        plan, sc, calls, _ = wall_rounds
        durations = [plan.dt] * plan.num_segments
        splines = waypoint_splines(
            plan.waypoints, durations, sc.degree, sc.continuity, tuple(sc.weights)
        )
        assert np.array_equal(calls[0][0][9], splines)
        for (_, results), (args, _) in zip(calls, calls[1:]):
            assert np.array_equal(args[9], np.array([result.c for _, _, result in results]))

    def test_robot_frozen_in_round_zero_starts_from_its_spline(self, monkeypatch):
        # robot 3's obstacle separator fails in round 0 only: it keeps its
        # straight line, and round 1 starts it from its waypoint spline,
        # as round 0 would have, and every other robot from its optimum
        sc = ScenarioSpec.load(os.path.join(SCENARIO_DIR, "wall_windows_8.json"))
        plan = solve_discrete(sc).postprocessed()
        real = refine_mod.build_corridors
        built = []

        def no_obstacle_plane_for_robot_3_in_round_0(point_sets, scenario):
            built.append(real(point_sets, scenario))
            return dataclasses.replace(built[-1], failed_robots={3}) if len(built) == 1 else built[-1]

        monkeypatch.setattr(refine_mod, "build_corridors", no_obstacle_plane_for_robot_3_in_round_0)
        calls = spied_calls(monkeypatch)
        log = []
        result = refine_trajectories(plan, sc, iterations=2, log=log.append)
        assert result.ok
        assert [row["fallback_count"] for row in result.rows] == [1, 0]
        (_, first), (args, second) = calls
        assert len(first) == 7 and len(second) == 8
        durations = [plan.dt] * plan.num_segments
        splines = waypoint_splines(
            plan.waypoints, durations, sc.degree, sc.continuity, tuple(sc.weights)
        )
        others = [0, 1, 2, 4, 5, 6, 7]
        assert np.array_equal(args[9][3], splines[3])
        assert np.array_equal(args[9][others], np.array([out[2].c for out in first]))
        assert second[3][2].stop == "converged"
        assert any(m.startswith("iteration 1: 8 QPs: 8 converged;") for m in log), log


class TestDegradation:
    def test_inseparable_pair_pinned_to_straight_lines(self, small, monkeypatch):
        sc, plan = small
        real = refine_mod.build_corridors

        def no_margin_plane_for_pair_0_1(point_sets, scenario):
            out = real(point_sets, scenario)
            return dataclasses.replace(out, failed_pairs={(0, 1)})

        monkeypatch.setattr(refine_mod, "build_corridors", no_margin_plane_for_pair_0_1)
        result = refine_trajectories(plan, sc, iterations=2)
        assert result.ok
        assert result.rows
        assert all(row["fallback_count"] == 2 for row in result.rows)
        # the pair is never optimized, so both robots fly the straight line exactly
        for i in range(2):
            straight = fallback_trajectory(
                plan.waypoints[i],
                [plan.dt] * plan.num_segments,
                sc.degree,
                sc.continuity,
            )
            for p, q in zip(result.trajectories[i].pieces, straight.pieces):
                assert np.array_equal(p.points, q.points)

    def test_failed_obstacle_separator_freezes_robot_and_says_so(self, small, monkeypatch):
        sc, plan = small
        real = refine_mod.build_corridors

        def no_obstacle_plane_for_robot_1(point_sets, scenario):
            out = real(point_sets, scenario)
            return dataclasses.replace(out, failed_robots={1})

        monkeypatch.setattr(refine_mod, "build_corridors", no_obstacle_plane_for_robot_1)
        messages = []
        result = refine_trajectories(plan, sc, iterations=2, log=messages.append)
        assert result.ok
        frozen = [m for m in messages if "frozen" in m]
        assert frozen == [
            f"iteration {it}: robots [1] frozen on their previous curves: "
            f"an obstacle separator failed"
            for it in range(len(result.rows))
        ]
        # robot 1 was never optimized, so it still flies the straight line
        assert result.rows[-1]["fallback_count"] == 1

    def test_capped_separators_degrade_their_robots_and_say_so(self, small, monkeypatch):
        # GJK capped at one step leaves the curve-sample separators of
        # round 1 unsolved: they fail like any other separator, and the
        # robots they bound keep their round-0 curves
        sc, plan = small
        monkeypatch.setattr(geometry, "_MIN_NORM_MAX_ITER", 1)
        accepted, messages = [], []
        result = refine_trajectories(
            plan, sc, iterations=2, log=messages.append,
            on_accept=lambda it, t: accepted.append(t),
        )
        assert result.ok
        assert len(result.rows) == 2
        assert [m for m in messages if "frozen" in m] == [
            "iteration 1: robots [0, 1] frozen on their previous curves: "
            "no margin plane for pairs [(0, 1)]"
        ]
        for old, new in zip(accepted[0], result.trajectories):
            for p, q in zip(old.pieces, new.pieces):
                assert np.array_equal(p.points, q.points)

    def test_failed_pair_separator_leaves_no_face_and_freezes_both(self, trio, monkeypatch):
        # pair (0, 2)'s separator fails on piece 1 in every round: neither
        # robot has a face on that piece against the other, both keep their
        # straight lines, and robot 1 keeps its faces against both
        sc, plan = trio
        assert not sc.obstacle_boxes()
        pieces = plan.num_segments
        real = corridor.svm_separate_batch

        def no_margin_plane_for_pair_0_2_on_piece_1(a_sets, b_sets, ell):
            alpha, beta, enorm, ok = real(a_sets, b_sets, ell)
            # instances in (pair, piece) order, pair (0, 2) second
            assert len(ok) == 3 * pieces
            ok = ok.copy()
            ok[pieces + 1] = False
            return alpha, beta, enorm, ok

        points = np.stack([t.points for t in straight_lines(plan, sc)])
        want = build_corridors(points, sc)
        monkeypatch.setattr(corridor, "svm_separate_batch", no_margin_plane_for_pair_0_2_on_piece_1)
        got = build_corridors(points, sc)
        assert (got.failed_pairs, got.failed_robots) == ({(0, 2)}, set())
        # robot 0's face against robot 2 sits in slot 6 + 2 - 1, robot 2's
        # against robot 0 in slot 6 + 0
        drop = [first_face(want, 0, 1) + 7, first_face(want, 2, 1) + 6]
        for name in ("cells", "normals", "offsets"):
            assert np.array_equal(getattr(got, name), np.delete(getattr(want, name), drop, axis=0))
        assert [(got.cells == (t, 1)).all(axis=1).sum() for t in range(3)] == [7, 8, 7]

        calls = spied_calls(monkeypatch)
        messages = []
        result = refine_trajectories(plan, sc, iterations=2, log=messages.append)
        assert result.ok and len(result.rows) == len(calls) >= 1
        assert [m for m in messages if "frozen" in m] == [
            f"iteration {it}: robots [0, 2] frozen on their previous curves: "
            "no margin plane for pairs [(0, 2)]"
            for it in range(len(calls))
        ]
        # only robot 1 is solved, as robot 0 of its call, on every piece
        for args, results in calls:
            assert len(results) == 1 and results[0][2].stop == "converged"
            assert set(args[3][:, 0].tolist()) == {0}
        assert all(row["fallback_count"] == 2 for row in result.rows)
        for i in (0, 2):
            assert np.array_equal(result.trajectories[i].points, points[i])

    def test_pair_failing_after_round_zero_degrades_only_its_robots(self, trio, monkeypatch):
        sc, plan = trio
        real = refine_mod.build_corridors
        rounds = []

        def no_margin_plane_for_pair_0_1_after_round_0(point_sets, scenario):
            out = real(point_sets, scenario)
            rounds.append(out)
            if len(rounds) == 1:
                return out
            return dataclasses.replace(out, failed_pairs=out.failed_pairs | {(0, 1)})

        monkeypatch.setattr(
            refine_mod, "build_corridors", no_margin_plane_for_pair_0_1_after_round_0
        )
        accepted, messages = [], []
        result = refine_trajectories(
            plan, sc, iterations=2, log=messages.append,
            on_accept=lambda it, t: accepted.append(t),
        )
        assert result.ok
        assert not any("keeping previous" in m for m in messages)
        assert len(result.rows) == 2 and len(accepted) == 2
        assert (
            "iteration 1: robots [0, 1] frozen on their previous curves: "
            "no margin plane for pairs [(0, 1)]"
        ) in messages

        def same(a, b):
            return all(np.array_equal(p.points, q.points) for p, q in zip(a.pieces, b.pieces))

        # the pair keeps its round-0 curves bit for bit; robot 2 moves on
        assert same(accepted[1][0], accepted[0][0])
        assert same(accepted[1][1], accepted[0][1])
        assert not same(accepted[1][2], accepted[0][2])

    def test_infeasible_robot_keeps_previous_curve(self, small, monkeypatch):
        sc, plan = small

        def always_fails(starts, *args):
            return [QPInfeasibleError("forced failure") for _ in starts]

        monkeypatch.setattr(refine_mod, "optimize_trajectory", always_fails)
        messages = []
        result = refine_trajectories(plan, sc, iterations=2, log=messages.append)
        assert result.ok
        assert any("keeps previous curve" in m for m in messages)
        # nothing ever improved on the baseline
        assert all(row["fallback_count"] == plan.num_robots for row in result.rows)


    def test_infeasible_robot_in_a_batch_keeps_its_curve_alone(self, small, monkeypatch):
        sc, plan = small
        real = refine_mod.build_corridors

        def infeasible_for_robot_1(point_sets, scenario):
            # robot 1 stays in the batch, but its first piece must lie
            # below the workspace box and inside it
            out = real(point_sets, scenario)
            f = first_face(out, 1, 0)
            out.offsets[f] = -out.offsets[f + 3] - 1.0
            return out

        reference = []
        refine_trajectories(plan, sc, iterations=1, on_accept=lambda it, t: reference.append(t))
        monkeypatch.setattr(refine_mod, "build_corridors", infeasible_for_robot_1)
        accepted = []
        messages = []
        result = refine_trajectories(
            plan, sc, iterations=1, log=messages.append,
            on_accept=lambda it, t: accepted.append(t),
        )
        assert result.ok
        assert "iteration 0: robot 1 keeps previous curve (primal infeasible: the " \
            "constraints admit no point)" in messages
        assert result.rows[0]["fallback_count"] == 1
        assert result.rows[0]["failed_count"] == 1
        # robot 0 gets the curve it gets when robot 1's program is fine
        for p, q in zip(accepted[0][0].pieces, reference[0][0].pieces):
            assert np.array_equal(p.points, q.points)

    def test_round_that_raises_the_cost_is_rejected(self, small, monkeypatch):
        sc, plan = small
        n = plan.num_robots
        real = refine_mod.optimize_trajectory
        calls = []

        def straight_lines_in_round_1(starts, *args):
            # valid curves, but costlier than the round-0 optimum; one
            # call per robot is recorded
            calls.extend(starts)
            if len(calls) <= n:
                return real(starts, *args)
            _, durations, _, _, _, degree, continuity, weights, _ = args
            out = []
            for start in starts:
                i = next(i for i in range(n) if np.array_equal(plan.waypoints[i, 0], start))
                straight = fallback_trajectory(plan.waypoints[i], durations, degree, continuity)
                (c,) = fitted_coefficients([straight], degree, continuity)
                result = SimpleNamespace(stop="converged", iterations=0, faces=0, passes=1, c=c)
                out.append((straight, straight.cost(weights), result))
            return out

        monkeypatch.setattr(refine_mod, "optimize_trajectory", straight_lines_in_round_1)
        accepted = []
        messages = []
        result = refine_trajectories(
            plan, sc, iterations=4, log=messages.append,
            on_accept=lambda it, trajs: accepted.append(trajs),
        )
        assert result.ok
        assert len(result.rows) == 1 and len(accepted) == 1
        assert result.trajectories == accepted[0]
        assert result.rows[0]["cost"] == sum(t.cost(sc.weights) for t in result.trajectories)
        rejected = [m for m in messages if m.startswith("iteration 1: candidate cost")]
        assert len(rejected) == 1 and "keeping previous" in rejected[0]
        # refinement ended with round 1
        assert len(calls) == 2 * n

    def test_round_one_ulp_above_the_accepted_cost_is_accepted(self, small, monkeypatch):
        sc, plan = small
        real = refine_mod._total_cost
        costs = []

        def one_ulp_up_in_round_1(robot_costs):
            # the baseline, round 0, then round 1: one ulp above round 0,
            # as when nothing moved but the rounding did
            cost = real(robot_costs)
            if len(costs) == 2:
                cost = float(np.nextafter(costs[1], np.inf))
            costs.append(cost)
            return cost

        monkeypatch.setattr(refine_mod, "_total_cost", one_ulp_up_in_round_1)
        messages = []
        result = refine_trajectories(plan, sc, iterations=4, log=messages.append)
        assert result.ok
        assert not any("keeping previous" in m for m in messages)
        # round 1 is accepted, and then the relative cost stop ends refinement
        assert [row["cost"] for row in result.rows] == costs[1:3]
        assert costs[2] > costs[1]

    @pytest.mark.parametrize("rise", [-5e-12, 5e-12])
    def test_settled_round_is_decided_alike_whatever_its_rounding(self, monkeypatch, rise):
        # handover_3's round 2 repeats round 1 up to rounding, which moves
        # it a few 1e-12 either way; either way it is accepted and then the
        # relative cost stop ends refinement
        sc = ScenarioSpec.load(
            os.path.join(os.path.dirname(__file__), os.pardir, "scenarios", "handover_3.json")
        )
        plan = solve_discrete(sc).postprocessed()
        real = refine_mod._total_cost
        costs = []

        def round_2_rounded(robot_costs):
            # the baseline, then rounds 0, 1 and 2
            cost = real(robot_costs)
            if len(costs) == 3:
                cost *= 1.0 + rise
            costs.append(cost)
            return cost

        monkeypatch.setattr(refine_mod, "_total_cost", round_2_rounded)
        messages = []
        result = refine_trajectories(plan, sc, log=messages.append)
        assert result.ok
        assert not any("keeping previous" in m for m in messages)
        assert len(result.rows) == 3
        assert [row["cost"] for row in result.rows] == costs[1:4]

    @pytest.mark.parametrize(
        "dims, starts, goals",
        [
            ((3, 3, 1), [(1, 1, 0)], [(1, 1, 0)]),
            ((3, 1, 1), [(0, 0, 0), (2, 0, 0)], [(2, 0, 0), (0, 0, 0)]),
        ],
        ids=["one robot", "swapped goals"],
    )
    def test_hovering_team_is_refined(self, dims, starts, goals):
        # makespan 0: the set costs about 0 (1e-18 after a round), so a rise
        # relative to the accepted cost alone rejected every round
        sc = ScenarioSpec(grid=GridSpec(dims=dims, cell_size=0.5), starts=starts, goals=goals)
        plan = solve_discrete(sc).postprocessed()
        messages = []
        result = refine_trajectories(plan, sc, log=messages.append)
        assert result.ok
        assert not any("keeping previous" in m for m in messages)
        # round 1 repeats round 0, and the relative cost stop ends refinement
        assert [row["iteration"] for row in result.rows] == [0, 1]
        assert all(abs(row["cost"]) < 1e-12 for row in result.rows)


class TestReportCsv:
    def test_round_trip(self, small, tmp_path):
        sc, plan = small
        result = refine_trajectories(plan, sc, iterations=2)
        path = tmp_path / "report.csv"
        write_report_csv(result.rows, path)
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == len(result.rows)
        assert list(rows[0]) == REPORT_FIELDS
        for got, want in zip(rows, result.rows):
            assert int(got["iteration"]) == want["iteration"]
            assert float(got["cost"]) == pytest.approx(want["cost"], rel=1e-12)
