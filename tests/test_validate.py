"""Validation layer tests.

The dynamics oracle is a curve whose speed, acceleration, and body rate
are short closed-form expressions; random curves are cross-checked with
finite-difference derivatives so the expected peaks never come from the
evaluation code under test.  The bounded search over pieces is checked
against the dense sampler in dense_validation, which evaluates every
sample.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmplan.bezier_opt import (
    PiecewiseBezierTrajectory,
    bernstein_basis,
    fallback_trajectory,
)
from swarmplan import refine, validate
from swarmplan.discrete_planner import solve_discrete
from swarmplan.scenario import GridSpec, ScenarioSpec
from swarmplan.validate import (
    ValidationReport,
    dynamics_metrics,
    smoothness_report,
    validate_trajectories,
)

import dense_validation as dense
from dense_validation import (
    obstacle_clearance_profile,
    pairwise_clearance_profile,
    sample_positions,
    workspace_violation,
)
from test_bezier import hodograph, monomial_to_bernstein


def scenario(**overrides):
    kwargs = dict(
        grid=GridSpec(dims=(4, 4, 1), cell_size=0.5),
        starts=[(0, 0, 0), (0, 3, 0)],
        goals=[(3, 0, 0), (3, 3, 0)],
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


def monomial_piece(coeffs, duration):
    """One-piece trajectory matching given per-axis monomial coefficients."""
    coeffs = np.asarray(coeffs, dtype=float)  # (degree + 1, 3)
    degree = coeffs.shape[0] - 1
    return PiecewiseBezierTrajectory([duration], [monomial_to_bernstein(degree, duration) @ coeffs])


def static_trajectory(point, duration=1.0, degree=5):
    pts = np.tile(np.asarray(point, dtype=float), (degree + 1, 1))
    return PiecewiseBezierTrajectory([duration], [pts])


class TestSampling:
    def test_sample_positions_grid(self):
        trajs = [static_trajectory([0.5, 0.5, 0.0], duration=2.0)]
        ts, pos = sample_positions(trajs, sample_dt=0.5)
        assert np.allclose(ts, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert pos.shape == (1, 5, 3)
        assert np.allclose(pos[0], [0.5, 0.5, 0.0])


class TestClearanceProfiles:
    def test_pairwise_profile_analytic(self):
        trajs = [
            static_trajectory([0.0, 0.0, 0.0]),
            static_trajectory([0.5, 0.0, 0.0]),
        ]
        _, pos = sample_positions(trajs, sample_dt=0.1)
        prof = pairwise_clearance_profile(pos, scenario().robot_ellipsoid)
        assert np.allclose(prof, 0.5 / 0.12)

    def test_single_robot_is_unbounded(self):
        _, pos = sample_positions([static_trajectory([0, 0, 0])], sample_dt=0.1)
        prof = pairwise_clearance_profile(pos, scenario().robot_ellipsoid)
        assert np.all(np.isinf(prof))

    def test_obstacle_profile_analytic(self):
        sc = scenario(obstacles=[(1, 1, 0)])
        # box spans [0.25, 0.75] in x and y; the robot hovers 0.25 past it
        trajs = [static_trajectory([1.0, 0.5, 0.0])]
        _, pos = sample_positions(trajs, sample_dt=0.1)
        prof = obstacle_clearance_profile(pos, sc)
        assert np.allclose(prof, 0.25 / 0.15)

    def test_obstacle_profile_inside_box_is_zero(self):
        sc = scenario(obstacles=[(1, 1, 0)])
        trajs = [static_trajectory([0.5, 0.5, 0.0])]
        _, pos = sample_positions(trajs, sample_dt=0.1)
        assert obstacle_clearance_profile(pos, sc).min() == 0.0

    def test_no_obstacles_unbounded(self):
        _, pos = sample_positions([static_trajectory([0, 0, 0])], sample_dt=0.1)
        assert np.all(np.isinf(obstacle_clearance_profile(pos, scenario())))

    def test_workspace_violation_sign(self):
        sc = scenario()
        inside = np.array([[[0.5, 0.5, 0.0]]])
        assert workspace_violation(inside, sc) < 0
        outside = np.array([[[2.0, 0.5, 0.0]]])
        assert workspace_violation(outside, sc) == pytest.approx(2.0 - 1.75)


class TestDynamicsMetrics:
    def test_hover_under_gravity(self):
        peaks = dynamics_metrics([static_trajectory([0, 0, 0])])
        assert peaks["speed"] == pytest.approx(0.0, abs=1e-12)
        assert peaks["accel"] == pytest.approx(0.0, abs=1e-12)
        assert peaks["thrust"] == pytest.approx(9.81)
        assert peaks["omega"] == pytest.approx(0.0, abs=1e-9)

    def test_polynomial_curve_closed_form(self):
        # p(t) = (A t^2, B t^3, 0): with zero gravity the peak body rate
        # is 3B/A at t = 0 and the peak speed and acceleration sit at t = T
        A, B, T = 0.8, 0.3, 1.0
        coeffs = np.zeros((4, 3))
        coeffs[2, 0] = A
        coeffs[3, 1] = B
        traj = monomial_piece(coeffs, T)
        peaks = dynamics_metrics([traj], sample_dt=1e-4, gravity=0.0)
        assert peaks["speed"] == pytest.approx(
            np.hypot(2 * A * T, 3 * B * T**2), rel=1e-6
        )
        assert peaks["accel"] == pytest.approx(
            np.hypot(2 * A, 6 * B * T), rel=1e-6
        )
        assert peaks["thrust"] == pytest.approx(peaks["accel"], rel=1e-12)
        assert peaks["omega"] == pytest.approx(3 * B / A, rel=1e-4)

    def test_constant_velocity_line(self):
        v = np.array([0.3, -0.2, 0.1])
        coeffs = np.zeros((2, 3))
        coeffs[1] = v
        traj = monomial_piece(coeffs, 2.0)
        peaks = dynamics_metrics([traj], gravity=9.81)
        assert peaks["speed"] == pytest.approx(np.linalg.norm(v), rel=1e-12)
        assert peaks["accel"] == pytest.approx(0.0, abs=1e-10)
        assert peaks["thrust"] == pytest.approx(9.81, rel=1e-10)
        assert peaks["omega"] == pytest.approx(0.0, abs=1e-9)

    def test_matches_finite_difference_reimplementation(self):
        rng = np.random.default_rng(5)
        traj = PiecewiseBezierTrajectory([2.0], [rng.normal(size=(10, 3))])
        peaks = dynamics_metrics([traj], sample_dt=0.01, gravity=0.0)

        ts = np.linspace(0.0, traj.duration, 201)
        h = 1e-5
        # the piece's polynomial extrapolates smoothly past its ends, so
        # endpoint stencils are fine
        pos = lambda t: bernstein_basis(9, np.atleast_1d(t) / traj.duration) @ traj.points[0]
        speed = accel = omega = 0.0
        for t in ts:
            v = (pos(t + h) - pos(t - h))[0] / (2 * h)
            a = (pos(t + h) - 2 * pos(t) + pos(t - h))[0] / h**2
            j = (pos(t + 2 * h) - 2 * pos(t + h) + 2 * pos(t - h) - pos(t - 2 * h))[
                0
            ] / (2 * h**3)
            f = np.linalg.norm(a)
            if f > 1e-9:
                unit = a / f
                j_perp = j - (j @ unit) * unit
                omega = max(omega, np.linalg.norm(j_perp) / f)
            speed = max(speed, np.linalg.norm(v))
            accel = max(accel, f)
        assert peaks["speed"] == pytest.approx(speed, rel=1e-3)
        assert peaks["accel"] == pytest.approx(accel, rel=1e-3)
        assert peaks["omega"] == pytest.approx(omega, rel=1e-2)

    def test_time_dilation_laws_without_gravity(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(10, 3))
        traj = PiecewiseBezierTrajectory([1.0], [pts])
        s = 2.0
        slow = traj.scaled(s)
        base = dynamics_metrics([traj], sample_dt=0.01, gravity=0.0)
        scaled = dynamics_metrics([slow], sample_dt=s * 0.01, gravity=0.0)
        assert scaled["speed"] == pytest.approx(base["speed"] / s, rel=1e-6)
        assert scaled["accel"] == pytest.approx(base["accel"] / s**2, rel=1e-6)
        assert scaled["omega"] == pytest.approx(base["omega"] / s, rel=1e-6)

    def test_rest_endpoint_with_rounding_level_jerk_has_no_body_rate(self):
        # acceleration exactly zero at t = 0 while the jerk there is
        # rounding noise: 0/0, which must not surface as a peak body rate
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(10, 3))
        pts[:3] = pts[0]
        pts[3] = pts[0]
        rest = PiecewiseBezierTrajectory([1.0], [pts])
        pts = pts.copy()
        pts[3, 0] += 1e-13
        noisy = PiecewiseBezierTrajectory([1.0], [pts])
        base = dynamics_metrics([rest], sample_dt=0.01, gravity=0.0)
        peaks = dynamics_metrics([noisy], sample_dt=0.01, gravity=0.0)
        assert peaks["omega"] == pytest.approx(base["omega"], rel=1e-6)
        slow = dynamics_metrics([noisy.scaled(2.0)], sample_dt=0.02, gravity=0.0)
        assert slow["omega"] == pytest.approx(peaks["omega"] / 2.0, rel=1e-6)

    def test_gravity_breaks_omega_scaling(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(10, 3))
        traj = PiecewiseBezierTrajectory([1.0], [pts])
        base = dynamics_metrics([traj], sample_dt=0.01)
        scaled = dynamics_metrics([traj.scaled(2.0)], sample_dt=0.02)
        # the hover term does not dilate, so the ratio is not 1/2
        assert scaled["omega"] != pytest.approx(base["omega"] / 2.0, rel=1e-3)


def per_knot_smoothness_report(trajectories, continuity, tol=1e-5):
    """smoothness_report computed from curve evaluations at the endpoints
    and at both sides of every knot."""

    def derivative_scale(traj, order):
        if order == 0:
            return 1.0
        peak = max(
            float(np.abs(hodograph(p, tau, order)).max())
            for tau, p in zip(traj.durations, traj.points)
        )
        return max(1.0, peak)

    problems = []
    for r, traj in enumerate(trajectories):
        for order in range(1, continuity + 1):
            for label, t in (("start", 0.0), ("end", traj.duration)):
                v = np.linalg.norm(traj.evaluate(t, order))
                if v > tol * derivative_scale(traj, order):
                    problems.append(f"robot {r} order-{order} derivative at {label} is {v:.3e}")
        for k in range(len(traj.pieces) - 1):
            left = traj.pieces[k]
            right = traj.pieces[k + 1]
            for order in range(continuity + 1):
                a = left.evaluate(left.duration, order)
                b = right.evaluate(0.0, order)
                gap = np.linalg.norm(a - b)
                if gap > tol * derivative_scale(traj, order):
                    problems.append(f"robot {r} order-{order} jump {gap:.3e} at knot {k + 1}")
    return problems


class TestSmoothnessReport:
    def make_smooth(self):
        wp = np.array([[0, 0, 0], [0.5, 0, 0], [0.5, 0.5, 0]], dtype=float)
        return fallback_trajectory(wp, [0.5, 0.5], degree=9, continuity=4)

    def test_clean_trajectory_passes(self):
        assert smoothness_report([self.make_smooth()], continuity=4) == []

    def test_knot_jump_detected(self):
        traj = self.make_smooth()
        points = traj.points.copy()
        points[1, 0] += 0.05  # break position continuity
        problems = smoothness_report(
            [PiecewiseBezierTrajectory(traj.durations, points)], continuity=4
        )
        assert any("order-0 jump" in p and "knot 1" in p for p in problems)

    def test_moving_endpoint_detected(self):
        traj = self.make_smooth()
        points = traj.points.copy()
        points[0, 1] += 0.2  # nonzero start velocity
        problems = smoothness_report(
            [PiecewiseBezierTrajectory(traj.durations, points)], continuity=4
        )
        assert any("order-1" in p and "start" in p for p in problems)

    @pytest.mark.parametrize(
        "piece, index, value",
        [(1, 4, np.nan), (0, 9, np.nan), (0, 0, np.inf)],
        ids=["nan-inside", "nan-at-knot", "inf-at-start"],
    )
    def test_non_finite_control_point_is_one_problem(self, piece, index, value):
        # a NaN compares false with every tolerance, and max(1.0, nan) is
        # 1.0, so the robot must be reported before any other check
        traj = self.make_smooth()
        points = traj.points.copy()
        points[piece, index, 0] = value
        broken = PiecewiseBezierTrajectory(traj.durations, points)
        assert smoothness_report([traj, broken], continuity=4) == [
            "robot 1 has a control point that is not finite"
        ]

    def test_matches_per_knot_evaluation(self):
        rng = np.random.default_rng(30)
        reported = 0
        for _ in range(40):
            trajs = []
            for _ in range(int(rng.integers(1, 4))):
                pieces = int(rng.integers(2, 6))
                wp = rng.uniform(0, 2, size=(pieces + 1, 3))
                durations = rng.uniform(0.2, 1.2, size=pieces)
                traj = fallback_trajectory(wp, durations, degree=9, continuity=4)
                points = traj.points.copy()
                for _ in range(int(rng.integers(0, 4))):
                    # a control point within order + 1 of a knot shifts that
                    # order's derivative there; sizes straddle the tolerance
                    k = int(rng.integers(len(traj.pieces)))
                    order = int(rng.integers(5))
                    index = order if rng.random() < 0.5 else 9 - order
                    step = rng.normal(size=3) * 10.0 ** rng.uniform(-9, -1)
                    points[k, index] += step
                trajs.append(PiecewiseBezierTrajectory(durations, points))
            # robots of degrees 1-9 end their pieces at different control
            # point indices, and below degree 4 the high orders vanish
            for degree in rng.integers(1, 10, size=2):
                trajs.append(
                    PiecewiseBezierTrajectory(
                        [0.5] * 3, [rng.normal(size=(degree + 1, 3)) for _ in range(3)]
                    )
                )
            expected = per_knot_smoothness_report(trajs, continuity=4)
            assert smoothness_report(trajs, continuity=4) == expected
            reported += len(expected)
        assert reported > 0


class TestValidateTrajectories:
    def safe_pair(self):
        return [
            fallback_trajectory(
                np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]),
                [0.5],
                degree=9,
                continuity=4,
            ),
            fallback_trajectory(
                np.array([[0.0, 1.5, 0.0], [0.5, 1.5, 0.0]]),
                [0.5],
                degree=9,
                continuity=4,
            ),
        ]

    def test_safe_set_passes(self):
        sc = scenario()
        report = validate_trajectories(
            self.safe_pair(),
            sc,
            expected_starts=[[0, 0, 0], [0, 1.5, 0]],
            expected_goals=[[0.5, 0, 0], [0.5, 1.5, 0]],
            sample_dt=1e-2,
        )
        assert report.ok
        assert report.min_pair_clearance >= 2.0
        assert np.isinf(report.min_obstacle_clearance)
        assert report.workspace_overrun <= 0.0
        assert report.smoothness_problems == []
        assert report.endpoint_problems == []

    def test_collision_fails(self):
        sc = scenario()
        trajs = [
            fallback_trajectory(
                np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]),
                [0.5], 9, 4,
            ),
            fallback_trajectory(
                np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 0.0]]),
                [0.5], 9, 4,
            ),
        ]
        report = validate_trajectories(trajs, sc, sample_dt=1e-2)
        assert not report.ok
        assert report.min_pair_clearance < 2.0 - 1e-6

    def test_obstacle_hit_fails(self):
        sc = scenario(obstacles=[(1, 1, 0)])
        trajs = [
            fallback_trajectory(
                np.array([[0.0, 0.5, 0.0], [1.0, 0.5, 0.0]]),  # straight through
                [0.5], 9, 4,
            )
        ]
        report = validate_trajectories(trajs, sc, sample_dt=1e-2)
        assert not report.ok
        assert report.min_obstacle_clearance < 1.0 - 1e-6

    def test_workspace_exit_fails(self):
        sc = scenario()
        trajs = [
            fallback_trajectory(
                np.array([[0.0, 0.0, 0.0], [2.5, 0.0, 0.0]]),  # x max is 1.75
                [0.5], 9, 4,
            )
        ]
        report = validate_trajectories(trajs, sc, sample_dt=1e-2)
        assert not report.ok
        assert report.workspace_overrun > 1e-6

    def test_wrong_endpoints_reported(self):
        sc = scenario()
        report = validate_trajectories(
            self.safe_pair(),
            sc,
            expected_starts=[[0, 0, 0], [0, 1.5, 0]],
            expected_goals=[[1.5, 0, 0], [0.5, 1.5, 0]],
            sample_dt=1e-2,
        )
        assert not report.ok
        assert any("ends at" in p for p in report.endpoint_problems)

    def test_report_round_trip(self, tmp_path):
        sc = scenario()
        report = validate_trajectories(self.safe_pair(), sc, sample_dt=1e-2)
        path = tmp_path / "validation.json"
        report.save(path)
        import json

        data = json.loads(path.read_text())
        assert data["ok"] == report.ok
        assert set(data["peaks"]) == {"speed", "accel", "thrust", "omega"}
        assert data["min_pair_clearance"] == report.min_pair_clearance

    @pytest.mark.parametrize("change", ["durations", "degree"])
    def test_sets_of_differing_pieces_are_rejected(self, change):
        # one piece layout per set: robot 1 flies the same horizon on other
        # piece durations, or the same durations at another degree
        wp = np.array([[0.0, 0.0, 0.0], [0.25, 0.0, 0.0], [0.5, 0.0, 0.0]])
        durations, degree, continuity = {
            "durations": ([0.2, 0.3], 9, 4),
            "degree": ([0.25, 0.25], 7, 3),
        }[change]
        trajs = [
            fallback_trajectory(wp, [0.25, 0.25], 9, 4),
            fallback_trajectory(wp + [0.0, 1.5, 0.0], durations, degree, continuity),
        ]
        assert trajs[0].duration == trajs[1].duration
        message = "robot 1 does not share robot 0's piece durations and degree"
        with pytest.raises(ValueError, match=message):
            validate_trajectories(trajs, scenario())
        with pytest.raises(ValueError, match=message):
            dynamics_metrics(trajs)

    def test_empty_set_is_rejected(self):
        with pytest.raises(ValueError, match="no trajectories"):
            validate_trajectories([], scenario())
        with pytest.raises(ValueError, match="no trajectories"):
            dynamics_metrics([])


@st.composite
def trajectory_sets(draw):
    """1-6 robots on one degree (5-9) and one list of piece durations,
    sometimes with knots on the sample grid and a pair that nearly
    touches inside its pieces."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        durations = st.sampled_from([0.125, 0.25, 0.5])
    else:
        durations = st.floats(0.05, 0.6)
    taus = draw(st.lists(durations, min_size=1, max_size=4))
    degree = draw(st.integers(5, 9))
    trajectories = []
    for _ in range(draw(st.integers(1, 6))):
        chain = []
        start = rng.uniform(0.0, 1.5, size=3)
        for _ in taus:
            pts = start + rng.normal(scale=0.2, size=(degree + 1, 3))
            pts[0] = start
            start = pts[-1]
            chain.append(pts)
        trajectories.append(PiecewiseBezierTrajectory(taus, chain))
    if len(trajectories) >= 2 and draw(st.booleans()):
        # a copy 2 scaled units away along x, pulled closer between the
        # knots: its nearest approach lies inside a piece, just past or
        # just short of touching
        radii = np.asarray(scenario().radii)
        pull = draw(st.floats(-0.01, 0.01))
        copy = trajectories[0].points + [2.0 * radii[0], 0.0, 0.0]
        copy[:, 1:-1, 0] -= pull * radii[0]
        trajectories[1] = PiecewiseBezierTrajectory(trajectories[0].durations, copy)
    return trajectories


def same_report(a, b):
    """Reports equal value for value, NaN included."""
    return json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


class TestBoundedSearch:
    """The bounded search reports exactly the dense sampler's extremes."""

    # 40 examples take 1.5-4.5 s on 2 cores
    @settings(max_examples=40, deadline=None)
    @given(
        trajectories=trajectory_sets(),
        obstacles=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 1)),
            max_size=4,
            unique=True,
        ).filter(lambda cells: not {(0, 0, 0), (3, 3, 1)} & set(cells)),
        sample_dt=st.sampled_from([1e-3, 1e-2, 2e-4]),
    )
    def test_report_equals_dense(self, trajectories, obstacles, sample_dt):
        sc = scenario(
            grid=GridSpec(dims=(4, 4, 2), cell_size=0.5),
            starts=[(0, 0, 0)],
            goals=[(3, 3, 1)],
            obstacles=obstacles,
        )
        report = validate_trajectories(trajectories, sc, sample_dt=sample_dt)
        expected = dense.validate_trajectories(trajectories, sc, sample_dt=sample_dt)
        # the verdict first, then every number, computed on this read
        assert report.ok == expected.ok
        assert report.to_dict() == expected.to_dict()
        for gravity in (0.0, 9.81):
            assert dynamics_metrics(
                trajectories, sample_dt=sample_dt, gravity=gravity
            ) == dense.dynamics_metrics(trajectories, sample_dt=sample_dt, gravity=gravity)

    def test_nan_control_point_matches_dense_and_fails(self):
        rng = np.random.default_rng(12)
        points = [[rng.uniform(0.0, 1.5, size=(10, 3)) for _ in range(3)] for _ in range(3)]
        points[1][1][4, 2] = np.nan
        trajectories = [PiecewiseBezierTrajectory([0.25] * 3, p) for p in points]
        sc = scenario(obstacles=[(2, 2, 0)])
        # the report computes its numbers on first read, so they are read here
        with np.errstate(invalid="ignore"):
            report = validate_trajectories(trajectories, sc)
            expected = dense.validate_trajectories(trajectories, sc)
            assert same_report(report, expected)
        assert not report.ok
        # max(peak, nan) would keep the peak of the other robots alone
        assert all(np.isnan(v) for v in report.peaks.values())

    @pytest.mark.parametrize("piece, index", [(1, 4), (0, 0)], ids=["inside", "at-start"])
    def test_inf_control_point_matches_dense_and_fails(self, piece, index):
        rng = np.random.default_rng(12)
        points = [[rng.uniform(0.0, 1.5, size=(10, 3)) for _ in range(3)] for _ in range(3)]
        points[1][piece][index, 2] = np.inf
        trajectories = [PiecewiseBezierTrajectory([0.25] * 3, p) for p in points]
        sc = scenario(obstacles=[(2, 2, 0)])
        # the report computes its numbers on first read, so they are read here
        with np.errstate(invalid="ignore"):
            report = validate_trajectories(trajectories, sc)
            expected = dense.validate_trajectories(trajectories, sc)
            assert same_report(report, expected)
        assert not report.ok
        assert "robot 1 has a control point that is not finite" in report.smoothness_problems

    @pytest.mark.parametrize("offset", [-1e-7, 0.0, 1e-7])
    @pytest.mark.parametrize("check", ["pair", "obstacle", "workspace"])
    def test_verdict_at_the_thresholds(self, check, offset):
        # one extreme a hair past its pass threshold (offset < 0), at it or
        # inside it (offset > 0), reached inside a moving piece
        sc = scenario(obstacles=[(1, 1, 0)])
        rx, ox = sc.radii[0], sc.obstacle_ellipsoid.radii[0]
        hi = sc.grid.workspace_box()[1][0]
        x = {
            "pair": 1.25 + (2.0 - 1e-6 + offset) * rx,
            "obstacle": 0.75 + (1.0 - 1e-6 + offset) * ox,
            "workspace": hi + 1e-6 - offset,
        }[check]
        # robot 0 flies along y at x, past the obstacle's side; in the pair
        # case robot 1 flies alongside it at x = 1.25
        trajectories = [
            fallback_trajectory(np.array([[x, 0.0, 0.0], [x, 1.0, 0.0]]), [0.5], 9, 4)
        ]
        if check == "pair":
            trajectories.append(
                fallback_trajectory(np.array([[1.25, 0.0, 0.0], [1.25, 1.0, 0.0]]), [0.5], 9, 4)
            )
        report = validate_trajectories(trajectories, sc)
        expected = dense.validate_trajectories(trajectories, sc)
        assert report.ok == expected.ok
        if offset:
            assert report.ok == (offset > 0)
        assert same_report(report, expected)

    def test_report_from_values(self, tmp_path):
        # as the dense reference builds it
        peaks = {"speed": 1.5, "accel": 3.0, "thrust": 10.5, "omega": 0.75}
        report = ValidationReport(False, 2.5, np.inf, -0.25, peaks, ["a"], [], 1e-2)
        assert report.min_pair_clearance == 2.5 and report.peaks is peaks
        assert report.to_dict() == {
            "ok": False, "min_pair_clearance": 2.5, "min_obstacle_clearance": np.inf,
            "workspace_overrun": -0.25, "peaks": peaks, "smoothness_problems": ["a"],
            "endpoint_problems": [], "sample_dt": 1e-2,
        }
        path = tmp_path / "validation.json"
        report.save(path)
        assert path.read_text() == report.to_json()
        assert json.loads(path.read_text())["min_obstacle_clearance"] == np.inf

    def test_peaks_computed_for_accepted_rounds_only(self, monkeypatch):
        # refinement reads the peaks of each accepted round for its report
        # row, and only the verdict of the straight lines
        sc = ScenarioSpec.load(
            os.path.join(os.path.dirname(__file__), os.pardir, "scenarios", "wall_windows_8.json")
        )
        plan = solve_discrete(sc).postprocessed()
        durations = [plan.dt] * plan.num_segments
        straight = [
            fallback_trajectory(w, durations, sc.degree, sc.continuity) for w in plan.waypoints
        ]
        real = validate.dynamics_metrics
        calls = []

        def spy(trajectories, *args, **kwargs):
            calls.append(list(trajectories))
            return real(trajectories, *args, **kwargs)

        monkeypatch.setattr(validate, "dynamics_metrics", spy)
        accepted = []
        result = refine.refine_trajectories(
            plan, sc, on_accept=lambda it, t: accepted.append(t)
        )
        assert result.ok and len(result.rows) == len(accepted) == sc.refine_iterations
        assert len(calls) == len(accepted)
        for passed, trajectories in zip(calls, accepted):
            assert all(a is b for a, b in zip(passed, trajectories))
            assert not any(
                np.array_equal(a.points, b.points) for a, b in zip(passed, straight)
            )

    def test_refinement_candidates_match_dense(self, monkeypatch):
        sc = ScenarioSpec.load(
            os.path.join(os.path.dirname(__file__), os.pardir, "scenarios", "handover_3.json")
        )
        calls = []

        def both(trajectories, scenario, **kwargs):
            report = validate_trajectories(trajectories, scenario, **kwargs)
            calls.append(
                (report, dense.validate_trajectories(trajectories, scenario, **kwargs))
            )
            return report

        monkeypatch.setattr(refine, "validate_trajectories", both)
        plan = solve_discrete(sc).postprocessed()
        refine.refine_trajectories(plan, sc)
        assert len(calls) >= 2
        for report, expected in calls:
            assert report.to_dict() == expected.to_dict()

    def test_every_check_reads_the_trajectories_it_is_given(self, monkeypatch):
        # no wrapper: the checks share each trajectory's own derivatives.
        # The verdict runs the position search and the smoothness check;
        # reading the report runs the exact position search and the peaks
        seen = []
        for name in ("_position_extremes", "dynamics_metrics", "smoothness_report"):
            original = getattr(validate, name)

            def spy(trajectories, *args, _name=name, _original=original, **kwargs):
                seen.append((_name, list(trajectories)))
                return _original(trajectories, *args, **kwargs)

            monkeypatch.setattr(validate, name, spy)
        trajectories = TestValidateTrajectories().safe_pair()
        report = validate.validate_trajectories(trajectories, scenario())
        assert [name for name, _ in seen] == ["_position_extremes", "smoothness_report"]
        report.to_dict()
        assert [name for name, _ in seen] == [
            "_position_extremes", "smoothness_report", "_position_extremes", "dynamics_metrics",
        ]
        for _, passed in seen:
            assert len(passed) == len(trajectories)
            assert all(a is b for a, b in zip(passed, trajectories))

    def test_validation_calls_dynamics_and_smoothness_once(self, monkeypatch):
        # the tracer times both by their module-level names; the peaks are
        # computed when first read, and only then
        counts = {}
        for name in ("dynamics_metrics", "smoothness_report"):
            original = getattr(validate, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(validate, name, counted)
        report = validate.validate_trajectories(TestValidateTrajectories().safe_pair(), scenario())
        assert report.ok
        assert counts == {"smoothness_report": 1}
        peaks = report.peaks
        assert report.peaks is peaks
        report.to_json()
        assert counts == {"dynamics_metrics": 1, "smoothness_report": 1}
