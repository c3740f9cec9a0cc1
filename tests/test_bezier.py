"""Bezier machinery tests.

Derivatives are checked against central finite differences of plain curve
evaluations, and integral costs against Gauss-Legendre quadrature, so the
expected values never flow through the code under test.
"""

import csv
import dataclasses
import math
import os
import re

import numpy as np
import pytest
import scipy.sparse
from scipy.interpolate import BSpline

from compare_artifacts import artifact_differences
from test_opt_engine import assert_bands_match_dense

from swarmplan.bezier_opt import (
    PiecewiseBezierTrajectory,
    control_point_cost,
    fallback_trajectory,
    optimize_trajectory,
    spline_to_bernstein,
    waypoint_splines,
)
from swarmplan import bezier_opt, opt_engine
from swarmplan.cli import main as cli_main
from swarmplan.corridor import build_corridors
from swarmplan.discrete_planner import solve_discrete
from swarmplan.geometry import ConvexPolyhedron
from swarmplan.opt_engine import QPInfeasibleError, QuadraticProgram, solve_qp
from swarmplan.refine import refine_trajectories
from swarmplan.scenario import ScenarioSpec

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")

WEIGHTS = (0.0, 1.0, 0.0, 1.0)


def monomial_to_bernstein(degree, duration):
    """Matrix taking the monomial coefficients of a polynomial on
    [0, duration] (ascending powers of local time) to its Bernstein control
    values: s**m is sum over i >= m of comb(i, m) / comb(degree, m) times
    the i-th basis polynomial, and t**m is duration**m s**m."""
    out = np.zeros((degree + 1, degree + 1))
    for i in range(degree + 1):
        for m in range(i + 1):
            out[i, m] = math.comb(i, m) / math.comb(degree, m) * duration**m
    return out


def bernstein_eval(points, s):
    """Textbook Bernstein sum, the oracle for de Casteljau evaluation."""
    points = np.asarray(points, dtype=float)
    d = points.shape[0] - 1
    out = np.zeros(points.shape[1])
    for i in range(d + 1):
        out += math.comb(d, i) * s**i * (1.0 - s) ** (d - i) * points[i]
    return out


def de_casteljau(points, s):
    """Curve value at s by repeated linear interpolation of control points."""
    pts = np.array(points, dtype=float)
    while len(pts) > 1:
        pts = (1.0 - s) * pts[:-1] + s * pts[1:]
    return pts[0]


def hodograph(points, duration, order):
    """Control points of the order-th derivative curve, by differencing."""
    pts = np.array(points, dtype=float)
    for _ in range(order):
        d = len(pts) - 1
        if d == 0:
            return np.zeros_like(pts[:1])
        pts = d / duration * np.diff(pts, axis=0)
    return pts


def de_casteljau_trajectory(traj, t, order):
    """De Casteljau oracle for a piecewise curve: times outside [0, T] are
    clipped, and a knot time belongs to the piece that starts there."""
    t = min(max(float(t), 0.0), traj.duration)
    k = max(i for i in range(len(traj.durations)) if traj.knots[i] <= t)
    tau = traj.durations[k]
    pts = hodograph(traj.points[k], tau, order)
    return de_casteljau(pts, (t - traj.knots[k]) / tau), np.abs(pts).max()


def endpoint_derivative_row(degree, order, duration, at_start):
    """Coefficients over a piece's control values giving an endpoint
    derivative: a scaled finite difference of the first (or last)
    order + 1 control values."""
    row = np.zeros(degree + 1)
    factor = math.perm(degree, order) / float(duration) ** order
    for r in range(order + 1):
        coeff = factor * (-1.0) ** (order - r) * math.comb(order, r)
        row[r if at_start else degree - order + r] = coeff
    return row


def bernstein_program(start, goal, durations, corridors, d, c, weights):
    """The smoothing QP over every piece's control points, with the rest
    endpoints and the knot continuity as equality rows assembled row by
    row; the reference formulation for optimize_trajectory."""
    width = 3 * (d + 1)
    n = len(durations) * width
    rows, rhs = [], []

    def condition(terms, value):
        # one row per axis; terms are (piece, coefficients over its points)
        for axis in range(3):
            row = np.zeros(n)
            for piece, coeffs in terms:
                row[piece * width + axis : (piece + 1) * width : 3] += coeffs
            rows.append(row)
            rhs.append(value[axis])

    zero = np.zeros(3)
    last = len(durations) - 1
    for order in range(c + 1):
        row = endpoint_derivative_row(d, order, durations[0], True)
        condition([(0, row)], start if order == 0 else zero)
        row = endpoint_derivative_row(d, order, durations[last], False)
        condition([(last, row)], goal if order == 0 else zero)
    for k in range(last):
        for order in range(c + 1):
            left = endpoint_derivative_row(d, order, durations[k], False)
            right = endpoint_derivative_row(d, order, durations[k + 1], True)
            condition([(k, left), (k + 1, -right)], zero)

    in_rows, in_rhs = [], []
    for k, poly in enumerate(corridors):
        for face, bound in zip(poly.A, poly.b):
            for point in range(d + 1):
                row = np.zeros(n)
                row[k * width + 3 * point : k * width + 3 * point + 3] = face
                in_rows.append(row)
                in_rhs.append(bound)
    h = np.zeros((n, n))
    for k, tau in enumerate(durations):
        block = np.kron(control_point_cost(d, tau, tuple(weights)), np.eye(3))
        h[k * width : (k + 1) * width, k * width : (k + 1) * width] = block
    return QuadraticProgram(
        h / np.abs(h).max(),
        np.zeros(n),
        scipy.sparse.csr_matrix(np.array(rows)),
        np.array(rhs),
        np.array(in_rows) if in_rows else None,
        np.array(in_rhs) if in_rhs else None,
    )


def quadrature_cost(traj, weights, nodes=16):
    """Weighted squared-derivative integral by Gauss-Legendre quadrature."""
    s, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for piece in traj.pieces:
        tau = piece.duration
        t = 0.5 * tau * (s + 1.0)
        for order, wc in enumerate(weights, start=1):
            if wc > 0:
                vals = piece.evaluate_many(t, order=order)
                total += wc * 0.5 * tau * float(w @ (vals * vals).sum(axis=1))
    return total


def finite_difference(piece, t, order):
    """Fourth-order central differences on order-0 evaluations only."""
    h = {1: 1e-3, 2: 1e-3, 3: 5e-3, 4: 1e-2}[order]
    stencils = {
        1: ([(-2, 1), (-1, -8), (1, 8), (2, -1)], 12 * h),
        2: ([(-2, -1), (-1, 16), (0, -30), (1, 16), (2, -1)], 12 * h**2),
        3: ([(-3, 1), (-2, -8), (-1, 13), (1, -13), (2, 8), (3, -1)], 8 * h**3),
        4: (
            [(-3, -1), (-2, 12), (-1, -39), (0, 56), (1, -39), (2, 12), (3, -1)],
            6 * h**4,
        ),
    }
    offsets, denom = stencils[order]
    acc = np.zeros(piece.points.shape[-1])
    for k, c in offsets:
        acc += c * piece.evaluate_many(np.array([t + k * h]))[0]
    return acc / denom


class TestBasisMatrices:
    def test_degree_one_monomial_conversion(self):
        m = monomial_to_bernstein(1, 2.0)
        # a + b t on [0, 2] has control values a and a + 2 b
        assert np.allclose(m, [[1.0, 0.0], [1.0, 2.0]])

    def test_conversion_matches_direct_evaluation(self):
        rng = np.random.default_rng(0)
        for d, tau in [(3, 1.0), (5, 0.25), (9, 0.4)]:
            coeffs = rng.normal(size=d + 1)
            vals = monomial_to_bernstein(d, tau) @ coeffs
            for t in np.linspace(0, tau, 7):
                poly = sum(c * t**m for m, c in enumerate(coeffs))
                direct = bernstein_eval(vals[:, None], t / tau)[0]
                assert poly == pytest.approx(direct, rel=1e-10, abs=1e-12)

    def test_control_point_cost_hand_values(self):
        # control values (0, 0, 1) over tau are the curve (t / tau)^2: its
        # squared velocity (2t / tau^2)^2 integrates to 4 / (3 tau), and its
        # squared acceleration (2 / tau^2)^2 to 4 / tau^3
        p = np.array([0.0, 0.0, 1.0])
        for tau in (0.5, 1.5):
            velocity = p @ control_point_cost(2, tau, (1.0, 0.0)) @ p
            acceleration = p @ control_point_cost(2, tau, (0.0, 1.0)) @ p
            assert velocity == pytest.approx(4 / (3 * tau), rel=1e-14)
            assert acceleration == pytest.approx(4 / tau**3, rel=1e-14)
            # jerk and snap of a quadratic are 0
            assert not control_point_cost(2, tau, (0.0, 0.0, 1.0, 1.0)).any()

    def test_control_point_cost_annihilates_constants(self):
        # a constant curve costs nothing: H 1 is 0 up to rounding
        for tau in (0.25, 0.5):
            h = control_point_cost(9, tau, WEIGHTS)
            assert np.abs(h.sum(axis=1)).max() <= 1e-15 * np.abs(h).max()

    def test_control_point_cost_matches_quadrature(self):
        rng = np.random.default_rng(1)
        for d, tau in [(5, 1.0), (9, 0.25)]:
            pts = rng.normal(size=(d + 1, 3))
            traj = PiecewiseBezierTrajectory([tau], [pts])
            h = control_point_cost(d, tau, WEIGHTS)
            direct = float(np.einsum("id,ij,jd->", pts, h, pts))
            assert direct == pytest.approx(quadrature_cost(traj, WEIGHTS), rel=1e-9)


class TestEvaluation:
    def test_de_casteljau_matches_bernstein_sum(self):
        rng = np.random.default_rng(2)
        for d in (1, 2, 5, 9):
            pts = rng.normal(size=(d + 1, 3))
            piece = PiecewiseBezierTrajectory([0.7], [pts])
            for s in np.linspace(0, 1, 9):
                expected = bernstein_eval(pts, s)
                assert np.allclose(piece.evaluate(0.7 * s), expected, atol=1e-12)

    def test_kernel_matches_de_casteljau(self):
        rng = np.random.default_rng(20)
        for d in range(1, 10):
            tau = float(rng.uniform(0.1, 3.0))
            pts = rng.normal(size=(d + 1, 3)) * rng.uniform(0.1, 10)
            piece = PiecewiseBezierTrajectory([tau], [pts])
            ts = np.concatenate([[0.0, tau], rng.uniform(0, tau, size=25)])
            for order in range(5):
                ref = hodograph(pts, tau, order)
                expected = np.array([de_casteljau(ref, t / tau) for t in ts])
                got = piece.evaluate_many(ts, order)
                assert np.abs(got - expected).max() <= 1e-12 * np.abs(ref).max()

    def test_partition_of_unity(self):
        # identical control points pin the whole curve to that point
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = int(rng.integers(1, 10))
            p = rng.normal(size=3)
            piece = PiecewiseBezierTrajectory([1.0], [np.tile(p, (d + 1, 1))])
            ts = rng.uniform(0, 1, size=11)
            assert np.abs(piece.evaluate_many(ts) - p).max() <= 1e-12

    def test_convex_hull_containment(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            d = int(rng.integers(1, 10))
            pts = rng.normal(size=(d + 1, 3)) * rng.uniform(0.1, 10)
            piece = PiecewiseBezierTrajectory([float(rng.uniform(0.1, 3))], [pts])
            ts = np.linspace(0, piece.duration, 33)
            vals = piece.evaluate_many(ts)
            assert (vals >= pts.min(axis=0) - 1e-9).all()
            assert (vals <= pts.max(axis=0) + 1e-9).all()

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            pts = rng.normal(size=(10, 3))
            piece = PiecewiseBezierTrajectory([1.0], [pts])
            for order in (1, 2, 3, 4):
                for t in (0.3, 0.5, 0.8):
                    exact = piece.evaluate(t, order=order)
                    approx = finite_difference(piece, t, order)
                    scale = max(1.0, float(np.abs(exact).max()))
                    assert np.abs(exact - approx).max() <= 1e-4 * scale

    def test_derivative_points_drop_degree(self):
        piece = PiecewiseBezierTrajectory([2.0], [np.arange(12, dtype=float).reshape(4, 3)])
        assert piece.control_points(1).shape == (1, 3, 3)
        assert piece.control_points(4).shape == (1, 1, 3)
        assert np.allclose(piece.control_points(4), 0.0)

    def test_endpoint_derivative_rows_match_evaluation(self):
        rng = np.random.default_rng(6)
        d, tau = 9, 0.4
        pts = rng.normal(size=(d + 1, 3))
        piece = PiecewiseBezierTrajectory([tau], [pts])
        for order in range(5):
            row_s = endpoint_derivative_row(d, order, tau, at_start=True)
            row_e = endpoint_derivative_row(d, order, tau, at_start=False)
            assert np.allclose(row_s @ pts, piece.evaluate(0.0, order), atol=1e-8)
            assert np.allclose(row_e @ pts, piece.evaluate(tau, order), atol=1e-8)


class TestSplineMap:
    def knot_vector(self, durations, d, c):
        knots = np.concatenate([[0.0], np.cumsum(durations)])
        interior = np.repeat(knots[1:-1], d - c)
        return np.concatenate([[0.0] * (d + 1), interior, [knots[-1]] * (d + 1)])

    def spline(self, rng, d, c, pieces):
        durations = tuple(rng.uniform(0.4, 1.2, size=pieces))
        m = spline_to_bernstein(durations, d, c).toarray()
        coef = rng.normal(size=m.shape[1])
        points = (m @ coef).reshape(pieces, d + 1)
        traj = PiecewiseBezierTrajectory(durations, points[:, :, None])
        return BSpline(self.knot_vector(durations, d, c), coef, d), traj

    @pytest.mark.parametrize(
        "d, c, pieces", [(9, 4, 5), (9, 4, 1), (5, 2, 4), (3, 1, 6), (7, 3, 3)]
    )
    def test_matches_scipy_bspline(self, d, c, pieces):
        rng = np.random.default_rng(30 + d)
        bspline, traj = self.spline(rng, d, c, pieces)
        ts = np.concatenate([traj.knots, rng.uniform(0, traj.duration, size=60)])
        expected = bspline(ts)
        assert np.abs(traj.evaluate_many(ts)[:, 0] - expected).max() <= 1e-12
        for t, value in zip(ts, expected):
            casteljau, _ = de_casteljau_trajectory(traj, t, 0)
            assert abs(casteljau[0] - value) <= 1e-12

    def test_random_coefficients_are_c4_at_every_knot(self):
        rng = np.random.default_rng(31)
        d, c = 9, 4
        for _ in range(10):
            _, traj = self.spline(rng, d, c, 4)
            jumps = []
            for left, right in zip(traj.pieces, traj.pieces[1:]):
                for order in range(c + 2):
                    a = hodograph(left.points[0], left.duration, order)
                    b = hodograph(right.points[0], right.duration, order)
                    scale = max(np.abs(a).max(), np.abs(b).max())
                    jumps.append(abs(a[-1, 0] - b[0, 0]) / scale)
            jumps = np.array(jumps).reshape(-1, c + 2)
            assert jumps[:, : c + 1].max() <= 1e-12
            # order c + 1 is free to jump: the knots are not over-smoothed
            assert jumps[:, c + 1].min() > 1e-6


class TestTrajectory:
    def make_traj(self, rng, pieces=3, d=5):
        durations, points = zip(
            *[(rng.uniform(0.2, 1.5), rng.normal(size=(d + 1, 3))) for _ in range(pieces)]
        )
        return PiecewiseBezierTrajectory(durations, points)

    def test_piecewise_evaluation_uses_right_piece(self):
        rng = np.random.default_rng(7)
        traj = self.make_traj(rng)
        t0 = traj.knots[1] + 0.4 * (traj.knots[2] - traj.knots[1])
        direct = traj.pieces[1].evaluate(t0 - traj.knots[1])
        assert np.allclose(traj.evaluate(t0), direct, atol=1e-12)

    @pytest.mark.parametrize(
        "durations, degree", [([0.3, 1.1, 0.45, 0.8], 5)], ids=["durations-differ"]
    )
    def test_kernel_matches_de_casteljau(self, durations, degree):
        rng = np.random.default_rng(21)
        traj = PiecewiseBezierTrajectory(
            durations, [rng.normal(size=(degree + 1, 3)) for _ in durations]
        )
        ts = np.concatenate(
            [traj.knots, [-0.7, -1e-9, traj.duration + 1e-9, traj.duration + 3.0],
             rng.uniform(0, traj.duration, size=40)]
        )
        for order in range(5):
            got = traj.evaluate_many(ts, order)
            for t, value in zip(ts, got):
                expected, scale = de_casteljau_trajectory(traj, t, order)
                assert np.abs(value - expected).max() <= 1e-12 * scale
                assert np.abs(traj.evaluate(t, order) - expected).max() <= 1e-12 * scale
            # a piece's start is its first control point, to the last bit
            for k in range(len(durations)):
                assert np.array_equal(got[k], traj.control_points(order)[k, 0])

    @pytest.mark.parametrize("degree", [1, 2, 5, 9])
    def test_control_points_stack_each_pieces_derivative_points(self, degree):
        rng = np.random.default_rng(22)
        traj = self.make_traj(rng, pieces=4, d=degree)
        for order in range(degree + 3):
            expected = np.stack(
                [hodograph(p, tau, order) for tau, p in zip(traj.durations, traj.points)]
            )
            got = traj.control_points(order)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("duration", [0.0, -1.0, math.nan, math.inf])
    def test_piece_duration_must_be_finite_and_positive(self, duration):
        with pytest.raises(ValueError, match="duration"):
            PiecewiseBezierTrajectory([duration], [np.zeros((4, 3))])

    def test_evaluation_clamps_to_domain(self):
        rng = np.random.default_rng(8)
        traj = self.make_traj(rng)
        assert np.allclose(traj.evaluate(-1.0), traj.evaluate(0.0))
        assert np.allclose(traj.evaluate(traj.duration + 5), traj.evaluate(traj.duration))

    def test_cost_matches_quadrature(self):
        rng = np.random.default_rng(9)
        traj = self.make_traj(rng, pieces=4, d=9)
        assert traj.cost(WEIGHTS) == pytest.approx(
            quadrature_cost(traj, WEIGHTS), rel=1e-9
        )

    def test_cost_is_the_sum_of_its_pieces(self):
        # one product per derivative order over every piece sums the terms
        # of a loop over the pieces, in another order
        rng = np.random.default_rng(13)
        traj = self.make_traj(rng, pieces=24, d=9)
        assert traj.cost(WEIGHTS) == pytest.approx(
            sum(piece.cost(WEIGHTS) for piece in traj.pieces), rel=1e-13
        )

    def test_scaled_preserves_path_and_scales_derivatives(self):
        rng = np.random.default_rng(10)
        traj = self.make_traj(rng)
        s = 2.0
        slow = traj.scaled(s)
        assert slow.duration == pytest.approx(s * traj.duration)
        for t in np.linspace(0, traj.duration, 9):
            assert np.allclose(slow.evaluate(s * t), traj.evaluate(t), atol=1e-10)
            for order in (1, 2):
                assert np.allclose(
                    slow.evaluate(s * t, order),
                    traj.evaluate(t, order) / s**order,
                    atol=1e-9,
                )

    def test_scaled_cost_law_single_order(self):
        # with only the order-c weight active, cost scales by s**(1 - 2c)
        rng = np.random.default_rng(11)
        traj = self.make_traj(rng)
        s = 1.7
        for order in (1, 2, 3):
            w = tuple(1.0 if k == order else 0.0 for k in range(1, 4))
            assert traj.scaled(s).cost(w) == pytest.approx(
                traj.cost(w) * s ** (1 - 2 * order), rel=1e-9
            )

    def test_scaled_rejects_nonpositive(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError):
            self.make_traj(rng).scaled(0.0)

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        traj = self.make_traj(rng, pieces=3, d=9)
        path = tmp_path / "traj.csv"
        traj.save_csv(path)
        again = PiecewiseBezierTrajectory.load_csv(path)
        assert np.array_equal(again.points, traj.points)
        assert np.array_equal(again.durations, traj.durations)

    def test_csv_columns_are_control_points(self, tmp_path):
        traj = self.make_traj(np.random.default_rng(27), pieces=2, d=3)
        path = tmp_path / "traj.csv"
        traj.save_csv(path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["duration"] + [f"{a}{i}" for a in "xyz" for i in range(4)]
        assert float(rows[2][0]) == traj.durations[1]
        assert [float(v) for v in rows[2][1:5]] == traj.points[1, :, 0].tolist()
        assert [float(v) for v in rows[2][9:]] == traj.points[1, :, 2].tolist()

    def test_csv_monomial_header_rejected(self, tmp_path):
        # the earlier format: per-axis power-basis coefficients cx0..cz9
        path = tmp_path / "old.csv"
        header = ["duration"] + [f"c{a}{m}" for a in "xyz" for m in range(10)]
        path.write_text(",".join(header) + "\n" + ",".join(["0.25"] + ["0"] * 30) + "\n")
        with pytest.raises(ValueError, match="malformed trajectory header in .*old.csv"):
            PiecewiseBezierTrajectory.load_csv(path)

    def test_csv_without_pieces_names_the_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("duration,x0,y0,z0\n")
        with pytest.raises(ValueError, match="empty.csv: trajectory needs at least one piece"):
            PiecewiseBezierTrajectory.load_csv(path)

    def test_csv_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("duration,cx0,cx1\n1.0,0.0,1.0\n")
        with pytest.raises(ValueError, match="malformed"):
            PiecewiseBezierTrajectory.load_csv(path)

    def test_csv_header_without_coefficients_rejected(self, tmp_path):
        # a lone duration column would read as degree -1
        path = tmp_path / "bad.csv"
        path.write_text("duration\n1.0\n")
        with pytest.raises(ValueError, match="malformed"):
            PiecewiseBezierTrajectory.load_csv(path)

    def test_infinite_horizon_rejected(self):
        # each duration is finite, their sum is not
        with pytest.raises(ValueError, match="horizon inf is not finite"):
            PiecewiseBezierTrajectory([1e308, 1e308], np.zeros((2, 4, 3)))

    def test_duration_absorbed_by_a_huge_knot_rejected(self):
        # the knots would be [0, 1e308, 1e308, 1e308]: pieces 1 and 2 get
        # no time, and evaluating the end would land at the start of piece 2
        points = np.arange(3.0)[:, None, None] + np.array([0.0, 1.0])[None, :, None] + np.zeros(3)
        with pytest.raises(ValueError, match=r"piece 1 of duration 0.25 ends at its start, knot 1e\+308"):
            PiecewiseBezierTrajectory([1e308, 0.25, 0.25], points)

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseBezierTrajectory([], np.zeros((0, 4, 3)))

    def test_degree_below_zero_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            PiecewiseBezierTrajectory([1.0], np.zeros((1, 0, 3)))

    def test_arrays_are_read_only_copies(self):
        rng = np.random.default_rng(24)
        durations, points = np.array([0.5, 0.25]), rng.normal(size=(2, 6, 3))
        traj = PiecewiseBezierTrajectory(durations, points)
        durations[0] = 1.0
        points[0, 0, 0] += 1.0
        assert traj.durations[0] == 0.5
        assert traj.points[0, 0, 0] == points[0, 0, 0] - 1.0
        arrays = [traj.durations, traj.knots, traj.points]
        arrays += [traj.control_points(order) for order in range(8)]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] += 1.0

    @pytest.mark.parametrize("degree", [0, 3, 9])
    def test_control_points_are_computed_once_per_order(self, degree):
        traj = self.make_traj(np.random.default_rng(25), d=degree)
        for order in range(degree + 3):
            assert traj.control_points(order) is traj.control_points(order)

    def test_pieces_are_one_piece_trajectories(self):
        traj = self.make_traj(np.random.default_rng(26), pieces=4)
        assert len(traj.pieces) == 4
        for k, piece in enumerate(traj.pieces):
            assert isinstance(piece, PiecewiseBezierTrajectory)
            assert piece.knots.tolist() == [0.0, traj.durations[k]]
            assert piece.points.tobytes() == traj.points[k].tobytes()


class TestFallback:
    def test_hits_waypoints_at_rest(self):
        wp = np.array([[0, 0, 0], [0.5, 0, 0], [0.5, 0.5, 0.5]], dtype=float)
        traj = fallback_trajectory(wp, [0.25, 0.25], degree=9, continuity=4)
        knots = traj.knots
        for k, t in enumerate(knots):
            assert np.allclose(traj.evaluate(t), wp[k], atol=1e-9)
            for order in range(1, 5):
                assert np.abs(traj.evaluate(t, order)).max() <= 1e-6

    def test_stays_on_segments(self):
        a = np.array([0.0, 0.0, 0.0])
        b = np.array([1.0, 2.0, 0.5])
        traj = fallback_trajectory(np.vstack([a, b]), [0.5], degree=9, continuity=4)
        ts = np.linspace(0, 0.5, 50)
        vals = traj.evaluate_many(ts)
        rel = vals - a
        # collinear with the segment direction
        cross = np.cross(rel, b - a)
        assert np.abs(cross).max() <= 1e-9

    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    @pytest.mark.parametrize("tau", [0.1, 0.5, 2.0])
    def test_rest_profile_values_lie_between_the_segment_ends(self, c, tau):
        # so a straight line's control points lie on its segment, and the
        # corridors refinement builds around them in round zero are those
        # of the segment; the ramp is the same for every duration
        a, b = np.array([0.5, -1.0, 2.0]), np.array([1.5, 1.0, 2.5])
        for d in range(2 * c + 1, 16):
            points = fallback_trajectory(np.vstack([a, b]), [tau], degree=d, continuity=c).points[0]
            unit = fallback_trajectory(np.vstack([a, b]), [1.0], degree=d, continuity=c).points[0]
            assert points.tobytes() == unit.tobytes(), d
            assert (points >= np.minimum(a, b) - 1e-12).all(), d
            assert (points <= np.maximum(a, b) + 1e-12).all(), d
            assert np.abs(np.cross(points - a, b - a)).max() <= 1e-12, d

    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    def test_rest_profile_is_the_lowest_degree_ramp_raised(self, c):
        # the degree-(2c + 1) ramp with c + 1 zeros and c + 1 ones is the
        # only rest-to-rest ramp of its degree; raised to degree d it keeps
        # its curve, so its end derivatives through order c stay 0
        ramp = np.repeat([0.0, 1.0], c + 1)[:, None]
        s = np.linspace(0.0, 1.0, 17)
        for d in range(2 * c + 1, 16):
            values = bezier_opt._rest_to_rest_profile(d, c)
            assert values.shape == (d + 1,)
            assert values.min() >= 0.0 and values.max() <= 1.0, d
            assert (np.diff(values) >= 0.0).all(), d
            assert (values[: c + 1] == 0.0).all() and (values[d - c :] == 1.0).all(), d
            free = values[c + 1 : d - c]
            assert ((free > 0.0) & (free < 1.0)).all(), d
            piece = PiecewiseBezierTrajectory([1.0], [values[:, None]])
            for order in range(1, c + 1):
                assert piece.evaluate(0.0, order)[0] == 0.0, (d, order)
                assert piece.evaluate(1.0, order)[0] == 0.0, (d, order)
            curve = [bernstein_eval(values[:, None], t)[0] for t in s]
            assert curve == pytest.approx([bernstein_eval(ramp, t)[0] for t in s], abs=1e-12), d


def face_list(polyhedra):
    """[robot][piece] polytopes as optimize_trajectory's face list (cells,
    normals, offsets): each polytope's rows in order, tagged with its
    (robot, piece) cell."""
    polys = [((t, k), poly) for t, robot in enumerate(polyhedra) for k, poly in enumerate(robot)]
    cells = [cell for cell, poly in polys for _ in range(poly.num_faces)]
    return (
        np.array(cells, dtype=int).reshape(-1, 2),
        np.concatenate([np.zeros((0, 3))] + [poly.A for _, poly in polys]),
        np.concatenate([np.zeros(0)] + [poly.b for _, poly in polys]),
    )


def robot_faces(corridors, robots):
    """The faces of the given robots of a CorridorSet as optimize_trajectory
    takes them for those robots: robot robots[t]'s faces, in order, as
    robot t's."""
    rows = [np.flatnonzero(corridors.cells[:, 0] == r) for r in robots]
    index = np.concatenate(rows)
    robot = np.repeat(np.arange(len(robots)), [len(r) for r in rows])
    cells = np.column_stack([robot, corridors.cells[index, 1]])
    return cells, corridors.normals[index], corridors.offsets[index]


def first_face(corridors, robot, piece):
    """Index of the first face, the first workspace face, of a corridor."""
    return int(np.flatnonzero((corridors.cells == (robot, piece)).all(axis=1))[0])


def full_programs(starts, goals, durations, cells, normals, offsets, degree, continuity, weights):
    """optimize_trajectory with every face kept (_LAZY_FACE_SLACK infinite),
    each robot started from free coefficients 0: its full program from one
    fixed start, whatever its corridors."""
    c = continuity
    r = spline_to_bernstein(tuple(float(t) for t in durations), degree, c).shape[1] - 2 * (c + 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bezier_opt, "_LAZY_FACE_SLACK", math.inf)
        return optimize_trajectory(
            starts, goals, durations, cells, normals, offsets, degree, continuity, weights,
            np.zeros((len(starts), 3 * r)),
        )


def widest(batch):
    """The most faces any piece of a SmoothingBatch holds: the row count it
    pads each piece to."""
    return int(np.bincount(batch.cells @ (batch.space.pieces, 1), minlength=1).max())


def optimize_one(start, goal, durations, corridors, degree, continuity, weights):
    """The full program (full_programs) of one robot through one polytope
    per piece: its (trajectory, cost, result), or its error raised."""
    out = full_programs(
        [start], [goal], durations, *face_list([corridors]), degree, continuity, weights
    )[0]
    if isinstance(out, Exception):
        raise out
    return out


class TestOptimizeTrajectory:
    def free_corridors(self, k):
        return [ConvexPolyhedron() for _ in range(k)]

    def test_matches_equality_constrained_bernstein_formulation(self):
        # acceptance test 6's cases, each solved a second time over the
        # pieces' control points with continuity as equality rows
        rng = np.random.default_rng(11)
        for case in range(50):
            pieces = int(rng.integers(2, 6))
            durations = list(rng.uniform(0.4, 1.2, size=pieces))
            start = rng.uniform(-1.0, 1.0, size=3)
            goal = rng.uniform(-1.0, 1.0, size=3)
            if case % 2:
                corridors = [ConvexPolyhedron() for _ in range(pieces)]
            else:
                lo = np.minimum(start, goal) - 0.8
                hi = np.maximum(start, goal) + 0.8
                a = np.vstack([np.eye(3), -np.eye(3)])
                corridors = [ConvexPolyhedron(a, np.concatenate([hi, -lo]))] * pieces
            _, objective, _ = optimize_one(
                start, goal, durations, corridors, 9, 4, WEIGHTS
            )
            qp = bernstein_program(start, goal, durations, corridors, 9, 4, WEIGHTS)
            points = np.split(solve_qp(qp).x, pieces)
            reference = PiecewiseBezierTrajectory(
                durations, [p.reshape(10, 3) for p in points]
            ).cost(WEIGHTS)
            assert objective == pytest.approx(reference, rel=1e-8)

    def test_endpoints_and_rest(self):
        start, goal = np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.5, 0.25])
        traj, obj, _ = optimize_one(
            start, goal, [0.25] * 4, self.free_corridors(4), 9, 4, WEIGHTS
        )
        assert np.allclose(traj.evaluate(0.0), start, atol=1e-8)
        assert np.allclose(traj.evaluate(traj.duration), goal, atol=1e-8)
        for order in range(1, 5):
            scale = max(1.0, np.abs(traj.evaluate_many(traj.knots, order)).max())
            assert np.abs(traj.evaluate(0.0, order)).max() <= 1e-6 * scale
            assert np.abs(traj.evaluate(traj.duration, order)).max() <= 1e-6 * scale

    def test_knot_continuity(self):
        rng = np.random.default_rng(14)
        start, goal = rng.normal(size=3), rng.normal(size=3)
        durations = [0.25, 0.4, 0.3, 0.25]
        traj, _, _ = optimize_one(
            start, goal, durations, self.free_corridors(4), 9, 4, WEIGHTS
        )
        for k in range(1, len(durations)):
            t = traj.knots[k]
            left = traj.pieces[k - 1]
            right = traj.pieces[k]
            for order in range(5):
                a = left.evaluate(left.duration, order)
                b = right.evaluate(0.0, order)
                scale = max(1.0, np.abs(a).max(), np.abs(b).max())
                assert np.abs(a - b).max() <= 1e-6 * scale

    def test_objective_matches_cost_and_quadrature(self):
        rng = np.random.default_rng(15)
        start, goal = rng.normal(size=3), rng.normal(size=3)
        traj, obj, _ = optimize_one(
            start, goal, [0.25] * 3, self.free_corridors(3), 9, 4, WEIGHTS
        )
        assert obj == pytest.approx(traj.cost(WEIGHTS), rel=1e-6)
        assert obj == pytest.approx(quadrature_cost(traj, WEIGHTS), rel=1e-6)

    def test_no_worse_than_fallback(self):
        start, goal = np.zeros(3), np.array([1.5, 0.0, 0.5])
        wp = np.vstack([start, [0.5, 0, 0], [1.0, 0, 0.5], goal])
        durations = [0.25, 0.25, 0.25]
        fb = fallback_trajectory(wp, durations, 9, 4)
        _, obj, _ = optimize_one(
            start, goal, durations, self.free_corridors(3), 9, 4, WEIGHTS
        )
        assert obj <= fb.cost(WEIGHTS) * (1 + 1e-9) + 1e-9

    def test_corridor_confines_control_points(self):
        start, goal = np.zeros(3), np.array([1.0, 0.0, 0.0])
        lo, hi = np.array([-0.1, -0.2, -0.2]), np.array([1.1, 0.2, 0.2])
        box = ConvexPolyhedron(
            np.vstack([np.eye(3), -np.eye(3)]), np.concatenate([hi, -lo])
        )
        traj, _, _ = optimize_one(
            start, goal, [0.3] * 3, [box] * 3, 9, 4, WEIGHTS
        )
        for piece in traj.pieces:
            assert box.max_violation(piece.points) <= 1e-6
        ts = np.linspace(0, traj.duration, 200)
        assert box.max_violation(traj.evaluate_many(ts)) <= 1e-6

    def test_infeasible_corridor_raises(self):
        # corridor demands x >= 2 but the curve must start at the origin
        bad = ConvexPolyhedron(np.array([[-1.0, 0.0, 0.0]]), np.array([-2.0]))
        with pytest.raises(QPInfeasibleError):
            optimize_one(
                np.zeros(3), np.array([3.0, 0, 0]), [0.25] * 2, [bad, bad], 9, 4, WEIGHTS
            )

    def test_single_piece_is_fixed_by_its_rest_endpoints(self, capfd):
        # degree 2c + 1 on one piece leaves no free coefficient: the curve
        # is the rest-to-rest one, and the corridor only gets checked
        start, goal = np.zeros(3), np.array([1.0, 0.5, 0.25])
        box = ConvexPolyhedron(np.vstack([np.eye(3), -np.eye(3)]), np.full(6, 2.0))
        traj, _, _ = optimize_one(start, goal, [0.5], [box], 9, 4, WEIGHTS)
        assert np.array_equal(traj.points[0], np.array([start] * 5 + [goal] * 5))
        with pytest.raises(QPInfeasibleError):
            empty = ConvexPolyhedron(box.A, -box.b)
            optimize_one(start, goal, [0.5], [empty], 9, 4, WEIGHTS)
        # LAPACK reports an illegal argument on its output, not by raising
        assert "illegal" not in "".join(capfd.readouterr())

    def test_no_robots_make_no_batch(self, monkeypatch):
        def no_batch(*args):
            raise AssertionError("a batch was built")

        monkeypatch.setattr(opt_engine, "SmoothingBatch", no_batch)
        out = full_programs(
            np.zeros((0, 3)), np.zeros((0, 3)), [0.25] * 3,
            np.zeros((0, 2), dtype=int), np.zeros((0, 3)), np.zeros(0), 9, 4, WEIGHTS,
        )
        assert out == []

    def test_corridor_count_mismatch_rejected(self):
        # a face on a third piece of a two-piece trajectory
        box = ConvexPolyhedron(np.vstack([np.eye(3), -np.eye(3)]), np.full(6, 2.0))
        with pytest.raises(ValueError, match="corridor"):
            optimize_one(np.zeros(3), np.ones(3), [0.25] * 2, [box] * 3, 9, 4, WEIGHTS)


@pytest.fixture(scope="module")
def wall_plan():
    """The wall scenario's post-processed plan, and the scenario."""
    sc = ScenarioSpec.load(os.path.join(SCENARIO_DIR, "wall_windows_8.json"))
    return solve_discrete(sc).postprocessed(), sc


@pytest.fixture(scope="module")
def wall_round_zero(wall_plan):
    """The wall scenario's round-0 smoothing inputs, as refinement passes
    them: (starts, goals, durations, corridors, degree, continuity, weights),
    with corridors a CorridorSet."""
    plan, sc = wall_plan
    corridors = build_corridors(np.stack([t.points for t in straight_lines(plan, sc)]), sc)
    durations = [plan.dt] * plan.num_segments
    return (
        plan.waypoints[:, 0], plan.waypoints[:, -1], durations, corridors,
        sc.degree, sc.continuity, tuple(sc.weights),
    )


@pytest.fixture(scope="module")
def wall_splines(wall_plan, wall_round_zero):
    """Each wall robot's round-zero start, as refinement gives it: the free
    coefficients of its waypoint spline."""
    plan, sc = wall_plan
    return waypoint_splines(plan.waypoints, wall_round_zero[2], sc.degree, sc.continuity, tuple(sc.weights))


def curve_cost(x, durations, weights):
    """The cost of the curve whose stacked control points are x."""
    points = np.split(x, len(durations))
    return PiecewiseBezierTrajectory(
        durations, [p.reshape(-1, 3) for p in points]
    ).cost(weights)


def solve_robots(inputs, robots, monkeypatch=None, coefficients=None):
    """optimize_trajectory on the given robots of inputs, started from
    their rows of coefficients (one per robot of inputs) when given, and
    otherwise their full programs (full_programs); with monkeypatch, also
    every solve_qp call it makes, as (program, result)."""
    starts, goals, durations, corridors, *rest = inputs
    calls = []
    if monkeypatch is not None:
        real = opt_engine.solve_qp

        def spy(qp, *args):
            calls.append((qp, real(qp, *args)))
            return calls[-1][1]

        monkeypatch.setattr(opt_engine, "solve_qp", spy)
    args = (starts[robots], goals[robots], durations, *robot_faces(corridors, robots), *rest)
    if coefficients is None:
        return full_programs(*args), calls
    return optimize_trajectory(*args, coefficients[robots]), calls


def full_batch(inputs, robots, coefficients):
    """The given robots' programs as one SmoothingBatch with every face of
    their corridors, each started from its row of coefficients, posed as
    optimize_trajectory poses them."""
    starts, goals, durations, corridors, degree, continuity, weights = inputs
    space, ends = bezier_opt._smoothing_space(tuple(durations), degree, continuity, tuple(weights))
    x0 = np.array([(ends @ np.vstack([starts[i], goals[i]])).ravel() for i in robots])
    return opt_engine.SmoothingBatch(space, x0, *robot_faces(corridors, robots), coefficients[robots])


def straight_lines(plan, scenario):
    """Every robot's round-zero curve: the straight line along its plan."""
    durations = [plan.dt] * plan.num_segments
    return [
        fallback_trajectory(wp, durations, scenario.degree, scenario.continuity)
        for wp in plan.waypoints
    ]


def fitted_coefficients(curves, degree, continuity):
    """Each curve's free B-spline coefficients (curves, 3 r), each axis
    interleaved as optimize_trajectory takes them: the least-squares fit of
    its control points, less its rest ends, over the free columns of
    spline_to_bernstein's map.  Exact for a curve of the smoothing
    program's knots, rest ends and continuity, such as a straight line; a
    test that warm-starts from a curve fits it here, as its own reference."""
    c = continuity
    basis = spline_to_bernstein(tuple(curves[0].durations.tolist()), degree, c).toarray()
    ends = np.column_stack([basis[:, : c + 1].sum(axis=1), basis[:, -(c + 1) :].sum(axis=1)])
    out = []
    for curve in curves:
        points = curve.points.reshape(-1, 3)
        fit = np.linalg.lstsq(basis[:, c + 1 : -(c + 1)], points - ends @ points[[0, -1]], rcond=None)
        out.append(fit[0].ravel())
    return np.array(out)


def plan_stops(name, iterations):
    """How every smoothing QP of a refinement of the named scenario stopped,
    over its first iterations rounds, and how many programs the rounds'
    log lines say were solved (a round that is solved and then rejected
    counts too)."""
    sc = ScenarioSpec.load(os.path.join(SCENARIO_DIR, f"{name}.json"))
    plan = solve_discrete(sc).postprocessed()
    stops, messages = [], []
    real = opt_engine.solve_qp

    def spy(qp, *args):
        result = real(qp, *args)
        stops.extend(r.stop for r in result.results)
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(opt_engine, "solve_qp", spy)
        result = refine_trajectories(plan, sc, iterations=iterations, log=messages.append)
    assert result.ok and len(result.rows) >= min(iterations, 2)
    # "iteration k: N QPs: ..."
    solved = sum(int(m.split(": ")[1].split()[0]) for m in messages if " QPs: " in m)
    return stops, solved


def round_calls(name, iterations, monkeypatch):
    """Each refinement round of the named scenario as (the (programs,
    pieces, widest piece's faces) of each of its solve_qp calls, in order,
    and its log line on its QPs)."""
    sc = ScenarioSpec.load(os.path.join(SCENARIO_DIR, f"{name}.json"))
    plan = solve_discrete(sc).postprocessed()
    real = opt_engine.solve_qp
    rounds, shapes = [], []

    def spy(qp, *args):
        shapes.append((len(qp.x0), qp.space.pieces, widest(qp)))
        return real(qp, *args)

    def log(msg):
        if " QPs: " in msg:
            rounds.append((list(shapes), msg))
            shapes.clear()

    monkeypatch.setattr(opt_engine, "solve_qp", spy)
    result = refine_trajectories(plan, sc, iterations=iterations, log=log)
    monkeypatch.undo()
    assert result.ok and len(result.rows) == iterations
    return rounds


class TestSmoothingBatch:
    """The smoothing programs of several robots as one SmoothingBatch."""

    def test_robot_solves_alike_alone_and_in_any_batch(self, wall_round_zero, wall_splines):
        # bit for bit: the curve, the objective, the objective's constant f0
        # and its scale sigma at the start point.  Every batch holds its
        # robots' whole round-zero face lists, whose pieces all have 20
        # faces, so every batch pads to the same 20 rows per piece
        robots = list(range(8))
        seen = {i: [] for i in robots}
        for order in (robots, robots[::-1], robots[5:], robots[:5], *([i] for i in robots)):
            batch = full_batch(wall_round_zero, order, wall_splines)
            assert widest(batch) == 20 and len(batch.cells) == len(order) * 24 * 20
            result = solve_qp(batch)
            f0, sigma = opt_engine._start_objective(
                batch.H, batch.Z, batch.x0, np.zeros_like(batch.x0), batch.start
            )
            for t, i in enumerate(order):
                x = result.results[t].x
                seen[i].append((x, batch.instance(t).objective(x), f0[t], sigma[t]))
        for i in robots:
            alone = seen[i][-1]
            for other in seen[i]:
                assert all(np.array_equal(a, b) for a, b in zip(other, alone, strict=True))

    def test_bundled_programs_stop_as_converged(self, wall_plan, wall_round_zero, monkeypatch):
        # every program closes its duality gap: none ends by breakdown or
        # stall, on the wall's round zero and on two other scenarios' plans,
        # in every solve_qp call of a round
        wall = fitted_coefficients(straight_lines(*wall_plan), *wall_round_zero[4:6])
        _, calls = solve_robots(wall_round_zero, list(range(8)), monkeypatch, wall)
        (batch, result), *_ = calls
        assert isinstance(batch, opt_engine.SmoothingBatch) and len(result.results) == 8
        for _, r in calls:
            assert [x.stop for x in r.results] == ["converged"] * len(r.results)
            assert r.iterations == sum(x.iterations for x in r.results)
        # what a benchmark tracer reads of a solve_qp call: every robot's 24
        # pieces of 10 control points, with the faces that can bind of its
        # 20 slots
        width = widest(batch)
        assert width <= 20
        assert batch.A_eq.shape[0] + batch.A_in.shape[0] == 8 * 24 * width * 10
        assert result.polished is False
        monkeypatch.undo()
        for name, iterations in (("handover_3", 3), ("pillars_6", 2)):
            stops, count = plan_stops(name, iterations)
            assert set(stops) == {"converged"} and len(stops) >= count, name

    def test_steps_do_not_depend_on_the_scale_of_h(self, wall_plan, wall_round_zero, monkeypatch):
        # each objective is divided by its value at the start point, so the
        # interior point sees the same data whatever the scale of H
        durations, weights = wall_round_zero[2], wall_round_zero[6]
        straight = fitted_coefficients(straight_lines(*wall_plan), *wall_round_zero[4:6])
        _, calls = solve_robots(wall_round_zero, list(range(8)), monkeypatch, straight)
        (batch, want), *_ = calls
        for factor in (1e-4, 1e4):
            space = opt_engine.SmoothingSpace(batch.H * factor, batch.Z, batch.space.pieces)
            got = solve_qp(dataclasses.replace(batch, space=space))
            for g, w in zip(got.results, want.results, strict=True):
                assert g.iterations == w.iterations
                assert curve_cost(g.x, durations, weights) == pytest.approx(
                    curve_cost(w.x, durations, weights), rel=1e-6
                )

    def test_hovering_robot_stops_as_converged(self):
        # start == goal: the optimum is the robot resting in place, of cost
        # zero, where no gap is small relative to the objective
        here = np.array([1.0, 2.0, 1.5])
        box = ConvexPolyhedron(np.vstack([np.eye(3), -np.eye(3)]), np.concatenate([here + 1, 1 - here]))
        durations = [0.5] * 4
        hover = fallback_trajectory(np.tile(here, (5, 1)), durations, 9, 4)
        inputs = ([here], [here], durations, *face_list([[box] * 4]), 9, 4, WEIGHTS)
        for out in (
            full_programs(*inputs),
            optimize_trajectory(*inputs, fitted_coefficients([hover], 9, 4)),
        ):
            (traj, cost, result), = out
            assert result.stop == "converged"
            assert np.abs(traj.control_points() - here).max() <= 1e-8
            assert cost <= 1e-9

    def test_warm_start_reaches_the_cold_optimum_in_fewer_steps(
        self, wall_plan, wall_round_zero, monkeypatch
    ):
        # the wall's round-one programs, started from the coefficients of
        # the round-zero optima (as refinement does) and from coefficients
        # 0.  The objectives are flat: double precision resolves a robot's
        # cost to about 1e-5 relative, and the set cost to about 1e-7
        plan, sc = wall_plan
        robots = list(range(8))
        straight = fitted_coefficients(straight_lines(plan, sc), sc.degree, sc.continuity)
        out, _ = solve_robots(wall_round_zero, robots, coefficients=straight)
        corridors = build_corridors(np.stack([traj.points for traj, _, _ in out]), sc)
        inputs = (*wall_round_zero[:3], corridors, *wall_round_zero[4:])
        cold, cold_calls = solve_robots(inputs, robots, monkeypatch)
        round_zero = np.array([result.c for _, _, result in out])
        warm, warm_calls = solve_robots(inputs, robots, monkeypatch, round_zero)
        assert [r.stop for r in cold_calls[0][1].results + warm_calls[0][1].results] == ["converged"] * 16
        cold_cost, warm_cost = (sum(out[1] for out in outs) for outs in (cold, warm))
        assert warm_cost == pytest.approx(cold_cost, rel=1e-6)
        for c, w in zip(cold, warm):
            assert w[1] == pytest.approx(c[1], rel=1e-5)
        steps = [[r.iterations for r in calls[0][1].results] for calls in (cold_calls, warm_calls)]
        assert sum(steps[1]) < 0.8 * sum(steps[0]) and max(steps[1]) <= max(steps[0])

    def test_warm_start_outside_the_corridor_still_solves(self, wall_plan, wall_round_zero):
        # a start curve whose middle waypoints sit 2 m off: it has the
        # program's knots, rest ends and continuity, but leaves the corridor
        plan, sc = wall_plan
        corridors = wall_round_zero[3].polyhedra
        robots = [0, 5]
        bent = plan.waypoints.copy()
        bent[:, 1:-1, 1] += 2.0
        bent = straight_lines(dataclasses.replace(plan, waypoints=bent), sc)
        for i in robots:
            points = bent[i].control_points()
            assert max(poly.max_violation(p) for poly, p in zip(corridors[i], points)) > 1.0
        warm, _ = solve_robots(
            wall_round_zero, robots, coefficients=fitted_coefficients(bent, sc.degree, sc.continuity)
        )
        cold, _ = solve_robots(wall_round_zero, robots)
        for w, c in zip(warm, cold):
            assert w[2].stop == "converged"
            assert w[1] == pytest.approx(c[1], rel=1e-4)

    def test_batch_agrees_with_the_general_solver(self, wall_round_zero, monkeypatch):
        # each instance as a QuadraticProgram with explicit sparse rows,
        # solved by solve_qp's general path; the optimal faces are flat, so
        # the curves' costs agree far closer than their control points
        durations, weights = wall_round_zero[2], wall_round_zero[6]
        out, calls = solve_robots(wall_round_zero, [0, 2, 6], monkeypatch)
        ((batch, result),) = calls
        for t, got in enumerate(result.results):
            qp = batch.instance(t)
            want = solve_qp(qp)
            assert out[t][1] == pytest.approx(curve_cost(want.x, durations, weights), rel=1e-6)
            assert np.abs(got.x - want.x).max() <= 1e-3
            assert (qp.A_in @ got.x - qp.b_in).max() <= 1e-6

    def test_face_products_match_each_instance(self, wall_round_zero, monkeypatch):
        _, calls = solve_robots(wall_round_zero, [1, 2], monkeypatch)
        batch = calls[0][0]
        program = opt_engine._FacesProgram(batch, np.ones(2))
        rng = np.random.default_rng(3)
        x = rng.normal(size=batch.x0.shape)
        z = rng.normal(size=(2, batch.A_in.shape[0] // 2))
        rows_x = opt_engine._face_rows(program.faces, x)
        rows_t = opt_engine._face_rows_t(program.normals, z, program.points)
        for t in range(2):
            rows = batch.instance(t).A_in
            assert np.allclose(rows_x[t], rows @ x[t], rtol=1e-13, atol=1e-12)
            assert np.allclose(rows_t[t], rows.T @ z[t], rtol=1e-13, atol=1e-12)
            assert np.array_equal(batch.b_in[t], batch.instance(t).b_in)
        assert batch.A_in.shape == (2 * rows.shape[0], batch.x0.size)

    def test_newton_bands_match_dense_assembly(self, wall_round_zero, monkeypatch):
        _, calls = solve_robots(wall_round_zero, list(range(8)), monkeypatch)
        batch = calls[0][0]
        T = batch.x0.shape[0]
        rng = np.random.default_rng(7)
        w = rng.uniform(0.1, 10.0, size=(T, batch.A_in.shape[0] // T))
        rows = (batch.instance(t).A_in.toarray() for t in range(T))
        # each instance's objective scale multiplies its H, in the band and
        # in the Hessian product
        scale = 10.0 ** rng.uniform(-8.0, 8.0, size=T)
        program = opt_engine._FacesProgram(batch, scale)
        H, Z = batch.H.toarray(), batch.Z.toarray()
        assert_bands_match_dense(program, [s * H for s in scale], rows, Z, w)
        c = rng.normal(size=batch.start.shape)
        want = scale[:, None] * (c @ (Z.T @ H @ Z))
        assert (np.abs(program.hess(c) - want).max(axis=1) <= 1e-12 * np.abs(want).max(axis=1)).all()

    def test_infeasible_robot_fails_alone(self, wall_round_zero):
        starts, goals, durations, corridors, *rest = wall_round_zero
        # robot 3's piece 4 demands x below the workspace box it must also
        # stay in
        broken = dataclasses.replace(corridors, offsets=corridors.offsets.copy())
        f = first_face(corridors, 3, 4)
        broken.offsets[f] = -corridors.offsets[f + 3] - 1.0
        inputs = (starts, goals, durations, broken, *rest)
        out, _ = solve_robots(inputs, list(range(8)))
        want, _ = solve_robots(wall_round_zero, list(range(8)))
        assert isinstance(out[3], QPInfeasibleError)
        for i in range(8):
            if i != 3:
                assert np.array_equal(out[i][2].x, want[i][2].x)

    def test_padding_moves_a_narrower_robot_only_within_tolerance(
        self, wall_round_zero, wall_splines, monkeypatch
    ):
        # the wall's round zero as refinement solves it, with lazy faces.
        # The batch pads every piece to the most faces any of its pieces
        # keeps, and the padded rows enter each program's duality measure:
        # a robot whose widest piece is the batch's runs the rows it runs
        # alone and gets its alone answer bit for bit; any other robot's
        # cost agrees
        robots = list(range(8))
        together, calls = solve_robots(wall_round_zero, robots, monkeypatch, wall_splines)
        monkeypatch.undo()
        ((batch, _),) = calls
        cells = np.bincount(batch.cells @ (24, 1), minlength=8 * 24).reshape(8, 24)
        assert batch.A_in.shape[0] == 8 * 24 * cells.max() * 10
        full = cells.max(axis=1) == cells.max()
        assert full.any() and not full.all()
        for i in robots:
            (alone,) = solve_robots(wall_round_zero, [i], coefficients=wall_splines)[0]
            if full[i]:
                assert np.array_equal(together[i][2].x, alone[2].x) and together[i][1] == alone[1]
            else:
                assert together[i][1] == pytest.approx(alone[1], rel=1e-9)

    def test_slacks_match_a_loop_over_robots(self, wall_plan, wall_round_zero):
        # the slacks of the whole face list in one pass equal, bit for bit,
        # those of each robot's own range of it over its own points
        plan, sc = wall_plan
        corridors = wall_round_zero[3]
        cells, normals, offsets = corridors.cells, corridors.normals, corridors.offsets
        optima = [traj for traj, _, _ in solve_robots(wall_round_zero, list(range(8)))[0]]
        for curves in (straight_lines(plan, sc), optima):
            points = np.stack([curve.points for curve in curves])
            want = []
            for t, p in enumerate(points):
                f = cells[:, 0] == t
                pts = p[cells[f, 1]].swapaxes(-1, -2)
                want.append(offsets[f] - (normals[f, None] @ pts)[:, 0].max(axis=-1))
            assert np.array_equal(bezier_opt._slacks(cells, normals, offsets, points), np.concatenate(want))

    def test_face_list_is_checked(self, wall_round_zero, wall_splines):
        batch = full_batch(wall_round_zero, [0, 1], wall_splines)
        cells, normals, offsets = batch.cells, batch.normals, batch.offsets
        for message, faces in (
            ("sorted", dict(cells=cells[::-1], normals=normals[::-1], offsets=offsets[::-1])),
            ("range", dict(cells=np.vstack([cells, [2, 0]]), normals=np.vstack([normals, normals[:1]]),
                           offsets=np.append(offsets, 1.0))),
            ("range", dict(cells=np.vstack([[-1, 0], cells]), normals=np.vstack([normals[:1], normals]),
                           offsets=np.append(1.0, offsets))),
            ("range", dict(cells=np.vstack([cells, [1, 24]]), normals=np.vstack([normals, normals[:1]]),
                           offsets=np.append(offsets, 1.0))),
            ("need cells", dict(normals=normals[:-1])),
            ("need cells", dict(offsets=offsets[:-1])),
        ):
            with pytest.raises(ValueError, match=message):
                dataclasses.replace(batch, **faces)

    @pytest.mark.parametrize(
        "name, shape", [("wall_windows_8", (8, 24, 20)), ("pillars_6", (6, 22, 75))]
    )
    def test_a_round_is_one_batch(self, name, shape, monkeypatch):
        # every robot has one slot per workspace side, per obstacle box and
        # per other robot on every piece.  Each round's programs are one
        # solve_qp call that holds every robot with the faces that can bind,
        # at most all of them; a further call holds only the robots solved
        # again
        robots, pieces, faces = shape
        rounds = round_calls(name, 2, monkeypatch)
        assert len(rounds) == 2
        for (first, *again), line in rounds:
            assert first[:2] == (robots, pieces) and first[2] <= faces
            solved_again = int(re.search(r"(\d+) solved again$", line).group(1))
            assert (again[0][0] if again else 0) == solved_again
            assert all(n <= solved_again and p == pieces and f <= faces for n, p, f in again)

    def test_lazy_faces_reach_the_full_program(self, wall_plan, wall_round_zero, monkeypatch):
        # with only the faces within 0.05 of the round-zero start kept, every
        # robot is solved again, and still each one's curve is the optimum
        # of its program with every face (_LAZY_FACE_SLACK infinite) within
        # the solver's tolerance, and meets every face of its corridor
        wall = fitted_coefficients(straight_lines(*wall_plan), *wall_round_zero[4:6])
        polyhedra = wall_round_zero[3].polyhedra
        robots = list(range(8))
        monkeypatch.setattr(bezier_opt, "_LAZY_FACE_SLACK", math.inf)
        full, calls = solve_robots(wall_round_zero, robots, monkeypatch, wall)
        assert len(calls) == 1 and widest(calls[0][0]) == 20
        monkeypatch.setattr(bezier_opt, "_LAZY_FACE_SLACK", 0.05)
        lazy, calls = solve_robots(wall_round_zero, robots, monkeypatch, wall)
        assert len(calls) >= 2 and widest(calls[0][0]) < 20
        for i, (got, want) in enumerate(zip(lazy, full)):
            assert got[2].stop == "converged" and got[2].passes >= 2
            assert want[2].passes == 1 and want[2].faces == 24 * 20 > got[2].faces
            # the steps of every solve
            assert got[2].iterations > calls[0][1].results[i].iterations
            assert got[1] == pytest.approx(want[1], rel=1e-6)
            points = got[0].control_points()
            assert max(poly.max_violation(p) for poly, p in zip(polyhedra[i], points)) <= 1e-6

    def test_lazy_passes_write_identical_artifacts(self, tmp_path, monkeypatch):
        # two plans whose robots are solved again, with faces within 0.05 of
        # each round's start kept, write the same files byte for byte, and
        # every second solve, started outside its new faces, meets them
        monkeypatch.setattr(bezier_opt, "_LAZY_FACE_SLACK", 0.05)
        real = opt_engine.solve_qp
        calls = []

        def spy(qp, *args):
            calls.append(len(qp.x0))
            return real(qp, *args)

        monkeypatch.setattr(opt_engine, "solve_qp", spy)
        scenario = os.path.join(SCENARIO_DIR, "wall_windows_8.json")
        outs = [tmp_path / name for name in ("first", "second")]
        for out in outs:
            args = ["plan", "--scenario", scenario, "--out", str(out), "--iterations", "2"]
            assert cli_main(args) == 0
        # two plans of two rounds, each round solving robots again
        assert len(calls) >= 8
        assert artifact_differences(*outs) == []
        with open(outs[0] / "refine_report.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [row["failed_count"] for row in rows] == ["0", "0"]

    def test_robots_solved_again_restart_from_their_start(self, monkeypatch):
        # with faces within 0.05 of each round's start kept, pillars_6's
        # robots are solved again, each from its own start: every program
        # converges, no robot fails, and every round costs what it costs
        # with faces within 1 m kept (where no robot is solved again)
        sc = ScenarioSpec.load(os.path.join(SCENARIO_DIR, "pillars_6.json"))
        plan = solve_discrete(sc).postprocessed()
        real = opt_engine.solve_qp

        def refine(slack):
            stops = []

            def spy(qp, *args):
                result = real(qp, *args)
                stops.extend(getattr(r, "stop", "failed") for r in result.results)
                return result

            monkeypatch.setattr(bezier_opt, "_LAZY_FACE_SLACK", slack)
            monkeypatch.setattr(opt_engine, "solve_qp", spy)
            return stops, refine_trajectories(plan, sc, iterations=3).rows

        lazy_stops, lazy = refine(0.05)
        full_stops, full = refine(1.0)
        assert len(lazy_stops) > len(full_stops)
        assert set(lazy_stops) == {"converged"}
        assert [row["failed_count"] for row in lazy] == [0, 0, 0]
        for got, want in zip(lazy, full, strict=True):
            assert got["cost"] == pytest.approx(want["cost"], rel=1e-6)
