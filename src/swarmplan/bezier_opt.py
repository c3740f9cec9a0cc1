"""Piecewise Bezier trajectories and the per-robot smoothing program.

Each robot's trajectory is one polynomial piece per plan segment, written
in the Bernstein basis.  That basis gives two properties the planner
leans on: the curve stays inside the convex hull of its control points,
so linear constraints on control points confine the whole curve to a
safe corridor, and endpoint derivatives are short difference expressions
of the leading or trailing control points, so smoothness across pieces
is a sparse set of equalities.  Minimizing an integral of squared
derivatives subject to those constraints is a convex QP per robot.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sparse

from . import opt_engine
from .opt_engine import QuadraticProgram


@lru_cache(maxsize=None)
def bernstein_to_monomial(degree, duration):
    """Matrix taking Bernstein control values to monomial coefficients.

    Row m holds the coefficient of t**m contributed by each control
    value, for a piece parameterized over [0, duration].
    """
    d = degree
    tau = float(duration)
    out = np.zeros((d + 1, d + 1))
    for i in range(d + 1):
        for m in range(i, d + 1):
            out[m, i] = (
                math.comb(d, i)
                * math.comb(d - i, m - i)
                * (-1.0) ** (m - i)
                / tau**m
            )
    return out


@lru_cache(maxsize=None)
def monomial_derivative_cost(degree, order, duration):
    """Gram matrix of the squared order-th derivative over one piece.

    Entry (i, j) is the integral of the product of the order-th
    derivatives of t**i and t**j over [0, duration].
    """
    d = degree
    c = order
    tau = float(duration)
    out = np.zeros((d + 1, d + 1))
    for i in range(c, d + 1):
        for j in range(c, d + 1):
            fi = math.perm(i, c)
            fj = math.perm(j, c)
            p = i + j - 2 * c
            out[i, j] = fi * fj * tau ** (p + 1) / (p + 1)
    return out


@lru_cache(maxsize=None)
def bernstein_gram(degree):
    """Matrix of pairwise basis product integrals over [0, 1]."""
    m = degree
    out = np.empty((m + 1, m + 1))
    for i in range(m + 1):
        for j in range(m + 1):
            out[i, j] = (
                math.comb(m, i)
                * math.comb(m, j)
                / ((2 * m + 1) * math.comb(2 * m, i + j))
            )
    return out


@lru_cache(maxsize=None)
def control_point_cost(degree, duration, weights):
    """Weighted sum of squared-derivative costs in control-value form."""
    b = bernstein_to_monomial(degree, duration)
    q = np.zeros((degree + 1, degree + 1))
    for c, w in enumerate(weights, start=1):
        if w > 0:
            q += w * monomial_derivative_cost(degree, c, duration)
    h = b.T @ q @ b
    return 0.5 * (h + h.T)


def endpoint_derivative_row(degree, order, duration, at_start):
    """Coefficients over control values giving an endpoint derivative.

    The order-th derivative at a piece boundary is a scaled finite
    difference of the first (or last) order+1 control values.
    """
    row = np.zeros(degree + 1)
    factor = math.perm(degree, order) / float(duration) ** order
    for r in range(order + 1):
        sign = (-1.0) ** (order - r)
        coeff = factor * sign * math.comb(order, r)
        if at_start:
            row[r] = coeff
        else:
            row[degree - order + r] = coeff
    return row


@lru_cache(maxsize=None)
def _binomials(degree):
    """comb(m, i) for m, i in 0..degree (zero where i > m)."""
    return np.array(
        [[math.comb(m, i) for i in range(degree + 1)] for m in range(degree + 1)],
        dtype=float,
    )


def bernstein_basis(degree, s):
    """Bernstein basis values comb(m, i) s^i (1 - s)^(m - i) at s in [0, 1].

    degree and s broadcast against each other; the result gains a last
    axis i = 0..max(degree), zero where i > m, so curves of different
    degrees can share one zero-padded stack of control points.  At s = 0
    and s = 1 the basis is exactly a unit vector, so a curve's endpoints
    come out as its first and last control points.
    """
    m = np.asarray(degree)[..., None]
    s = np.asarray(s, dtype=float)[..., None]
    top = int(m.max(initial=0))
    i = np.arange(top + 1)
    return _binomials(top)[m, i] * s**i * (1.0 - s) ** np.maximum(m - i, 0)


def stacked_points(pieces, order=0):
    """Control points of each piece's order-th derivative, zero-padded to
    the highest degree: ((pieces, degree + 1, dim) points, (pieces,) degrees).
    """
    pts = [p.derivative_points(order) for p in pieces]
    degrees = np.array([len(q) - 1 for q in pts])
    out = np.zeros((len(pts), degrees.max() + 1, pts[0].shape[1]))
    for k, q in enumerate(pts):
        out[k, : len(q)] = q
    return out, degrees


@dataclass
class BezierPiece:
    """One polynomial piece: control points (degree + 1, dim)."""

    duration: float
    points: np.ndarray

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.duration = float(self.duration)
        if self.duration <= 0:
            raise ValueError("piece duration must be positive")

    @property
    def degree(self):
        return self.points.shape[0] - 1

    def derivative_points(self, order=1):
        """Control points of the derivative curve (degree drops by order)."""
        pts = self.points
        tau = self.duration
        for k in range(order):
            d = pts.shape[0] - 1
            if d == 0:
                return np.zeros((1, pts.shape[1]))
            pts = (d / tau) * (pts[1:] - pts[:-1])
        return pts

    def evaluate(self, t, order=0):
        return self.evaluate_many(np.atleast_1d(t), order)[0]

    def evaluate_many(self, ts, order=0):
        pts = self.derivative_points(order)
        s = np.asarray(ts, dtype=float) / self.duration
        return bernstein_basis(len(pts) - 1, s) @ pts


@dataclass
class PiecewiseBezierTrajectory:
    """Consecutive Bezier pieces forming one robot trajectory."""

    pieces: list

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("trajectory needs at least one piece")
        self.knots = np.concatenate([[0.0], np.cumsum([p.duration for p in self.pieces])])

    @property
    def duration(self):
        return float(self.knots[-1])

    @property
    def dim(self):
        return self.pieces[0].points.shape[1]

    def _locate(self, ts):
        ts = np.clip(np.asarray(ts, dtype=float), 0.0, self.duration)
        idx = np.searchsorted(self.knots, ts, side="right") - 1
        idx = np.clip(idx, 0, len(self.pieces) - 1)
        return idx, ts - self.knots[idx]

    def evaluate(self, t, order=0):
        return self.evaluate_many(np.atleast_1d(t), order)[0]

    def evaluate_many(self, ts, order=0):
        idx, local = self._locate(ts)
        pts, degrees = stacked_points(self.pieces, order)
        durations = np.array([p.duration for p in self.pieces])
        basis = bernstein_basis(degrees[idx], local / durations[idx])
        # the basis stops at the highest degree sampled; beyond it the
        # sampled pieces' points are padding
        return np.einsum("ji,jid->jd", basis, pts[idx, : basis.shape[1]])

    def cost(self, weights):
        # integrate in the Bernstein basis of each derivative curve:
        # differencing first keeps the values near the size of the
        # result, where the monomial quadratic form would cancel away
        # six digits on smooth curves
        total = 0.0
        for p in self.pieces:
            for c, w in enumerate(weights, start=1):
                if w > 0:
                    dp = p.derivative_points(c)
                    g = bernstein_gram(dp.shape[0] - 1)
                    total += w * p.duration * float(np.einsum("id,ij,jd->", dp, g, dp))
        return total

    def scaled(self, factor):
        """Uniform time dilation; the path is unchanged, derivatives of
        order c shrink by factor**-c."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return PiecewiseBezierTrajectory(
            [BezierPiece(p.duration * factor, p.points.copy()) for p in self.pieces]
        )

    def save_csv(self, path):
        """One row per piece: duration, then monomial coefficients of each
        axis on local time (ascending powers), 17 significant digits."""
        degree = self.pieces[0].degree
        header = ["duration"]
        for axis in "xyz":
            header += [f"c{axis}{m}" for m in range(degree + 1)]
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(header)
            for p in self.pieces:
                basis = bernstein_to_monomial(p.degree, p.duration)
                coeffs = basis @ p.points
                row = [f"{p.duration:.17g}"]
                for axis in range(3):
                    row += [f"{v:.17g}" for v in coeffs[:, axis]]
                writer.writerow(row)

    @classmethod
    def load_csv(cls, path):
        pieces = []
        with open(path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader)
            if (len(header) - 1) % 3:
                raise ValueError(f"malformed trajectory header in {path}")
            degree = (len(header) - 1) // 3 - 1
            for rec in reader:
                tau = float(rec[0])
                vals = np.array([float(v) for v in rec[1:]])
                coeffs = vals.reshape(3, degree + 1).T
                basis = bernstein_to_monomial(degree, tau)
                points = np.linalg.solve(basis, coeffs)
                pieces.append(BezierPiece(tau, points))
        return cls(pieces)


@lru_cache(maxsize=None)
def _rest_to_rest_profile(degree, continuity, duration, weights):
    """Scalar Bernstein control values going 0 to 1 with derivatives
    1..continuity zero at both ends, minimizing the weighted cost.

    The first and last continuity+1 control values are pinned by the
    rest conditions; any middle values are free and found by solving the
    reduced normal equations.
    """
    d, c = degree, continuity
    values = np.zeros(d + 1)
    values[d - c :] = 1.0
    free = list(range(c + 1, d - c))
    if free:
        h = control_point_cost(d, duration, weights)
        fixed = [i for i in range(d + 1) if i not in free]
        hff = h[np.ix_(free, free)]
        hfc = h[np.ix_(free, fixed)]
        rhs = -hfc @ values[fixed]
        values[free] = np.linalg.solve(hff + 1e-12 * np.eye(len(free)), rhs)
    return values


def fallback_trajectory(waypoints, durations, degree, continuity, weights):
    """Straight-line trajectory through the waypoints, at rest at every
    knot.

    Every piece follows the same scalar ramp between its endpoints, so
    all robots using this construction share one velocity profile and
    inherit the waypoint plan's safety margins along the segments.
    """
    waypoints = np.asarray(waypoints, dtype=float)
    pieces = []
    for k in range(waypoints.shape[0] - 1):
        tau = float(durations[k])
        ramp = _rest_to_rest_profile(degree, continuity, tau, tuple(weights))
        a, b = waypoints[k], waypoints[k + 1]
        pieces.append(BezierPiece(tau, a[None, :] + ramp[:, None] * (b - a)[None, :]))
    return PiecewiseBezierTrajectory(pieces)


def boundary_rows(start, goal, durations, degree, continuity):
    """Equality rows over the stacked control points of all pieces.

    Three rows (one per axis) per condition: the curve starts at start and
    ends at goal at rest through derivative order continuity, and at every
    knot the derivatives of orders 0..continuity of the two pieces agree.
    Returns (A_eq, b_eq) with A_eq a CSR matrix.
    """
    d = int(degree)
    c = int(continuity)
    width = (d + 1) * 3
    last = len(durations) - 1
    zero = np.zeros(3)
    # (piece, coefficients) terms of each condition, and its right-hand side
    terms = []
    rhs = []
    for piece, at_start, point in ((0, True, start), (last, False, goal)):
        for order in range(c + 1):
            row = endpoint_derivative_row(d, order, durations[piece], at_start)
            terms.append([(piece, row)])
            rhs.append(np.asarray(point, dtype=float) if order == 0 else zero)
    for k in range(last):
        for order in range(c + 1):
            terms.append(
                [
                    (k, endpoint_derivative_row(d, order, durations[k], False)),
                    (k + 1, -endpoint_derivative_row(d, order, durations[k + 1], True)),
                ]
            )
            rhs.append(zero)
    entries = [
        (i, p * width + 3 * r, v)
        for i, cond_terms in enumerate(terms)
        for p, row in cond_terms
        for r, v in enumerate(row)
        if v != 0.0
    ]
    cond, first_col, coeff = map(np.array, zip(*entries))
    axis = np.arange(3)
    a_eq = sparse.csr_matrix(
        (
            np.repeat(coeff, 3),
            ((3 * cond[:, None] + axis).ravel(), (first_col[:, None] + axis).ravel()),
        ),
        shape=(3 * len(terms), len(durations) * width),
    )
    return a_eq, np.concatenate(rhs)


def optimize_trajectory(
    start,
    goal,
    durations,
    corridors,
    degree,
    continuity,
    weights,
):
    """Minimum-cost trajectory through a corridor sequence.

    The robot starts at rest at start, ends at rest at goal, keeps
    derivatives continuous through order continuity at the knots, and
    every piece stays inside its corridor because all its control points
    do.  Returns (trajectory, objective, x) with x the QP solution: the
    control points of every piece, stacked.

    Raises QPInfeasibleError when the corridors admit no such curve.
    """
    durations = [float(t) for t in durations]
    num_pieces = len(durations)
    if len(corridors) != num_pieces:
        raise ValueError("need one corridor per piece")
    d = int(degree)
    c = int(continuity)
    width = (d + 1) * 3
    n = num_pieces * width

    h = np.zeros((n, n))
    for k, tau in enumerate(durations):
        hk = np.kron(control_point_cost(d, tau, tuple(weights)), np.eye(3))
        h[k * width : (k + 1) * width, k * width : (k + 1) * width] = 2.0 * hk

    a_eq, b_eq = boundary_rows(start, goal, durations, d, c)

    in_rows = []
    in_rhs = []
    for k, poly in enumerate(corridors):
        if poly.num_faces == 0:
            continue
        base = k * width
        # one row per (face, control point): face normal against that
        # point's 3 coordinates
        rows_per_face = d + 1
        total = poly.num_faces * rows_per_face
        data = np.repeat(poly.A, rows_per_face, axis=0).ravel()
        cols = (
            base
            + np.tile(np.arange(width).reshape(rows_per_face, 3), (poly.num_faces, 1))
        ).ravel()
        indptr = np.arange(0, 3 * total + 1, 3)
        in_rows.append(sparse.csr_matrix((data, cols, indptr), shape=(total, n)))
        in_rhs.append(np.repeat(poly.b, rows_per_face))
    a_in = sparse.vstack(in_rows, format="csr") if in_rows else None
    b_in = np.concatenate(in_rhs) if in_rhs else None

    # snap weights at sub-second pieces push |H| to ~1e9; the minimizer is
    # scale-free (g = 0), so normalize and let the solver see O(1) data
    h_scale = float(np.abs(h).max())
    if h_scale > 0:
        h /= h_scale

    # the knot rows carry factors up to d!/(d-c)!/tau^c; scaled to a unit
    # largest coefficient, their residual floors at the rounding of the
    # positions instead, and the solver's residuals then measure how far it
    # has converged
    unit = 1.0 / abs(a_eq).max(axis=1).toarray().ravel()
    qp = QuadraticProgram(
        H=h,
        g=np.zeros(n),
        A_eq=sparse.diags(unit) @ a_eq,
        b_eq=unit * b_eq,
        A_in=a_in,
        b_in=b_in,
    )
    result = opt_engine.solve_qp(qp)
    x = result.x

    # The refinement loop treats an inaccurate answer the same as an
    # infeasible one, so fail loudly rather than return a sloppy curve.
    scale = max(1.0, float(np.abs(b_eq).max()))
    if np.abs(a_eq @ x - b_eq).max() > 1e-6 * scale:
        raise opt_engine.QPInfeasibleError("smoothing QP returned an inaccurate solution")
    if a_in is not None and (a_in @ x - b_in).max() > 1e-6:
        raise opt_engine.QPInfeasibleError("smoothing QP violated a corridor face")

    pieces = []
    for k, tau in enumerate(durations):
        pts = x[k * width : (k + 1) * width].reshape(d + 1, 3)
        pieces.append(BezierPiece(tau, pts))
    traj = PiecewiseBezierTrajectory(pieces)
    # report the cost integral evaluated on the curve itself; the QP's
    # own objective value carries the Hessian's conditioning
    return traj, traj.cost(weights), x
