"""Piecewise Bezier trajectories and the robots' smoothing programs.

Each robot's trajectory is one polynomial piece per plan segment, written
in the Bernstein basis.  That basis keeps the curve inside the convex
hull of its control points, so linear constraints on control points
confine the whole curve to a safe corridor.  A PiecewiseBezierTrajectory
is one read-only (pieces, degree + 1, dim) array of control points with
one duration per piece; a single piece is a one-piece trajectory.  The
control points of each derivative curve form one such array too, which
the trajectory computes once per order and keeps, so every reader (cost,
corridors, validation, export) shares that one computation.

The smoothing program writes the whole curve in the coefficients of a
B-spline that is C^k at the knots by construction (de Boor, A Practical
Guide to Splines, 1978): a fixed banded map takes those coefficients to
the pieces' Bernstein control points, and the rest endpoints fix the
first and last k + 1 of them.  Minimizing an integral of squared
derivatives over the remaining coefficients, subject to the corridor rows
on the control points, is a convex QP per robot with no equality rows.
Every robot of a plan shares its Hessian and its B-spline map, so
optimize_trajectory hands the robots' programs to the solver together, as
one batch, each starting from given coefficients (its robot's last
accepted optimum, which the solver returns with it, or until then its
minimum-cost spline through its waypoints, waypoint_splines) and carrying
only the corridor faces near that start, as a face list that opt_engine
lays out for the solver; the faces left out are checked at the answers.
A curve is never turned back into coefficients.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from functools import lru_cache

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg

from . import opt_engine


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
    """The piece's cost in its control values p: p'Hp is the sum over
    orders c = 1, 2, ... of weights[c - 1] times the integral of the
    squared c-th derivative over [0, duration].

    H = sum_c w_c tau D_c' G_{d-c} D_c, with d the degree, tau the
    duration, D_c the scaled c-th forward difference that takes p to the
    control values of the c-th derivative curve (as
    PiecewiseBezierTrajectory.control_points applies it) and G_m the
    Bernstein Gram matrix of degree m (bernstein_gram).  This is the form PiecewiseBezierTrajectory.cost
    integrates; it is exact to rounding, so H annihilates constants to
    about 1e-16 of its largest entry.  Orders past the degree add 0.
    """
    d, tau = degree, float(duration)
    h = np.zeros((d + 1, d + 1))
    diff = np.eye(d + 1)
    for c, w in enumerate(weights[:d], start=1):
        diff = ((d - c + 1) / tau) * (diff[1:] - diff[:-1])
        if w > 0:
            h += w * tau * (diff.T @ bernstein_gram(d - c) @ diff)
    return 0.5 * (h + h.T)


def bernstein_basis(degree, s):
    """Bernstein basis values comb(degree, i) s^i (1 - s)^(degree - i) at
    s in [0, 1], on a new last axis i = 0..degree.  At s = 0 and s = 1
    the basis is exactly a unit vector, so a curve's endpoints come out as
    its first and last control points.
    """
    s = np.asarray(s, dtype=float)[..., None]
    i = np.arange(degree + 1)
    binomials = np.array([math.comb(degree, k) for k in i], dtype=float)
    return binomials * s**i * (1.0 - s) ** (degree - i)


class PiecewiseBezierTrajectory:
    """One robot's trajectory: consecutive Bezier pieces of one degree.

    durations (pieces,) and points (pieces, degree + 1, dim) are read-only
    copies of the arguments, so each derivative order's control points
    are differenced once, on first use, and every reader shares them.
    """

    def __init__(self, durations, points):
        durations = np.array(durations, dtype=float)
        points = np.array(points, dtype=float)
        if not durations.size:
            raise ValueError("trajectory needs at least one piece")
        if durations.ndim != 1 or points.ndim != 3 or len(points) != len(durations):
            raise ValueError("need durations (pieces,) and points (pieces, degree + 1, dim)")
        bad = [tau for tau in durations.tolist() if not 0.0 < tau < math.inf]
        if bad:
            raise ValueError(f"piece duration {bad[0]} is not finite and positive")
        if not points.shape[1]:
            raise ValueError("trajectory degree is below 0")
        with np.errstate(over="ignore"):
            self.knots = np.concatenate([[0.0], np.cumsum(durations)])
        if not math.isfinite(self.knots[-1]):
            raise ValueError(f"trajectory horizon {self.knots[-1]} is not finite")
        # a duration below the rounding of a large knot leaves its piece
        # without time, and evaluation would skip it
        flat = np.flatnonzero(self.knots[1:] <= self.knots[:-1])
        if flat.size:
            k = int(flat[0])
            raise ValueError(
                f"piece {k} of duration {float(durations[k])!r} ends at its start, "
                f"knot {float(self.knots[k])!r}"
            )
        for array in (durations, points, self.knots):
            array.flags.writeable = False
        self.durations, self.points = durations, points
        self._orders = {0: points}

    @property
    def duration(self):
        return float(self.knots[-1])

    @property
    def degree(self):
        return self.points.shape[1] - 1

    @property
    def pieces(self):
        """Each piece as a one-piece trajectory."""
        return tuple(
            PiecewiseBezierTrajectory(self.durations[k : k + 1], self.points[k : k + 1])
            for k in range(len(self.durations))
        )

    def control_points(self, order=0):
        """Control points of every piece's order-th derivative curve, read
        only: (pieces, degree + 1 - order, dim), or zeros (pieces, 1, dim)
        past the degree.  Each order is the scaled forward difference of
        the one below, computed once and kept."""
        if order not in self._orders:
            if order > self.degree:
                pts = np.zeros_like(self.points[:, :1])
            else:
                below = self.control_points(order - 1)
                d = self.degree - order + 1
                pts = (d / self.durations)[:, None, None] * (below[:, 1:] - below[:, :-1])
            pts.flags.writeable = False
            self._orders[order] = pts
        return self._orders[order]

    def _locate(self, ts):
        ts = np.clip(np.asarray(ts, dtype=float), 0.0, self.duration)
        idx = np.searchsorted(self.knots, ts, side="right") - 1
        idx = np.clip(idx, 0, len(self.durations) - 1)
        return idx, ts - self.knots[idx]

    def evaluate(self, t, order=0):
        return self.evaluate_many(np.atleast_1d(t), order)[0]

    def evaluate_many(self, ts, order=0):
        idx, local = self._locate(ts)
        basis = bernstein_basis(max(self.degree - order, 0), local / self.durations[idx])
        return np.einsum("ji,jid->jd", basis, self.control_points(order)[idx])

    def cost(self, weights):
        # integrate in the Bernstein basis of each derivative curve:
        # differencing first keeps the values near the size of the
        # result, where the monomial quadratic form would cancel away
        # six digits on smooth curves.  One product per order covers
        # every piece.
        total = 0.0
        for c, w in enumerate(weights, start=1):
            if w > 0:
                dp = self.control_points(c)
                g = bernstein_gram(dp.shape[1] - 1)
                total += w * float(np.einsum("k,kid,kid->", self.durations, dp, g @ dp))
        return total

    def scaled(self, factor):
        """Uniform time dilation; the path is unchanged, derivatives of
        order c shrink by factor**-c."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return PiecewiseBezierTrajectory(self.durations * factor, self.points)

    def save_csv(self, path):
        """One row per piece: its duration, then the x, y and z coordinates
        of its control points (x0..xd, y0..yd, z0..zd), 17 significant
        digits, so load_csv gives back the same arrays bit for bit."""
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(_csv_header(self.degree))
            for tau, points in zip(self.durations.tolist(), self.points):
                writer.writerow([f"{tau:.17g}"] + [f"{v:.17g}" for v in points.T.ravel()])

    @classmethod
    def load_csv(cls, path):
        """Read a trajectory written by save_csv.  Any other header, a row
        that does not make a piece, or pieces that do not make a
        trajectory raise ValueError naming the file (and the row)."""
        durations, points = [], []
        with open(path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader, [])
            degree = (len(header) - 1) // 3 - 1
            if degree < 0 or header != _csv_header(degree):
                raise ValueError(f"malformed trajectory header in {path}")
            for row, rec in enumerate(reader, start=2):
                try:
                    piece = np.array([float(v) for v in rec[1:]]).reshape(3, degree + 1).T
                    tau = float(rec[0])
                    if not 0.0 < tau < math.inf:
                        raise ValueError(f"piece duration {tau} is not finite and positive")
                except ValueError as exc:
                    raise ValueError(f"cannot read {path} row {row}: {exc}") from exc
                durations.append(tau)
                points.append(piece)
        try:
            return cls(durations, points)
        except ValueError as exc:
            raise ValueError(f"cannot read {path}: {exc}") from exc


def _csv_header(degree):
    return ["duration"] + [f"{axis}{i}" for axis in "xyz" for i in range(degree + 1)]


def _rest_to_rest_profile(degree, continuity):
    """Scalar Bernstein control values going 0 to 1 with derivatives
    1..continuity zero at both ends: the ramp of degree m = 2 continuity
    + 1 whose control values are continuity + 1 zeros and then as many
    ones, raised to the given degree d (Farouki & Rajan, "Algorithms for
    polynomials in Bernstein form", CAGD 1988).  Value k is

        v_k = sum_{i > continuity} C(m, i) C(d - m, k - i) / C(d, k).

    Degree elevation keeps the curve, so its end derivatives still
    vanish, and each value is a convex combination of the ramp's zeros and
    ones.  The values climb from 0 to 1, the first continuity + 1 are
    exactly 0 and the last continuity + 1 exactly 1, so a straight line's
    control polygon stays on its segment.
    """
    d, c = degree, continuity
    m = 2 * c + 1
    return np.array(
        [
            sum(math.comb(m, i) * math.comb(d - m, k - i) for i in range(c + 1, min(k, m) + 1))
            / math.comb(d, k)
            for k in range(d + 1)
        ]
    )


def fallback_trajectory(waypoints, durations, degree, continuity):
    """Straight-line trajectory through the waypoints, at rest at every
    knot.

    Every piece follows the same fixed ramp (_rest_to_rest_profile)
    between its endpoints, whatever its duration, so all robots using
    this construction share one velocity profile, their control points
    lie on their segments, and they inherit the waypoint plan's safety
    margins along the segments.
    """
    waypoints = np.asarray(waypoints, dtype=float)
    a, b = waypoints[:-1], waypoints[1:]
    ramp = _rest_to_rest_profile(degree, continuity)
    return PiecewiseBezierTrajectory(durations, a[:, None] + ramp[:, None] * (b - a)[:, None])


@lru_cache(maxsize=None)
def spline_to_bernstein(durations, degree, continuity):
    """Map from a spline's B-spline coefficients to its pieces' stacked
    Bernstein control values, for one axis.

    The spline has one piece of the given degree per duration, end knots
    of multiplicity degree + 1 and interior knots of multiplicity
    degree - continuity, so it is C^continuity at every knot.  Inserting
    each interior knot until its multiplicity is degree (Boehm's
    algorithm) leaves each piece's Bernstein control values as
    consecutive coefficients.  Returns a CSR array whose row
    k (degree + 1) + i gives control value i of piece k; each row is a
    convex combination of at most degree + 1 consecutive coefficients.
    """
    d = int(degree)
    knots = np.concatenate([[0.0], np.cumsum(durations)])
    u = np.concatenate(
        [[0.0] * (d + 1), np.repeat(knots[1:-1], d - continuity), [knots[-1]] * (d + 1)]
    )
    m = np.eye(len(u) - d - 1)
    for t in knots[1:-1]:
        for _ in range(continuity):
            # coefficient i becomes (1 - a_i) m[i - 1] + a_i m[i] for the
            # d coefficients around t; those after them shift by one
            l = np.searchsorted(u, t, side="right") - 1
            i = np.arange(l - d + 1, l + 1)
            a = ((t - u[i]) / (u[i + d] - u[i]))[:, None]
            m = np.vstack([m[: l - d + 1], (1.0 - a) * m[i - 1] + a * m[i], m[l:]])
            u = np.insert(u, l + 1, t)
    rows = (d * np.arange(len(durations))[:, None] + np.arange(d + 1)).ravel()
    return sparse.csr_array(m[rows])


@lru_cache(maxsize=16)
def _smoothing_space(durations, degree, continuity, weights):
    """The parts of the smoothing programs that every robot of a plan
    shares, built once per piece layout: an opt_engine.SmoothingSpace of
    their Hessian over the stacked control points and the map Z from the
    free B-spline coefficients to those points, with each axis interleaved
    (it checks the Hessian and builds the Newton step's fixed maps once,
    for every round of a plan); the (points, 2) weights of start and goal
    in them; and the waypoint-spline map, a CSR array (free coefficients,
    pieces + 1) from a robot's pieces + 1 waypoints to the free
    coefficients of its minimum-cost spline through them, for one axis.

    The spline is the smoothing program's curve (spline_to_bernstein, rest
    ends at the first and last waypoint) that passes through waypoint k at
    knot k and minimizes the cost, with no corridor.  Its free
    coefficients solve one equality-constrained QP, whose KKT system
    [Q G'; G 0], Q the cost over them and G the rows of the interior
    knots' positions, is factored once, sparse and single-threaded
    (SuperLU), and solved for each waypoint's column.  Q is positive
    definite over the free coefficients and G has full row rank, since
    the straight line passes any waypoints, so the system is regular; Q
    is divided by its largest entry to bring it to G's scale.  The cached
    matrices are shared: callers must not modify them."""
    d, c, pieces = degree, continuity, len(durations)
    h = sparse.block_diag([control_point_cost(d, tau, weights) for tau in durations], format="csr")
    basis = spline_to_bernstein(durations, d, c)
    free = basis[:, c + 1 : -(c + 1)]
    ends = np.column_stack([basis[:, : c + 1].sum(axis=1), basis[:, -(c + 1) :].sum(axis=1)])
    space = opt_engine.SmoothingSpace(
        sparse.kron(h, sparse.identity(3), format="csr"),
        sparse.kron(free, sparse.identity(3), format="csr"),
        pieces,
    )
    r = free.shape[1]
    if not r:
        return space, ends, sparse.csr_array((0, pieces + 1))
    # the rest ends' coefficients sit at the first and the last waypoint
    x0 = np.zeros((basis.shape[0], pieces + 1))
    x0[:, [0, -1]] = ends
    q = free.T @ h @ free
    scale = abs(q).max()
    # the first control point of piece k is the position at knot k
    at_knots = (d + 1) * np.arange(1, pieces)
    g = free[at_knots]
    kkt = sparse.block_array([[q / scale, g.T], [g, None]], format="csc")
    # the last pieces - 1 rows: each interior knot's position is its waypoint
    rhs = np.vstack([-(free.T @ h @ x0) / scale, np.eye(pieces - 1, pieces + 1, 1) - x0[at_knots]])
    return space, ends, sparse.csr_array(scipy.sparse.linalg.splu(kkt).solve(rhs)[:r])


def waypoint_splines(waypoints, durations, degree, continuity, weights):
    """Each robot's minimum-cost spline through its waypoints (robots,
    pieces + 1, 3), at rest at both ends, with the smoothing program's
    knots, degree and continuity, as its free coefficients (robots, 3 r),
    each axis interleaved as optimize_trajectory takes them.  The
    waypoint-spline map is built once per plan, with the Hessian and the
    B-spline map (_smoothing_space), and applied to every robot's
    waypoints as one sparse product, with no BLAS call."""
    durations = tuple(float(t) for t in durations)
    m = _smoothing_space(durations, int(degree), int(continuity), tuple(weights))[2]
    w = np.asarray(waypoints, dtype=float)
    coefficients = m @ w.transpose(1, 0, 2).reshape(len(durations) + 1, -1)
    return coefficients.reshape(-1, len(w), 3).transpose(1, 0, 2).reshape(len(w), -1)


# A corridor face enters a robot's first solve only where its smallest
# slack over the start point's control points is below this, in scenario
# length units; every other face is checked at the answer
# (optimize_trajectory).  The answers do not depend on it, only the work
# does: smaller values carry fewer faces but solve more robots again.
_LAZY_FACE_SLACK = 1.0
# Faces per block of _slacks.  A block gathers its cells' control points
# as one (block, q, 3) array, 2 MB at q = 10, where the whole face list
# of the 192-robot wall (about 2.1 million faces) took about 510 MB, plus
# a third of that for the product.  Every block runs the same matmul, so
# each slack is the same bit for bit whatever the block size.
_SLACK_BLOCK_FACES = 8192


def _slacks(cells, normals, offsets, points):
    """Each face's smallest slack b - a . p over the control points p of
    its cell, from the robots' points (robots, pieces, q, 3), in one pass
    over the face list, _SLACK_BLOCK_FACES faces at a time."""
    out = np.empty(len(offsets))
    for lo in range(0, len(offsets), _SLACK_BLOCK_FACES):
        block = slice(lo, lo + _SLACK_BLOCK_FACES)
        gathered = points[cells[block, 0], cells[block, 1]].swapaxes(-1, -2)
        out[block] = offsets[block] - (normals[block, None] @ gathered)[:, 0].max(-1)
    return out


def optimize_trajectory(
    starts, goals, durations, cells, normals, offsets, degree, continuity, weights, coefficients
):
    """Minimum-cost trajectories through corridor sequences, one per robot.

    Robot t starts at rest at starts[t], ends at rest at goals[t], keeps
    derivatives continuous through order continuity at the knots, and
    every piece k stays inside its corridor, because all its control points
    do.  The corridors come as a CorridorSet's face list: face f, the row
    normals[f] . x <= offsets[f], bounds robot cells[f, 0] (its index in
    starts) on piece cells[f, 1], sorted by robot and piece.  Each curve is
    a B-spline with those knots (spline_to_bernstein), whose first and last
    continuity + 1 coefficients per axis sit at the start and the goal; the
    QP runs over the other coefficients.

    coefficients holds each robot's free coefficients (robots, 3 r), r per
    axis, in the order of the solver's coordinates c (the stacked control
    points are x = x0 + Z c), from which its interior point starts; the
    start may lie outside the corridor.  refine_trajectories passes those
    its robot's last accepted answer came with (QPResult.c), or while it
    has none those of its waypoint spline (waypoint_splines).

    Most faces are slack at the optimum, so each program carries only the
    faces that can bind (Kelley's cutting planes): those whose smallest
    slack over the start curve's control points is below
    _LAZY_FACE_SLACK, found in one pass over the face list.  The robots'
    programs form one SmoothingBatch for one solve_qp call.  Every face
    left out is then checked at each answer, in one pass too, and a robot
    whose answer violates one is solved again with those faces added,
    starting from its start, until none is violated.  Its answer, outside
    the added faces, is a poor start: from there robot 3 of pillars_6
    stalled with faces within 0.05 kept.  The answer is the full
    program's: its Hessian is positive definite over the free
    coefficients, so an optimum of fewer rows that satisfies all of them
    is the optimum.  A robot's answer depends on its batch only through
    the batch's padding of its rows (SmoothingBatch), within the solver's
    tolerance.

    Returns one entry per robot, none without robots: (trajectory, cost,
    result) with cost the trajectory's cost integral and result the
    QPResult of its last solve (the stacked control points x, their free
    coefficients c and the stop), whose iterations sum the steps of its
    solves, passes counts them and faces counts the corridor faces the
    last one carried; or the SolverError its program failed with
    (QPInfeasibleError when its corridors admit no such curve).
    """
    durations = [float(t) for t in durations]
    num_pieces = len(durations)
    cells = np.asarray(cells, dtype=int).reshape(-1, 2)
    normals = np.asarray(normals, dtype=float).reshape(-1, 3)
    offsets = np.asarray(offsets, dtype=float)
    if (cells[:, 1] >= num_pieces).any():
        raise ValueError("a corridor face names a piece past the last")
    robots = len(starts)
    if not robots:
        return []
    d = int(degree)
    c = int(continuity)

    space, ends, _ = _smoothing_space(tuple(durations), d, c, tuple(weights))
    x0 = np.array([(ends @ np.vstack([s, g])).ravel() for s, g in zip(starts, goals)])
    shape = (num_pieces, d + 1, 3)
    start = np.asarray(coefficients, dtype=float)
    # each robot's start curve's control points, and then its answer's
    points = (x0 + (space.Z @ start.T).T).reshape(robots, *shape)
    kept = _slacks(cells, normals, offsets, points) < _LAZY_FACE_SLACK
    out = [None] * robots
    steps = np.zeros(robots, dtype=int)
    passes = np.zeros(robots, dtype=int)
    todo = np.arange(robots)
    while todo.size:
        mine = kept & np.isin(cells[:, 0], todo)
        batch = opt_engine.SmoothingBatch(
            space, x0[todo], np.column_stack([np.searchsorted(todo, cells[mine, 0]), cells[mine, 1]]),
            normals[mine], offsets[mine], start[todo],
        )
        for t, result in zip(todo.tolist(), opt_engine.solve_qp(batch).results):
            out[t] = result
            if isinstance(result, opt_engine.QPResult):
                points[t] = result.x.reshape(shape)
                steps[t] += result.iterations
                passes[t] += 1
        # every face of the robots solved, at their answers
        solved = [t for t in todo.tolist() if isinstance(out[t], opt_engine.QPResult)]
        faces = np.flatnonzero(np.isin(cells[:, 0], solved))
        v = -_slacks(cells[faces], normals[faces], offsets[faces], points)
        missed = faces[(v > 0.0) & ~kept[faces]]
        kept[missed] = True
        worst = np.zeros(robots)
        np.maximum.at(worst, cells[faces, 0], v)
        carried = np.bincount(cells[kept, 0], minlength=robots)
        todo = np.unique(cells[missed, 0])
        for t in np.setdiff1d(solved, todo).tolist():
            # the refinement loop treats an inaccurate answer the same as
            # an infeasible one, so fail loudly rather than return a sloppy
            # curve
            if worst[t] > 1e-6:
                out[t] = opt_engine.QPInfeasibleError("smoothing QP violated a corridor face")
                continue
            traj = PiecewiseBezierTrajectory(durations, points[t])
            # the cost integral on the curve itself: 0.5 x'Hx would cancel
            # its digits away (points near 5 m, H's entries to 3e11)
            result = dataclasses.replace(
                out[t], iterations=int(steps[t]), faces=int(carried[t]), passes=int(passes[t])
            )
            out[t] = (traj, traj.cost(weights), result)
    return out
