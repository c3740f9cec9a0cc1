"""Shared numerical core: convex QP, max flow, and binary ILP solvers.

The QP solver is one Mehrotra predictor-corrector interior-point method,
run by one driver (_solve) for every solve_qp call, on a batch of
programs that share H and Z.  A QP is solved over the coordinates c of
its affine set x = x0 + Z c, so only inequality rows remain; its Newton
matrix Z'(H + A_in' W A_in)Z is symmetric positive definite and is
factored as it is, with a banded Cholesky in natural order, and solved
once per step, with no regularization and no iterative refinement.

A QuadraticProgram runs as a batch of one (_GeneralProgram): equality
rows give it a dense orthonormal null-space basis Z and a full band, and
its Newton matrix is formed by sparse products at every step.  The
per-robot smoothing QPs of a refinement round come as one SmoothingBatch
(_FacesProgram): one SmoothingSpace (H and one banded Z, a B-spline
basis) for every robot, and rows that each apply one corridor face to
one control point.  The faces come as one list sorted by robot and
piece; the batch pads each piece's rows with empty rows to the most
faces of any of its pieces, a layout no other module sees.  Its
products work piece by piece as small dense matmuls; its Newton
matrices are one 3x3 block per control point, carried to the band by a
map that the SmoothingSpace builds once, with its check of H, for every
batch that shares it.

Each instance's band gets its own factorization, so an instance stops on
its own and gets the answer it gets alone.  Each starts from its own
point (c = 0 for a QuadraticProgram, the robot's start curve in a
refinement round), with its objective divided by its value there, and
stops once its duality gap is small relative to its objective and its
rows hold to a small fraction of their scale.  Late in a run the barrier
weights of the tight and the slack rows spread past what the Cholesky
can factor; an instance whose factorization fails there, with its
residuals at their floor and its gap within _IPM_BREAKDOWN_GAP, has
converged.  Programs whose best iterate misses the tolerance are
classified by HiGHS LPs (_highs): a feasibility LP for infeasibility and
a recession LP for unboundedness.  solve_qp_batch runs a batch of small
programs one solve_qp at a time; no planner stage calls it.

Max flow is scipy's csgraph routine on unit-capacity networks, and only
its value is returned.  A binary
ILP with at most _ROOT_LP_MAX_COLUMNS columns starts from its root LP
relaxation, solved to the end by HiGHS' dual simplex: the small
time-expanded flow programs have an integral vertex there, which is
returned as is.  A fractional root, or a larger program, goes to HiGHS'
branch and cut, with symmetry detection off: the flow programs end at
the root, so its result goes unused.  Both need vertex solutions and
certified bounds, which an interior point on a degenerate flow polytope
does not provide.  Every HiGHS call is one _highs call, straight to the
HiGHS binding inside scipy (scipy.optimize._highspy._core, private to
scipy and stable at its pinned version), without the per-column Python
of scipy's linprog and milp wrappers.  With symmetry detection off too,
on a 2-core machine, the 16-robot two-layer wall's discrete stage fell
from a median of 0.123 s to 0.079 s over 12 benchmark runs a side, and
the 48-robot wall's from 1.33-1.44 s to 0.95-1.07 s, with every plan
unchanged.

The binding is loaded by itself (_load_highs_binding), not by an import
statement: importing it as scipy.optimize._highspy._core first runs
scipy/optimize/__init__.py, which loads linprog's interior point with
scipy.fft and scipy.special, shgo with scipy.spatial, and much more that
no stage calls.  On a 2-core machine that took a fresh `import
swarmplan.cli` from a median of 0.69 s to 0.48 s (7 runs a side), the
16-robot two-layer wall's benchmark set-up from 0.53 s to 0.34 s, and
every process's peak RSS down by about 14 MB.  The module is registered
under its full name, so a later import of scipy.optimize shares it.
"""

from __future__ import annotations

import copy
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np
import scipy
import scipy.sparse as sp
from scipy.linalg import null_space
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import maximum_flow


def _load_highs_binding():
    """HiGHS' binding inside scipy, loaded by itself.

    An import statement would run scipy/optimize/__init__.py first, which
    loads much of scipy that no stage calls.  The module is registered in
    sys.modules under its full name before it runs, so a later import of
    scipy.optimize reuses this object, and an earlier one's object is
    reused here: a pybind11 module loaded twice would register its types
    twice.
    """
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(scipy.__path__[0], "optimize", "_highspy")]
    )
    if spec is None:
        raise ImportError(f"{name} not found: swarmplan needs scipy>=1.17, found {scipy.__version__}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_highspy = _load_highs_binding()


class SolverError(Exception):
    """Base class for solver failures."""


class QPInfeasibleError(SolverError):
    """The QP constraints admit no solution."""


class QPUnboundedError(SolverError):
    """The QP objective is unbounded below on the feasible set."""


class QPMaxIterationsError(SolverError):
    """The interior point's best iterate missed the tolerance, and neither
    an infeasibility nor an unboundedness certificate was found."""

    def __init__(self, message, primal_residual, dual_residual):
        super().__init__(message)
        self.primal_residual = primal_residual
        self.dual_residual = dual_residual


class ILPInfeasibleError(SolverError):
    """No binary assignment satisfies the constraints."""


class ILPBudgetExceededError(SolverError):
    """The branch-and-cut search reached its node limit."""


# ---------------------------------------------------------------------------
# problem containers
# ---------------------------------------------------------------------------


def _as_matrix(a, n, name):
    if a is None or (not sp.issparse(a) and np.size(a) == 0):
        return np.zeros((0, n))
    a = a.tocsr() if sp.issparse(a) else np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[1] != n:
        raise ValueError(f"{name} has {a.shape[1]} columns, expected {n}")
    return a


def _as_vector(b, m, name):
    if b is None:
        b = np.zeros(0)
    b = np.atleast_1d(np.asarray(b, dtype=float)).ravel()
    if b.shape[0] != m:
        raise ValueError(f"{name} has length {b.shape[0]}, expected {m}")
    return b


def _check_psd(H):
    """Raise if H is not symmetric PSD within 1e-8 relative tolerance: H +
    1e-8 max(|H|, 1) I must factor as every Newton step does, by one banded
    Cholesky (LAPACK dpbtrf) in natural order, as wide as H's pattern."""
    H = sp.csr_matrix(H)
    h_norm = abs(H).max()
    if h_norm and abs(H - H.T).max() > 1e-8 * h_norm:
        raise ValueError("H is not symmetric")
    h = sp.triu(H + 1e-8 * max(h_norm, 1.0) * sp.identity(H.shape[0])).tocoo()
    band = np.zeros((np.max(h.col - h.row, initial=0) + 1, H.shape[0]), order="F")
    band[h.col - h.row, h.row] = h.data
    if dpbtrf(band, lower=1, overwrite_ab=1)[1]:
        raise ValueError("H is not positive semidefinite")


@dataclass
class QuadraticProgram:
    """min 0.5 x'Hx + g'x  s.t.  x = x0 + Z c for some c,  A_in x <= b_in.

    The affine set is given either as (Z, x0) or as A_eq x = b_eq, not
    both; equality rows become an orthonormal basis Z of their null space
    and the least-squares point x0.  With neither, x is free.  H must be
    symmetric positive semidefinite (within 1e-8 relative); a sparse H is
    kept as CSR, a dense one as an array.
    """

    H: object
    g: np.ndarray
    A_eq: object = None
    b_eq: object = None
    A_in: object = None
    b_in: object = None
    Z: object = None
    x0: object = None

    def __post_init__(self):
        self.H = self.H.tocsr() if sp.issparse(self.H) else np.asarray(self.H, dtype=float)
        if self.H.ndim != 2 or self.H.shape[0] != self.H.shape[1]:
            raise ValueError("H must be square")
        n = self.H.shape[0]
        self.g = _as_vector(self.g, n, "g")
        self.A_eq = _as_matrix(self.A_eq, n, "A_eq")
        self.b_eq = _as_vector(self.b_eq, self.A_eq.shape[0], "b_eq")
        self.A_in = _as_matrix(self.A_in, n, "A_in")
        self.b_in = _as_vector(self.b_in, self.A_in.shape[0], "b_in")
        if self.Z is not None and self.A_eq.shape[0]:
            raise ValueError("give the affine set as A_eq or as (Z, x0), not both")
        if self.A_eq.shape[0]:
            a_eq = self.A_eq.toarray() if sp.issparse(self.A_eq) else self.A_eq
            self.Z = null_space(a_eq)
            self.x0 = np.linalg.lstsq(a_eq, self.b_eq, rcond=None)[0]
        elif self.Z is None:
            self.Z = sp.identity(n)
        self.Z = sp.csr_matrix(self.Z)
        if self.Z.shape[0] != n:
            raise ValueError(f"Z has {self.Z.shape[0]} rows, expected {n}")
        self.x0 = _as_vector(np.zeros(n) if self.x0 is None else self.x0, n, "x0")

    @property
    def n(self):
        return self.H.shape[0]

    def check_psd(self):
        """Raise if H is not symmetric PSD within 1e-8 relative tolerance."""
        _check_psd(self.H)

    def objective(self, x):
        return 0.5 * float(x @ (self.H @ x)) + float(self.g @ x)


@dataclass
class QPResult:
    x: np.ndarray
    c: np.ndarray  # x's coordinates in its affine set: x = x0 + Z c
    iterations: int
    primal_residual: float
    dual_residual: float
    duals: np.ndarray  # stacked [eq; in] multipliers, eq only for A_eq rows
    stop: str  # why the interior point stopped: see _IPM_STALL
    # set by bezier_opt.optimize_trajectory for a robot's smoothing program:
    # the corridor faces its last solve carried, and its solves (iterations
    # sums their steps, stop is the last one's)
    faces: int = 0
    passes: int = 1


@dataclass(frozen=True)
class _Shape:
    shape: tuple


class SmoothingSpace:
    """What every program of a SmoothingBatch shares: H (n, n), Z (n, r),
    n being 3 times the number of control points of the given number of
    pieces, and the fixed parts of their Newton step (_newton_maps).  H is
    checked to be symmetric PSD, and the maps are built, once, here: a
    caller that keeps one space for many batches, such as a plan's
    refinement rounds, pays for them once.  The arrays are shared and must
    not be modified."""

    def __init__(self, H, Z, pieces):
        self.H = sp.csr_matrix(H)
        self.Z = sp.csr_matrix(Z)
        self.pieces = int(pieces)
        n = self.H.shape[0]
        if self.H.shape != (n, n) or self.Z.shape[0] != n or self.pieces < 1 or n % (3 * self.pieces):
            raise ValueError("need H (n, n) and Z (n, r), n a multiple of 3 times the pieces")
        _check_psd(self.H)
        self.ZT = self.Z.T.tocsr()
        self.H_red, self.band_shape, self.const, self.to_band = _newton_maps(self.H, self.Z)


@dataclass
class SmoothingBatch:
    """T programs  min 0.5 x'Hx  s.t.  x = x0 + Z c for some c, whose rows
    are each one corridor face applied to one control point.

    x stacks the control points of the space's P pieces, q points of 3
    coordinates per piece, point by point.  space, a SmoothingSpace, holds
    H (n, n) and Z (n, r), shared by the batch; x0 is (T, n).  The faces
    come as a list sorted by instance and piece, as a CorridorSet holds
    them: face f, normals[f] . p <= offsets[f], binds every control point
    p of instance cells[f, 0]'s piece cells[f, 1].  start (T, r) holds the
    coordinates c each instance's interior point starts from; they need
    not satisfy its rows.

    The batch lays the rows out itself: each piece's faces in list order,
    padded to F, the most faces of any piece of the batch, with the empty
    row 0 . p <= 1; instance t's row (k, j, f) is its piece k's face f
    applied to point j.  The solver runs over that padded layout, whose
    rows enter each instance's duality measure, so an instance gets the
    answer it gets alone bit for bit when its widest piece is the batch's,
    and within the solver's tolerance otherwise.
    """

    space: SmoothingSpace
    x0: np.ndarray
    cells: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray
    start: np.ndarray

    def __post_init__(self):
        self.x0 = np.atleast_2d(np.asarray(self.x0, dtype=float))
        self.cells = np.asarray(self.cells, dtype=int).reshape(-1, 2)
        self.normals = np.asarray(self.normals, dtype=float)
        self.offsets = np.asarray(self.offsets, dtype=float)
        self.start = np.asarray(self.start, dtype=float)
        T, n = self.x0.shape
        P = self.space.pieces
        if self.H.shape != (n, n):
            raise ValueError("the space's H and Z must match x0's (T, n)")
        if self.start.shape != (T, self.Z.shape[1]):
            raise ValueError("start must be (T, r), r being Z's columns")
        F = len(self.cells)
        if self.normals.shape != (F, 3) or self.offsets.shape != (F,):
            raise ValueError("need cells (F, 2), normals (F, 3) and offsets (F,)")
        if ((self.cells < 0) | (self.cells >= (T, P))).any():
            raise ValueError("a face names an instance or a piece out of range")
        key = self.cells @ (P, 1)
        if (np.diff(key) < 0).any():
            raise ValueError("faces must be sorted by instance and piece")
        # each face's place among its piece's faces
        rank = np.arange(F) - np.searchsorted(key, key)
        t, k = self.cells.T
        self._normals = np.zeros((T, P, rank.max(initial=-1) + 1, 3))
        self._normals[t, k, rank] = self.normals
        self._offsets = np.ones(self._normals.shape[:3])
        self._offsets[t, k, rank] = self.offsets

    @property
    def H(self):
        return self.space.H

    @property
    def Z(self):
        return self.space.Z

    @property
    def points(self):
        """Control points per piece."""
        return self.x0.shape[1] // (3 * self.space.pieces)

    @property
    def b_in(self):
        """The right-hand sides of each instance's rows, (T, P q F)."""
        T, P, F = self._offsets.shape
        return np.broadcast_to(self._offsets[:, :, None], (T, P, self.points, F)).reshape(T, -1)

    @property
    def A_eq(self):
        """The shape of the (empty) equality rows on the stacked x (T n)."""
        return _Shape((0, self.x0.size))

    @property
    def A_in(self):
        """The shape of every instance's rows stacked, on the stacked x
        (T n).  The rows are applied piece by piece (_face_rows) and are
        never built as one matrix; instance(t) builds one instance's."""
        return _Shape((self._offsets.size * self.points, self.x0.size))

    def instance(self, t):
        """Instance t as a QuadraticProgram with explicit sparse rows, the
        padded ones included, in the batch's row order."""
        T, P, F, _ = self._normals.shape
        q, n = self.points, self.x0.shape[1]
        # row (k, j, f) has face f's normal in point (k, j)'s 3 columns
        point = np.arange(P * q).reshape(P, q, 1, 1)
        cols = np.broadcast_to(3 * point + np.arange(3), (P, q, F, 3))
        data = np.broadcast_to(self._normals[t][:, None], cols.shape)
        rows = sp.csr_matrix(
            (data.ravel(), cols.ravel(), np.arange(0, cols.size + 1, 3)), shape=(P * q * F, n)
        )
        return QuadraticProgram(
            self.H, np.zeros(n), A_in=rows, b_in=self.b_in[t], Z=self.Z, x0=self.x0[t]
        )


@dataclass
class QPBatchResult:
    """solve_qp's answer for a SmoothingBatch: per instance its QPResult, or
    the SolverError that classifies its failure."""

    results: list
    iterations: int  # interior-point steps, summed over the instances
    polished: bool = False


# row slack within which a binary point satisfies its ILP
_ILP_FEAS_TOL = 1e-6


@dataclass
class BinaryILP:
    """max c'z  s.t.  A_eq z = b_eq,  A_in z <= b_in,  z binary."""

    c: np.ndarray
    A_eq: object = None
    b_eq: object = None
    A_in: object = None
    b_in: object = None

    def __post_init__(self):
        self.c = np.atleast_1d(np.asarray(self.c, dtype=float)).ravel()
        n = self.c.shape[0]
        self.A_eq = _as_matrix(self.A_eq, n, "A_eq")
        self.b_eq = _as_vector(self.b_eq, self.A_eq.shape[0], "b_eq")
        self.A_in = _as_matrix(self.A_in, n, "A_in")
        self.b_in = _as_vector(self.b_in, self.A_in.shape[0], "b_in")

    @property
    def n(self):
        return self.c.shape[0]

    def feasible(self, z):
        z = np.asarray(z, dtype=float)
        if self.A_eq.shape[0] and np.abs(self.A_eq @ z - self.b_eq).max() > _ILP_FEAS_TOL:
            return False
        if self.A_in.shape[0] and (self.A_in @ z - self.b_in).max() > _ILP_FEAS_TOL:
            return False
        return True


@dataclass
class ILPResult:
    z: np.ndarray
    objective: float
    nodes: int


@dataclass
class FlowNetwork:
    """Directed unit-capacity network."""

    num_vertices: int
    edges: np.ndarray  # (E, 2) integer array of (tail, head)
    source: int
    sink: int

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=np.intp).reshape(len(self.edges), 2)
        if np.any(self.edges[:, 0] == self.edges[:, 1]):
            raise ValueError("self loops are not allowed")
        if np.any((self.edges < 0) | (self.edges >= self.num_vertices)):
            raise ValueError("edge endpoint out of range")
        if self.source == self.sink:
            raise ValueError("source and sink must differ")


# ---------------------------------------------------------------------------
# interior-point QP solver
# ---------------------------------------------------------------------------

_IPM_MAX_ITER = 100
# Why an instance's interior point stopped (QPResult.stop).  Its best
# iterate is the answer in every case, and the KKT tolerance decides
# whether it is accepted.  Every constant here assumes an objective of
# about unit size: solve_qp divides each program's objective by its
# absolute value at the start point (_objective_scale) before _ipm runs.
#   "converged": its residuals are at their floor, _IPM_RES times the
#     rounding level of its data (machine epsilon times the largest of |g|
#     and |b_in|), its primal residual is also at most _IPM_PRIMAL of the
#     scale of its rows (the largest of |A_in x|, |s| and |b_in|), and its
#     duality gap s'z is at most _IPM_GAP of its objective, or the square
#     root of its duality measure is at that floor too (an optimum of
#     zero, such as a robot hovering in place, has no
#     relative gap).  The relative gap does not depend on the scale of
#     H, where a residual stop would.  This is how the bundled
#     scenarios' smoothing programs end (all 48 of a wall_windows_8 plan).
#     The Cholesky of its Newton matrix can fail just short of that gap:
#     the barrier weights z/s of the tight and the slack rows spread past
#     what double precision can factor.  An instance whose factorization
#     fails with its residuals at the floor and its gap at most
#     _IPM_BREAKDOWN_GAP of its objective has converged too.  Without that
#     rule robot 21 of wall_windows_48's round 0 ends by breakdown at step
#     35, its residuals at 0.002 of their floor and its gap at 1.5e-12 of
#     its objective, with the same answer.  The primal rule is what bounds
#     the rows at a stop: a start of low cost (a robot's current curve)
#     makes |g| / sigma and so the floor large, up to 2.8e-3 on pillars_6
#     and 6.9e-4 on wall_windows_8, far past the KKT tolerance.  The
#     converged instances of those plans hold their rows to at most 6e-9
#     of their scale, so the rule does not bind there; with no rows the
#     scale is 0 and it holds trivially.
#   "breakdown": the Cholesky failed at any other iterate.
#   "stall": the largest of its residuals and the square root of its
#     duality measure has not improved for _IPM_STALL steps.
#   "max_iter": _IPM_MAX_ITER steps.
#   "nonfinite": its residual overflowed.
_IPM_STALL = 8
_IPM_RES = 1e3
_IPM_GAP = 1e-12
_IPM_BREAKDOWN_GAP = 1e-10
_IPM_PRIMAL = 1e-8
# The start: each slack is its row's distance b_in - A_in x from the start
# point x, and at least _IPM_SLACK_FLOOR, or _IPM_VIOL times the point's
# largest violation when that is more; each multiplier is _IPM_MU0 over its
# slack.  A start inside its rows, such as a robot's current curve in its
# new corridor, so keeps its distances to the faces.  A start far outside
# them gets slacks of the size of its violation, as in Mehrotra's shift:
# slacks pinned at the floor there start with huge multipliers, and small
# general programs then lose their centering and stall.
_IPM_SLACK_FLOOR = 1e-3
_IPM_VIOL = 1.5
_IPM_MU0 = 1e-2
# a recession direction must lower the objective by more than this (relative
# to |g|) to count as an unboundedness certificate
_CERT_TOL = 1e-9


def _norm(v):
    """Largest absolute entry along the last axis (0 when it is empty)."""
    return np.abs(v).max(axis=-1, initial=0.0)


def _largest(*values):
    return reduce(np.maximum, values)


def _objective_scale(value):
    """sigma per instance: the absolute value of its objective at the point
    its interior point starts from, or 1 where that is 0 or not finite (a
    robot hovering in place).  Dividing the objective by sigma gives every
    program an objective of about unit size at its start, which _ipm's
    constants and _accept's eps_abs assume, whatever the scale of its H."""
    value = np.abs(value)
    return np.where(np.isfinite(value) & (value > 0.0), value, 1.0)


def _max_step(v, dv):
    """Largest step in [0, 1] per instance that keeps v + step * dv
    nonnegative, for a positive v."""
    return 1.0 / np.maximum(1.0, -(dv / v).min(axis=-1, initial=-1.0))


def _apply(M, v):
    """M times each row of v, for a sparse M."""
    return (M @ v.T).T


def _face_rows(faces, x):
    """Each face of faces (T, P, 3, F), the normals as columns, applied to
    each control point of x (T, n): (T, P q F), rows by piece, then point,
    then face."""
    T, P = faces.shape[:2]
    return (x.reshape(T, P, -1, 3) @ faces).reshape(T, -1)


def _face_rows_t(normals, z, points):
    """The transpose of _face_rows, with normals (T, P, F, 3), for pieces
    of the given number of control points: for each point, its rows'
    z-weighted face normals summed, as (T, n)."""
    T, P, F, _ = normals.shape
    return (z.reshape(T, P, points, F) @ normals).reshape(T, -1)


def _pair_products(M, rows_a, rows_b):
    """Every pair (nonzero of row rows_a[k], nonzero of row rows_b[k]) of
    the CSR matrix M: returns k and the two nonzeros' positions in M.data."""
    count = np.diff(M.indptr)
    ca, cb = count[rows_a], count[rows_b]
    per = ca * cb
    k = np.repeat(np.arange(len(rows_a)), per)
    local = np.arange(k.size) - np.repeat(np.cumsum(per) - per, per)
    return k, M.indptr[rows_a][k] + local // cb[k], M.indptr[rows_b][k] + local % cb[k]


def _newton_maps(H, Z):
    """The fixed parts of a SmoothingBatch's Newton step, for H (n, n) and
    Z (n, r), n being 3 times the number of control points.

    The x-space part of the Newton matrix is one 3x3 block per control
    point p: its entries (3p + a, 3p + b), numbered 9p + 3a + b.  An
    x-space entry (i, j) adds Z_ik Z_jl to the reduced entry (k, l).
    Returns Z'HZ, the band's shape (r, bandwidth + 1), the band's constant
    part Z'HZ flattened in that shape, and the map to_band from the
    x-space entries to the flattened band.
    """
    H_red = (Z.T @ H @ Z).tocsr()
    r = Z.shape[1]
    point, a, b = np.meshgrid(np.arange(Z.shape[0] // 3), np.arange(3), np.arange(3), indexing="ij")
    entry, zi, zj = _pair_products(Z, (3 * point + a).ravel(), (3 * point + b).ravel())
    k, l = Z.indices[zi], Z.indices[zj]
    upper = k <= l
    h = sp.triu(H_red).tocoo()
    bw = int(max(np.max(l[upper] - k[upper], initial=0), np.max(h.col - h.row, initial=0)))

    def band_index(i, j):
        # entry (i, j), i <= j, is stored as (j, i) of the lower triangle,
        # at ab[j - i, i]; ab is column-major
        return i * (bw + 1) + j - i

    to_band = sp.csr_matrix(
        ((Z.data[zi] * Z.data[zj])[upper], (band_index(k, l)[upper], entry[upper])),
        shape=(r * (bw + 1), 9 * point.shape[0]),
    )
    const = np.bincount(band_index(h.row, h.col), weights=h.data, minlength=r * (bw + 1))
    return H_red, (r, bw + 1), const, to_band


class _BandedNewton:
    """A batch of programs over the coordinates c of their affine sets
    x = x0 + Z c, sharing H and Z, whose Newton matrices
    Z'(H + A_in' W A_in)Z are banded in natural order.

    A subclass is built with scale (T,), which multiplies each instance's
    H, and sets H (Z'HZ), ZT (Z' as CSR) and scale.  It supplies
    ineq(c) = A_in Z c, ineq_t(z) = Z'A_in' z, bands(w): per instance its
    Newton matrix for W = diag(w[t]) in lower band storage, (bandwidth +
    1, r) with the diagonal in row 0, and rows(t): instance t's A_in Z as
    a sparse matrix.  Every product and factorization is per instance, so
    an instance's numbers do not depend on the rest of its batch.
    """

    def hess(self, c):
        return _apply(self.H, c) * self.scale[:, None]

    def newton(self, w):
        """Factor Z'(H + A_in' W A_in)Z for each instance's W = diag(w[t]),
        one banded Cholesky (LAPACK dpbtrf) each.  Returns per instance its
        factor, or None where the factorization broke down."""
        factors = []
        for band in self.bands(w):
            # the lower form: OpenBLAS threads the upper form's rank-one
            # updates, which at this size costs more than it saves (0.6
            # against 0.14 ms at n = 345 on 2 cores, and spikes of 100+ ms
            # when another process holds a core)
            chol, info = dpbtrf(band.copy(order="F"), lower=1, overwrite_ab=1)
            factors.append(chol if info == 0 else None)
        return factors

    def solve(self, factors, r):
        """Solve Z'(H + A_in' W A_in)Z dc = r[t] for each instance from its
        factor, one LAPACK dpbtrs each."""
        if not r.shape[1]:
            # LAPACK rejects an empty right-hand side: with no free
            # coordinate (one piece fixed by its rest endpoints) the step is empty
            return r
        return np.array([dpbtrs(chol, rhs, lower=1)[0] for chol, rhs in zip(factors, r)])


class _GeneralProgram(_BandedNewton):
    """One QP with general sparse rows A_in, as a batch of one.

    Each Newton step forms Z'(H + A_in' W A_in)Z by sparse products and
    scatters its upper triangle into lower band storage, whose bandwidth
    is the widest that any positive w can fill.
    """

    def __init__(self, H, A_in, Z, scale):
        self.H, self.ZT, self.scale = (Z.T @ H @ Z).tocsr(), Z.T.tocsr(), scale
        self.A = (A_in @ Z).tocsr()
        self.AT = self.A.T.tocsr()
        pattern = sp.triu(abs(self.AT) @ abs(self.A) + abs(self.H)).tocoo()
        self.bw = int(np.max(pattern.col - pattern.row, initial=0))

    def ineq(self, c):
        return _apply(self.A, c)

    def ineq_t(self, z):
        return _apply(self.AT, z)

    def bands(self, w):
        out = np.zeros((w.shape[0], self.bw + 1, self.H.shape[0]))
        for band, wt, scale in zip(out, w, self.scale):
            m = sp.triu(scale * self.H + self.AT @ sp.diags(wt) @ self.A).tocoo()
            band[m.col - m.row, m.row] = m.data
        return out

    def rows(self, t):
        return self.A


class _FacesProgram(_BandedNewton):
    """The instances of a SmoothingBatch over their coordinates c.

    Every row is one face normal applied to one control point, so the
    products run piece by piece as small dense matmuls: x = Z c, then the
    faces (T, P, F, 3) against the points (T, P, q, 3).  The x-space part
    of the Newton matrix is one 3x3 block per control point, which one
    matmul of the weights with the faces' outer products gives, and
    _newton_maps' to_band carries those blocks to the band.
    """

    def __init__(self, batch, scale):
        space = batch.space
        self.H, self.band_shape, self.const, self.to_band = (
            space.H_red, space.band_shape, space.const, space.to_band
        )
        self.Z, self.ZT = space.Z, space.ZT
        self.scale = scale
        self.batch = batch
        self.normals, self.points = batch._normals, batch.points
        self.faces = np.ascontiguousarray(self.normals.swapaxes(-1, -2))
        self.outer = (self.normals[..., :, None] * self.normals[..., None, :]).reshape(
            *self.normals.shape[:3], 9
        )

    def ineq(self, c):
        return _face_rows(self.faces, _apply(self.Z, c))

    def ineq_t(self, z):
        return _apply(self.ZT, _face_rows_t(self.normals, z, self.points))

    def bands(self, w):
        T, P, F, _ = self.normals.shape
        blocks = (w.reshape(T, P, self.points, F) @ self.outer).reshape(T, -1)
        band = self.scale[:, None] * self.const + _apply(self.to_band, blocks)
        return band.reshape(T, *self.band_shape).swapaxes(1, 2)

    def rows(self, t):
        return (self.batch.instance(t).A_in @ self.Z).tocsr()

    def take(self, keep):
        part = copy.copy(self)
        part.normals, part.faces, part.outer = self.normals[keep], self.faces[keep], self.outer[keep]
        part.scale = self.scale[keep]
        return part


def solve_qp(qp, eps_abs=1e-6, eps_rel=1e-6):
    """Solve a convex QP, or a SmoothingBatch of them, to the requested KKT
    tolerance.

    Every call runs one driver, _solve: a Mehrotra predictor-corrector
    interior point over the coordinates c of the affine set x = x0 + Z c,
    whose Newton step factors Z'(H + A_in' W A_in)Z with a banded Cholesky
    (LAPACK dpbtrf) in natural order and solves with that factor once.  A
    QuadraticProgram runs as a batch of one from c = 0, a SmoothingBatch
    as its instances from their starts.  Each instance's objective is
    first divided by sigma, its absolute value at the start (1 where it is
    0 or not finite), so the interior point's fixed constants and eps_abs
    see an objective of about unit size whatever the scale of H and g.
    The KKT tolerance applies to that scaled program; x, the duals and the
    dual residual come back for the program as given.  An instance stops
    at a small relative duality gap (see _IPM_STALL): a barrier method
    converges to a well-centered point of a flat optimal face, such as the
    smoothness objectives' near-zero eigenvalues give, without naming its
    active rows.  An instance whose best iterate misses the tolerance is
    classified by HiGHS LPs: QPInfeasibleError when the constraints admit
    no point, QPUnboundedError when a recession direction lowers the
    objective, QPMaxIterationsError otherwise.

    A QuadraticProgram's H is checked to be PSD, and inconsistent equality
    rows raise QPInfeasibleError before any iteration.  It returns a
    QPResult with the best iterate x and its coordinates c (x = x0 + Z c),
    whose equality multipliers are recovered by least squares from the
    stationarity condition, or raises its error.  A SmoothingBatch, whose SmoothingSpace has checked H,
    returns a QPBatchResult: per instance the QPResult it gets when solved
    alone, or its error, returned rather than raised.
    """
    if isinstance(qp, SmoothingBatch):
        return _solve(
            partial(_FacesProgram, qp), qp.H, qp.Z, qp.x0, np.zeros_like(qp.x0),
            qp.b_in - _face_rows(qp._normals.swapaxes(-1, -2), qp.x0), qp.start, eps_abs, eps_rel,
        )
    qp.check_psd()
    if _norm(qp.A_eq @ qp.x0 - qp.b_eq) > eps_abs + eps_rel * _norm(qp.b_eq):
        raise QPInfeasibleError("primal infeasible: the equality rows admit no point")
    H, A_in = sp.csr_matrix(qp.H), sp.csr_matrix(qp.A_in)
    (result,) = _solve(
        partial(_GeneralProgram, H, A_in, qp.Z), H, qp.Z, qp.x0[None], qp.g[None],
        (qp.b_in - A_in @ qp.x0)[None], np.zeros((1, qp.Z.shape[1])), eps_abs, eps_rel,
    ).results
    if isinstance(result, SolverError):
        raise result
    if qp.A_eq.shape[0]:
        residual = H @ result.x + qp.g + A_in.T @ result.duals
        y = np.linalg.lstsq(sp.csr_matrix(qp.A_eq).toarray().T, -residual, rcond=None)[0]
        result.duals = np.concatenate([y, result.duals])
    return result


def _start_objective(H, Z, x0, g, start):
    """Per instance, for the objective 0.5 x'Hx + g[t]'x: f0, its value at
    x0[t] (its constant over c), and sigma (_objective_scale) from its
    value at the start point x0[t] + Z start[t].  Each is summed over its
    own C-contiguous row, so it does not depend on the batch."""

    def objective(x):
        x = np.ascontiguousarray(x)
        return (x * np.ascontiguousarray(0.5 * _apply(H, x) + g)).sum(axis=1)

    return objective(x0), _objective_scale(objective(x0 + _apply(Z, start)))


def _solve(program, H, Z, x0, g, b, start, eps_abs, eps_rel):
    """solve_qp for T programs  min 0.5 x'Hx + g[t]'x  over x = x0[t] + Z c
    subject to rows A_t x <= b_in[t], with b[t] = b_in[t] - A_t x0[t] and
    the interior point starting from c = start[t].  program(scale) builds
    their _BandedNewton with each objective multiplied by scale[t]."""
    f0, sigma = _start_objective(H, Z, x0, g, start)
    program = program(1.0 / sigma)
    g = _apply(program.ZT, _apply(H, x0) + g)
    scaled_g = g / sigma[:, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        c, z, steps, stops = _ipm(program, scaled_g, b, start, f0 / sigma)
        ok, r_prim, r_dual = _accept(program, scaled_g, b, c, z, eps_abs, eps_rel)
    x = x0 + _apply(Z, c)
    z = z * sigma[:, None]
    r_dual = r_dual * sigma
    results = [
        QPResult(x[t], c[t], int(steps[t]), float(r_prim[t]), float(r_dual[t]), z[t], str(stops[t]))
        if ok[t] else _failure(
            program.H, program.rows(t), g[t], b[t], float(r_prim[t]), float(r_dual[t]),
            steps[t], stops[t],
        )
        for t in range(len(x))
    ]
    return QPBatchResult(results, int(steps.sum()))


def _accept(program, g, b_in, x, z, eps_abs, eps_rel):
    """Per instance: whether (x, z) meets the KKT stopping rule, and the
    primal and dual residuals."""
    ax = program.ineq(x)
    r_prim = _norm(np.maximum(ax - b_in, 0.0))
    hx = program.hess(x)
    atz = program.ineq_t(z)
    r_dual = _norm(hx + g + atz)
    eps_p = eps_abs + eps_rel * _largest(_norm(ax), _norm(b_in), _norm(np.minimum(ax, b_in)))
    eps_d = eps_abs + eps_rel * _largest(_norm(hx), _norm(atz), _norm(g))
    return (r_prim <= eps_p) & (r_dual <= eps_d), r_prim, r_dual


def _ipm(program, g, b_in, x, f0):
    """Mehrotra predictor-corrector on A_in x + s = b_in, s >= 0, for the
    objective 0.5 x'Hx + g'x + f0.

    Solves a batch of programs at once: arrays carry the instance on their
    first axis, and program supplies the products and, per instance, the
    Newton step.  Each instance keeps its own step length, best iterate
    (by the largest of the residuals and the square root of the duality
    measure) and stop (see _IPM_STALL), and leaves the batch when it stops,
    through program.take(keep); a batch of one stops whole.  Starts from
    x (see _IPM_SLACK_FLOOR) and returns the best iterates (x, z), and per
    instance the steps it took and why it stopped.
    """
    m_in = b_in.shape[1]
    s = b_in - program.ineq(x)
    s = np.maximum(s, np.maximum(_IPM_SLACK_FLOOR, -_IPM_VIOL * s.min(axis=1, initial=0.0))[:, None])
    z = _IPM_MU0 / s

    best = [x.copy(), z.copy()]
    best_res = np.full(x.shape[0], np.inf)
    stall = np.zeros(x.shape[0], dtype=int)
    steps = np.zeros(x.shape[0], dtype=int)
    stops = np.full(x.shape[0], "max_iter", dtype=object)
    floor = _IPM_RES * np.finfo(float).eps * _largest(_norm(g), _norm(b_in))
    live = np.arange(x.shape[0])
    for _ in range(_IPM_MAX_ITER):
        hx = program.hess(x)
        r_d = hx + g + program.ineq_t(z)
        ax = program.ineq(x)
        r_in = ax + s - b_in
        gap = np.einsum("tm,tm->t", s, z)
        mu = gap / max(m_in, 1)
        resid = _largest(_norm(r_d), _norm(r_in))
        # on a degenerate face the distance to the solution shrinks like
        # sqrt(mu), not like mu
        res = _largest(resid, np.sqrt(mu))
        better = res < best_res[live]
        for kept, current in zip(best, (x, z)):
            kept[live[better]] = current[better]
        best_res[live[better]] = res[better]
        stall[live] = np.where(better, 0, stall[live] + 1)
        objective = np.abs(np.einsum("tn,tn->t", x, 0.5 * hx + g) + f0)
        primal_tol = _IPM_PRIMAL * _largest(_norm(ax), _norm(s), _norm(b_in))
        at_floor = (resid <= floor[live]) & (_norm(r_in) <= primal_tol)
        converged = at_floor & ((res <= floor[live]) | (gap <= _IPM_GAP * objective))
        # converged too if its Newton matrix does not factor
        close = at_floor & (gap <= _IPM_BREAKDOWN_GAP * objective)
        state = (x, s, z, g, b_in, f0, r_d, r_in, mu, close)
        why = np.select(
            [~np.isfinite(res), converged, stall[live] >= _IPM_STALL],
            ["nonfinite", "converged", "stall"],
            "",
        )
        live, program, state = _leave(why, stops, live, program, state)
        if not live.size:
            break
        # only the instances still running are factored
        x, s, z, g, b_in, f0, r_d, r_in, mu, close = state
        factors = program.newton(z / s)
        broken = np.array([f is None for f in factors])
        why = np.where(broken, np.where(close, "converged", "breakdown"), "")
        live, program, state = _leave(why, stops, live, program, state)
        if not live.size:
            break
        factors = [f for f in factors if f is not None]
        x, s, z, g, b_in, f0, r_d, r_in, mu, close = state

        def newton(r_cs):
            dx = program.solve(factors, -r_d - program.ineq_t((z * r_in - r_cs) / s))
            ds = -r_in - program.ineq(dx)
            dz = -(r_cs + z * ds) / s
            return dx, ds, dz

        dx, ds, dz = newton(s * z)
        s_aff = s + _max_step(s, ds)[:, None] * ds
        z_aff = z + _max_step(z, dz)[:, None] * dz
        mu_aff = np.einsum("tm,tm->t", s_aff, z_aff) / max(m_in, 1)
        sigma = np.minimum(1.0, (mu_aff / np.maximum(mu, 1e-300)) ** 3)
        dx, ds, dz = newton(s * z + ds * dz - (sigma * mu)[:, None])
        # one step length for primal and dual: with curvature in H, unequal
        # lengths leave (a_p - a_d) H dx in the dual residual, which stalls
        # degenerate separators
        step = 0.995 * np.minimum(_max_step(s, ds), _max_step(z, dz))[:, None]
        x = x + step * dx
        s = s + step * ds
        z = z + step * dz
        steps[live] += 1
    return (*best, steps, stops)


def _leave(why, stops, live, program, arrays):
    """Record the stop of each instance whose why is set and drop it from
    the batch: returns the instances still running, and the program and
    the arrays restricted to them."""
    done = why != ""
    stops[live[done]] = why[done]
    if not done.any() or done.all():
        return live[~done], program, arrays
    keep = ~done
    return live[keep], program.take(keep), tuple(v[keep] for v in arrays)


def _failure(H, A, g, b, r_prim, r_dual, iterations, stop):
    """The error that classifies a program whose best iterate missed the
    tolerance, in the coordinates c of its affine set: min 0.5 c'Hc + g'c
    subject to A c <= b."""
    r = H.shape[0]
    # with no free coordinate the program is its fixed point, which can
    # only miss its rows
    if not r or _highs(np.zeros(r), [(A, -np.inf, b)], -np.inf, np.inf)[0] == _INFEASIBLE:
        return QPInfeasibleError("primal infeasible: the constraints admit no point")
    # min g'd over recession directions of the feasible set along which the
    # objective has no curvature; a negative value is an unbounded ray
    status, ray, _ = _highs(g, [(A, -np.inf, 0.0), (H, 0.0, 0.0)], -1.0, 1.0)
    if status == _OPTIMAL and g @ ray < -_CERT_TOL * max(1.0, _norm(g)):
        return QPUnboundedError("dual infeasible: objective unbounded below along a ray")
    return QPMaxIterationsError(
        f"interior point missed tolerance after {iterations} iterations, stopped by "
        f"{stop} (primal {r_prim:.2e}, dual {r_dual:.2e})",
        r_prim,
        r_dual,
    )


def solve_qp_batch(H, g, A, b, eps_abs=1e-6, eps_rel=1e-6):
    """Solve T small QPs  min 0.5 x'Hx + g'x  s.t.  A[t] x <= b[t], one
    solve_qp each.

    H and g are shared across the batch; A has shape (T, m, n) and b has
    shape (T, m).  Returns (x, objective, status) where status[t] is one of
    "solved", "infeasible" (the feasibility LP found no point) and
    "max_iter" (any other solver failure); x[t] is 0 unless solved.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    H = np.asarray(H, dtype=float)
    g = np.asarray(g, dtype=float)
    T, _, n = A.shape
    x = np.zeros((T, n))
    status = np.full(T, "max_iter", dtype=object)
    for t in range(T):
        try:
            x[t] = solve_qp(QuadraticProgram(H, g, A_in=A[t], b_in=b[t]), eps_abs, eps_rel).x
            status[t] = "solved"
        except QPInfeasibleError:
            status[t] = "infeasible"
        except SolverError:
            pass
    obj = 0.5 * np.einsum("ti,ij,tj->t", x, H, x) + x @ g
    return x, obj, status


# ---------------------------------------------------------------------------
# max flow and binary ILPs on scipy
# ---------------------------------------------------------------------------


def max_flow(network):
    """Maximum flow value of a unit-capacity network by scipy's csgraph
    routine.  Parallel unit edges sum into one capacity."""
    tails, heads = network.edges.T
    nv = network.num_vertices
    cap = sp.csr_array(
        (np.ones(tails.size, dtype=np.int32), (tails, heads)), shape=(nv, nv)
    )
    return int(maximum_flow(cap, network.source, network.sink).flow_value)


# an LP bound within this of the target still admits it
_ILP_GAP_TOL = 1e-6
# columns up to which a program starts from its root LP, solved to the end.
# Over the tier-1 suite 560 root LPs run, with at most 2,773 columns, and
# each ends within 562 dual simplex iterations; the bundled scenarios' are
# integral after 6 (handover_3), 151 (wall_windows_8) and 423 (pillars_6),
# so their plans stay the LP vertex.  Larger programs mostly need thousands
# of iterations and end fractional, so branch and cut solves them anyway:
# the 16- and 32-robot walls' (10,101 and 37,863 columns) need 3,819 and
# 32,667.
_ROOT_LP_MAX_COLUMNS = 8192
# branch-and-cut nodes allowed per program (one candidate makespan)
_ILP_NODE_LIMIT = 20000
# HiGHS' symmetry detection runs before the root of every branch and cut.
# The flow programs' plans come from feasibility jump at the root (the
# 16-robot two-layer wall: 0 LP iterations, 1 node), so its result goes
# unused: switching it off took the 32-robot wall's discrete stage from
# 0.50-0.75 to 0.44-0.54 s, and the 48-robot wall's from 1.08-1.28 to
# 0.95-1.07 s, with every plan unchanged.  Nor does a deep search need it:
# branch and cut proved the 32-robot wall's K = 18 program infeasible in
# 41.1 s through milp with it, and in 40.0 s through _highs without
_MIP_DETECT_SYMMETRY = False

_OPTIMAL = _highspy.HighsModelStatus.kOptimal
_INFEASIBLE = _highspy.HighsModelStatus.kInfeasible
_NODE_LIMIT_REACHED = _highspy.HighsModelStatus.kSolutionLimit
_SIMPLEX_DUAL = int(_highspy.simplex_constants.SimplexStrategy.kSimplexStrategyDual)


def _highs(cost, rows, lower, upper, integral=False):
    """Minimize cost'x subject to lo <= A x <= hi for each (A, lo, hi) of
    rows, in order, and lower <= x <= upper, by one HiGHS call through its
    binding in scipy; bounds may be scalars, and A dense or sparse.

    An LP runs with linprog's settings: presolve on, dual simplex.  With
    integral every column is an integer, solved by branch and cut with
    presolve off, at most _ILP_NODE_LIMIT nodes and relative gap 0 (HiGHS
    stops at its absolute gap of 1e-6).  Returns (model status, x, nodes):
    x is the column values of an optimal status and None otherwise; nodes
    counts the branch-and-cut nodes, root included.
    """
    n = cost.size
    rows = [(sp.csr_array(A), lo, hi) for A, lo, hi in rows if A.shape[0]]
    A = sp.vstack([a for a, _, _ in rows] or [sp.csr_array((0, n))]).tocsc()
    row_lower = np.concatenate([np.zeros(0)] + [np.broadcast_to(lo, a.shape[0]) for a, lo, _ in rows])
    row_upper = np.concatenate([np.zeros(0)] + [np.broadcast_to(hi, a.shape[0]) for a, _, hi in rows])
    highs = _highspy._Highs()
    options = {"output_flag": False}
    if integral:
        options.update(
            presolve="off",
            mip_max_nodes=_ILP_NODE_LIMIT,
            mip_rel_gap=0.0,
            mip_detect_symmetry=_MIP_DETECT_SYMMETRY,
        )
    else:
        options.update(presolve="on", simplex_strategy=_SIMPLEX_DUAL)
    for key, value in options.items():
        if highs.setOptionValue(key, value) != _highspy.HighsStatus.kOk:
            raise SolverError(f"HiGHS rejected option {key} = {value!r}")
    status = highs.passModel(
        n, A.shape[0], A.nnz, int(_highspy.MatrixFormat.kColwise),
        int(_highspy.ObjSense.kMinimize), 0.0, cost,
        np.broadcast_to(lower, n), np.broadcast_to(upper, n), row_lower, row_upper,
        A.indptr.astype(np.int32), A.indices.astype(np.int32), A.data,
        np.full(n, int(integral), dtype=np.int32),
    )
    if status == _highspy.HighsStatus.kError:
        raise SolverError("HiGHS rejected the model")
    highs.run()
    model_status = highs.getModelStatus()
    x = np.array(highs.getSolution().col_value) if model_status == _OPTIMAL else None
    return model_status, x, int(highs.getInfo().mip_node_count) if integral else 0


def solve_ilp(ilp, target=None):
    """Maximize a binary ILP; with target, only an optimum >= target counts.

    A program with at most _ROOT_LP_MAX_COLUMNS columns solves its root LP
    relaxation first, to the end, with HiGHS' simplex: a vertex that is
    already integral and feasible is returned as is (1 node), and a root
    bound below target is infeasible without branching.  Otherwise, and
    for every larger program, HiGHS' branch and cut solves the program,
    with the row c'z >= target when a target is given.  A target equal to
    the largest objective any binary point reaches, the sum of the
    positive weights, forces the columns: branch and cut starts with every
    positive-weight column fixed at 1 and every negative-weight column at
    0 (in the flow programs, every robot's source arc routes it).
    Presolve stays off: on the time-expanded flow programs it costs more
    time and memory than the search it saves.  Symmetry detection is off
    too (_MIP_DETECT_SYMMETRY).  Each solve is one _highs call, straight
    to HiGHS' binding.

    Returns an ILPResult whose objective sums c over the columns at 1,
    calling no BLAS routine, and whose nodes counts the search nodes, root
    included.  Raises ILPInfeasibleError when no binary assignment (with
    objective >= target) exists and ILPBudgetExceededError when the search
    reaches _ILP_NODE_LIMIT nodes.
    """
    n = ilp.n
    if n == 0:
        # a fully presolved program is feasible exactly when its constant
        # rows already hold
        z = np.zeros(0, dtype=int)
        if ilp.feasible(z) and (target is None or target <= _ILP_GAP_TOL):
            return ILPResult(z, 0.0, 0)
        raise ILPInfeasibleError("no feasible binary assignment")
    equalities = (ilp.A_eq, ilp.b_eq, ilp.b_eq)
    inequalities = (ilp.A_in, -np.inf, ilp.b_in)
    if n <= _ROOT_LP_MAX_COLUMNS:
        # inequalities first, as linprog stacks them: with the equalities
        # first, pillars_6's root LP ends at another vertex
        status, x, _ = _highs(-ilp.c, [inequalities, equalities], 0.0, 1.0)
        if status == _INFEASIBLE:
            raise ILPInfeasibleError("LP relaxation is infeasible")
        if status != _OPTIMAL:
            raise SolverError(f"LP relaxation ended with status {status.name}")
        bound = float((ilp.c * x).sum())
        if target is not None and bound < target - _ILP_GAP_TOL:
            raise ILPInfeasibleError(f"LP bound {bound:.6g} is below target {target}")
        z = np.round(x)
        if np.abs(x - z).max() <= 1e-6 and ilp.feasible(z):
            return ILPResult(z.astype(int), float(ilp.c[z > 0].sum()), 1)

    rows = [equalities, inequalities]
    lower, upper = 0.0, 1.0
    if target is not None:
        rows.append((ilp.c[None, :], target - _ILP_GAP_TOL, np.inf))
        # only points that take every positive weight and no negative one
        # reach the sum of the positive weights
        if target >= ilp.c[ilp.c > 0].sum() - _ILP_GAP_TOL:
            lower, upper = (ilp.c > 0).astype(float), (ilp.c >= 0).astype(float)
    status, x, nodes = _highs(-ilp.c, rows, lower, upper, integral=True)
    if status == _INFEASIBLE:
        raise ILPInfeasibleError("no feasible binary assignment")
    if status == _NODE_LIMIT_REACHED:
        # mip_max_nodes is the only limit set; HiGHS reports it as a solution limit
        raise ILPBudgetExceededError(f"node limit {_ILP_NODE_LIMIT} reached")
    if status != _OPTIMAL:
        raise SolverError(f"branch and cut ended with status {status.name}")
    z = np.round(x)
    if not ilp.feasible(z):
        raise SolverError("branch and cut returned an infeasible assignment")
    return ILPResult(z.astype(int), float(ilp.c[z > 0].sum()), nodes)
