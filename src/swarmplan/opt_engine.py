"""Shared numerical core: convex QP, max flow, and binary ILP solvers.

The QP solver is one Mehrotra predictor-corrector interior-point method
with a Newton step shaped to the program.  A single QP (the tests' small
dense programs, the per-robot smoothing QPs) factors its KKT matrix with a
banded LU in a reverse Cuthill-McKee order; the smoothing QPs' KKT matrix
is block-banded, so the band is narrow.  A batch of small inequality-only
QPs of identical shape (the thousands of 4-variable separating-hyperplane
problems per refinement round) runs as one vectorized iteration whose
Newton step is a stacked solve of small dense systems.  Programs whose
best iterate misses the tolerance are classified by HiGHS LPs: a
feasibility LP for infeasibility and a recession LP for unboundedness.

Max flow is scipy's csgraph routine on unit-capacity networks.  Binary
ILPs start from the root LP relaxation, solved by HiGHS' simplex: the
time-expanded flow programs usually have an integral vertex there, which
is returned as is.  Only a fractional root goes on to HiGHS' branch and
cut (scipy.optimize.milp).  Both need vertex solutions and certified
bounds, which an interior point on a degenerate flow polytope does not
provide.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.sparse.csgraph import connected_components, maximum_flow, reverse_cuthill_mckee


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
    if a is None:
        return np.zeros((0, n))
    if sp.issparse(a):
        a = a.tocsr()
        if a.shape[1] != n:
            raise ValueError(f"{name} has {a.shape[1]} columns, expected {n}")
        return a
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return np.zeros((0, n))
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


@dataclass
class QuadraticProgram:
    """min 0.5 x'Hx + g'x  s.t.  A_eq x = b_eq,  A_in x <= b_in.

    H must be symmetric positive semidefinite (within 1e-8 relative).
    """

    H: np.ndarray
    g: np.ndarray
    A_eq: object = None
    b_eq: object = None
    A_in: object = None
    b_in: object = None

    def __post_init__(self):
        self.H = np.asarray(self.H, dtype=float)
        if self.H.ndim != 2 or self.H.shape[0] != self.H.shape[1]:
            raise ValueError("H must be square")
        n = self.H.shape[0]
        self.g = _as_vector(self.g, n, "g")
        self.A_eq = _as_matrix(self.A_eq, n, "A_eq")
        self.b_eq = _as_vector(self.b_eq, self.A_eq.shape[0], "b_eq")
        self.A_in = _as_matrix(self.A_in, n, "A_in")
        self.b_in = _as_vector(self.b_in, self.A_in.shape[0], "b_in")

    @property
    def n(self):
        return self.H.shape[0]

    def check_psd(self):
        """Raise if H is not symmetric PSD within 1e-8 relative tolerance.

        H is block diagonal over the connected components of its nonzero
        pattern, and it is PSD exactly when every block is, so each block
        is factored on its own.
        """
        rows, cols = np.nonzero(self.H)
        values = self.H[rows, cols]
        h_norm = np.abs(values).max(initial=0.0)
        if h_norm and np.abs(values - self.H[cols, rows]).max() > 1e-8 * h_norm:
            raise ValueError("H is not symmetric")
        shift = 1e-8 * max(h_norm, 1.0)
        pattern = sp.coo_matrix((values, (rows, cols)), shape=self.H.shape)
        count, labels = connected_components(pattern, directed=False)
        for block in range(count):
            idx = np.flatnonzero(labels == block)
            try:
                np.linalg.cholesky(self.H[np.ix_(idx, idx)] + shift * np.eye(len(idx)))
            except np.linalg.LinAlgError:
                raise ValueError("H is not positive semidefinite") from None

    def objective(self, x):
        return 0.5 * float(x @ (self.H @ x)) + float(self.g @ x)


@dataclass
class QPResult:
    x: np.ndarray
    objective: float
    iterations: int
    primal_residual: float
    dual_residual: float
    duals: np.ndarray  # stacked [eq; in] multipliers
    polished: bool  # always False: no active-set step follows the interior point


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

    def feasible(self, z, tol=1e-6):
        z = np.asarray(z, dtype=float)
        if self.A_eq.shape[0] and np.abs(self.A_eq @ z - self.b_eq).max() > tol:
            return False
        if self.A_in.shape[0] and (self.A_in @ z - self.b_in).max() > tol:
            return False
        return True


@dataclass
class ILPResult:
    z: np.ndarray
    objective: float
    nodes: int
    gap: float


@dataclass
class FlowNetwork:
    """Directed unit-capacity network."""

    num_vertices: int
    edges: list  # list of (tail, head)
    source: int
    sink: int

    def __post_init__(self):
        for t, h in self.edges:
            if t == h:
                raise ValueError("self loops are not allowed")
            if not (0 <= t < self.num_vertices and 0 <= h < self.num_vertices):
                raise ValueError("edge endpoint out of range")
        if self.source == self.sink:
            raise ValueError("source and sink must differ")


# ---------------------------------------------------------------------------
# interior-point QP solver
# ---------------------------------------------------------------------------

_IPM_MAX_ITER = 100
# the best iterate is final once the residual has not improved for
# _IPM_STALL steps: the smoothing QPs have objectives near 1e-9 after
# normalization and flat optimal faces, so any stop short of the rounding
# floor shows up directly in the trajectory cost
_IPM_STALL = 8
_KKT_DELTA = 1e-11
# a recession direction must lower the objective by more than this (relative
# to |g|) to count as an unboundedness certificate
_CERT_TOL = 1e-9


def _norm(v):
    """Largest absolute entry along the last axis (0 when it is empty)."""
    return np.abs(v).max(axis=-1, initial=0.0)


def _largest(*values):
    return reduce(np.maximum, values)


def _max_step(v, dv):
    """Largest step in [0, 1] per instance that keeps v + step * dv nonnegative."""
    ratio = np.where(dv < 0, -v / dv, 1.0)
    return np.minimum(1.0, ratio.min(axis=-1, initial=1.0))


def _apply(M, v):
    """M times each row of v, for a sparse M."""
    return (M @ v.T).T


def _kkt_solver(H, A_eq, A_in):
    """Banded LU of the quasidefinite [[H + A_in' W A_in + dI, A_eq'], [A_eq, -dI]].

    The sparsity pattern and a reverse Cuthill-McKee order of it are
    computed once.  A smoothing QP's corridor rows touch one piece and its
    continuity rows two neighbouring ones, so the reordered matrix has a
    narrow band; a dense program simply has a full one.  Returns factor(w),
    which scatters W = diag(w) into LAPACK band storage with one bincount,
    factors it with dgbtrf and returns solve(r_x, r_y) for the
    unregularized system [[H + A_in' W A_in, A_eq'], [A_eq, 0]] (x, y) =
    (r_x, r_y): two steps of iterative refinement against it remove the
    O(d) error of the regularization, so equality residuals are not floored
    at d * |y|.  Vectors carry a leading axis of length one, as in a batch
    of one program.  factor raises RuntimeError when the factorization
    breaks down.
    """
    n = H.shape[0]
    size = n + A_eq.shape[0]
    h = H.tocoo()
    e = A_eq.tocoo()
    diag = np.arange(size)
    rows = np.concatenate([h.row, diag, e.row + n, e.col])
    cols = np.concatenate([h.col, diag, e.col, e.row + n])
    vals = np.concatenate(
        [h.data, np.where(diag < n, _KKT_DELTA, -_KKT_DELTA), e.data, e.data]
    )
    # row r of A_in adds w[r] a_ri a_rj at (i, j) for each pair of its nonzeros
    A_in = A_in.tocsr()
    A_inT = A_in.T.tocsr()
    A_eqT = A_eq.T.tocsr()
    counts = np.diff(A_in.indptr)
    nz_row = np.repeat(np.arange(A_in.shape[0]), counts)
    partners = counts[nz_row]
    first = np.repeat(np.arange(nz_row.size), partners)
    offset = np.arange(first.size) - np.repeat(np.cumsum(partners) - partners, partners)
    second = A_in.indptr[nz_row[first]] + offset
    w_row = nz_row[first]
    w_coef = A_in.data[first] * A_in.data[second]
    w_i = A_in.indices[first]
    w_j = A_in.indices[second]

    all_i = np.concatenate([rows, w_i])
    all_j = np.concatenate([cols, w_j])
    pattern = sp.csr_array((np.ones(all_i.size), (all_i, all_j)), shape=(size, size))
    perm = reverse_cuthill_mckee(pattern)
    rank = np.empty(size, dtype=np.int64)
    rank[perm] = np.arange(size)
    bw = int(np.abs(rank[all_i] - rank[all_j]).max())
    ldab = 3 * bw + 1

    def band_index(i, j):
        # entry (i, j) of the reordered matrix sits at ab[2 bw + i - j, j];
        # ab is column-major, as LAPACK reads it
        return rank[j] * ldab + 2 * bw + rank[i] - rank[j]

    const = np.bincount(band_index(rows, cols), weights=vals, minlength=ldab * size)
    w_index = band_index(w_i, w_j)

    def factor(w):
        w = w[0]
        ab = const + np.bincount(w_index, weights=w_coef * w[w_row], minlength=ldab * size)
        lu, piv, info = dgbtrf(ab.reshape(size, ldab).T, bw, bw, overwrite_ab=1)
        if info != 0:
            raise RuntimeError(f"banded LU broke down (info {info})")

        def lu_solve(r):
            sol, _ = dgbtrs(lu, bw, bw, r[perm], piv)
            out = np.empty(size)
            out[perm] = sol
            return out

        def solve(r_x, r_y):
            rhs = np.concatenate([r_x[0], r_y[0]])
            sol = lu_solve(rhs)
            for _ in range(2):
                x, y = sol[:n], sol[n:]
                kx = H @ x + A_inT @ (w * (A_in @ x)) + A_eqT @ y
                sol = sol + lu_solve(rhs - np.concatenate([kx, A_eq @ x]))
            return sol[None, :n], sol[None, n:]

        return solve

    return factor


class _SparseProgram:
    """One QP with sparse data, as a batch of one: its products, and the
    banded Newton step of _kkt_solver."""

    def __init__(self, H, A_eq, A_in):
        self.H, self.A_eq, self.A_in = H, A_eq, A_in
        self.A_eqT = A_eq.T.tocsr()
        self.A_inT = A_in.T.tocsr()
        self.newton = _kkt_solver(H, A_eq, A_in)

    def hess(self, x):
        return _apply(self.H, x)

    def eq(self, x):
        return _apply(self.A_eq, x)

    def eq_t(self, y):
        return _apply(self.A_eqT, y)

    def ineq(self, x):
        return _apply(self.A_in, x)

    def ineq_t(self, z):
        return _apply(self.A_inT, z)


class _DenseBatch:
    """Inequality-only QPs with rows A (T, m, n) and a shared H: the Newton
    step is one stacked solve of (T, n, n) systems."""

    def __init__(self, H, A):
        self.H, self.A = H, A

    def hess(self, x):
        return x @ self.H.T

    def eq(self, x):
        return np.zeros((x.shape[0], 0))

    def eq_t(self, y):
        return 0.0

    def ineq(self, x):
        return (self.A @ x[:, :, None])[:, :, 0]

    def ineq_t(self, z):
        return (z[:, None, :] @ self.A)[:, 0, :]

    def newton(self, w):
        # H may be singular (the separators' offset has no curvature): d
        # keeps every system of the stack nonsingular, and two refinement
        # steps against H + A' W A, applied factor by factor, remove its
        # error and the rounding of the formed matrix, as in _kkt_solver
        M = self.H + self.A.transpose(0, 2, 1) @ (w[:, :, None] * self.A)
        M += _KKT_DELTA * np.eye(self.H.shape[0])
        good = None

        def stacked_solve(r):
            nonlocal good
            if good is None:
                try:
                    return np.linalg.solve(M, r[:, :, None])[:, :, 0]
                except np.linalg.LinAlgError:
                    det = np.linalg.det(M)
                    good = np.isfinite(det) & (det != 0)
            # a breakdown ends only its own instance, at its best iterate:
            # its step is NaN
            out = np.full(r.shape, np.nan)
            out[good] = np.linalg.solve(M[good], r[good, :, None])[:, :, 0]
            return out

        def solve(r_x, r_y):
            dx = stacked_solve(r_x)
            for _ in range(2):
                dx = dx + stacked_solve(r_x - self.hess(dx) - self.ineq_t(w * self.ineq(dx)))
            return dx, r_y

        return solve

    def take(self, keep):
        return _DenseBatch(self.H, self.A[keep])


def solve_qp(qp, eps_abs=1e-6, eps_rel=1e-6):
    """Solve a convex QP to the requested KKT tolerance.

    One method serves every QP: a Mehrotra predictor-corrector interior
    point whose Newton step factors the KKT matrix
    [[H + A_in' W A_in + dI, A_eq'], [A_eq, -dI]] with a banded LU in a
    reverse Cuthill-McKee order fixed for the call.  Equality-only programs
    take one solve through the same factorization.  The smoothness
    objectives weight derivative orders whose magnitudes differ by many
    decades, so the Hessian on the equality manifold can carry near-zero
    eigenvalues; a barrier method converges to a well-centered point of
    such a flat optimal face without naming its active rows.

    Returns a QPResult with the best iterate found.  When that iterate misses
    the tolerance, HiGHS LPs classify the program: QPInfeasibleError when
    the constraints admit no point, QPUnboundedError when a recession
    direction lowers the objective, QPMaxIterationsError otherwise.
    """
    qp.check_psd()
    n = qp.n
    H = sp.csr_matrix(qp.H)
    A_eq = sp.csr_matrix(qp.A_eq)
    A_in = sp.csr_matrix(qp.A_in)
    program = _SparseProgram(H, A_eq, A_in)
    b_eq = qp.b_eq[None]
    b_in = qp.b_in[None]
    x = np.zeros((1, n))
    y = np.zeros(b_eq.shape)
    z = np.zeros(b_in.shape)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if A_in.shape[0]:
            # start from the minimum-norm solution of the equalities
            try:
                start = _kkt_solver(sp.eye(n, format="csr"), A_eq, sp.csr_matrix((0, n)))
                x, _ = start(np.zeros((1, 0)))(np.zeros((1, n)), b_eq)
            except RuntimeError:
                pass
            x, y, z, iterations = _ipm(program, qp.g, b_eq, b_in, x)
        else:
            iterations = 1
            try:
                x, y = program.newton(np.zeros((1, 0)))(-qp.g[None], b_eq)
            except RuntimeError:
                pass
        ok, r_prim, r_dual = _accept(program, qp.g, b_eq, b_in, x, y, z, eps_abs, eps_rel)
    r_prim, r_dual = float(r_prim[0]), float(r_dual[0])
    if not ok[0]:
        _raise_failure(qp, H, A_eq, A_in, r_prim, r_dual, iterations)
    duals = np.concatenate([y[0], z[0]])
    return QPResult(x[0], qp.objective(x[0]), iterations, r_prim, r_dual, duals, False)


def _accept(program, g, b_eq, b_in, x, y, z, eps_abs, eps_rel):
    """Per instance: whether (x, y, z) meets the KKT stopping rule, and the
    primal and dual residuals."""
    ax_eq = program.eq(x)
    ax_in = program.ineq(x)
    r_prim = np.maximum(_norm(ax_eq - b_eq), _norm(np.maximum(ax_in - b_in, 0.0)))
    hx = program.hess(x)
    aty = program.eq_t(y) + program.ineq_t(z)
    r_dual = _norm(hx + g + aty)
    eps_p = eps_abs + eps_rel * _largest(
        _norm(ax_eq), _norm(ax_in), _norm(b_eq), _norm(np.minimum(ax_in, b_in))
    )
    eps_d = eps_abs + eps_rel * _largest(_norm(hx), _norm(aty), _norm(g))
    return (r_prim <= eps_p) & (r_dual <= eps_d), r_prim, r_dual


def _ipm(program, g, b_eq, b_in, x):
    """Mehrotra predictor-corrector on A_in x + s = b_in, s >= 0.

    Solves a batch of programs at once: arrays carry the instance on their
    first axis, and program supplies the products and the Newton step.
    Each instance keeps its own step length, stopping rule and best
    iterate, and leaves the batch when it stops.  Starts from x and returns
    the best iterates (x, y_eq, z_in), by the largest of the residuals and
    the square root of the duality measure, and the number of iterations
    run.
    """
    m_in = b_in.shape[1]
    s_raw = b_in - program.ineq(x)
    s = s_raw + np.maximum(0.0, -1.5 * s_raw.min(axis=1))[:, None] + 1.0
    z = np.ones(b_in.shape)
    y = np.zeros(b_eq.shape)

    best = [x.copy(), y.copy(), z.copy()]
    best_res = np.full(x.shape[0], np.inf)
    stall = np.zeros(x.shape[0], dtype=int)
    live = np.arange(x.shape[0])
    it = 0
    while it < _IPM_MAX_ITER:
        r_d = program.hess(x) + g + program.eq_t(y) + program.ineq_t(z)
        r_eq = program.eq(x) - b_eq
        r_in = program.ineq(x) + s - b_in
        mu = np.einsum("tm,tm->t", s, z) / m_in
        # on a degenerate face the distance to the solution shrinks like
        # sqrt(mu), not like mu
        res = _largest(_norm(r_d), _norm(r_eq), _norm(r_in), np.sqrt(mu))
        better = res < best_res[live]
        for kept, current in zip(best, (x, y, z)):
            kept[live[better]] = current[better]
        best_res[live[better]] = res[better]
        stall[live] = np.where(better, 0, stall[live] + 1)
        stop = ~np.isfinite(res) | (stall[live] >= _IPM_STALL)
        if stop.all():
            break
        if stop.any():
            # only a batch of several gets here: one program stops whole
            keep = ~stop
            live = live[keep]
            program = program.take(keep)
            x, y, s, z, r_d, r_eq, r_in, mu, b_eq, b_in = (
                v[keep] for v in (x, y, s, z, r_d, r_eq, r_in, mu, b_eq, b_in)
            )

        try:
            solve = program.newton(z / s)
        except RuntimeError:
            break

        def newton(r_cs):
            dx, dy = solve(-r_d - program.ineq_t((z * r_in - r_cs) / s), -r_eq)
            ds = -r_in - program.ineq(dx)
            dz = -(r_cs + z * ds) / s
            return dx, dy, ds, dz

        dx, dy, ds, dz = newton(s * z)
        s_aff = s + _max_step(s, ds)[:, None] * ds
        z_aff = z + _max_step(z, dz)[:, None] * dz
        mu_aff = np.einsum("tm,tm->t", s_aff, z_aff) / m_in
        sigma = np.minimum(1.0, (mu_aff / np.maximum(mu, 1e-300)) ** 3)
        dx, dy, ds, dz = newton(s * z + ds * dz - (sigma * mu)[:, None])
        # one step length for primal and dual: with curvature in H, unequal
        # lengths leave (a_p - a_d) H dx in the dual residual, which stalls
        # degenerate separators
        step = 0.995 * np.minimum(_max_step(s, ds), _max_step(z, dz))[:, None]
        x = x + step * dx
        s = s + step * ds
        y = y + step * dy
        z = z + step * dz
        it += 1
    return (*best, it)


def _raise_failure(qp, H, A_eq, A_in, r_prim, r_dual, iterations):
    """Classify a program whose best iterate missed the tolerance."""
    n = qp.n
    eq = A_eq if A_eq.shape[0] else None
    ineq = A_in if A_in.shape[0] else None
    feasible = linprog(
        np.zeros(n),
        A_ub=ineq,
        b_ub=qp.b_in if ineq is not None else None,
        A_eq=eq,
        b_eq=qp.b_eq if eq is not None else None,
        bounds=(None, None),
        method="highs",
    )
    if feasible.status == 2:
        raise QPInfeasibleError("primal infeasible: the constraints admit no point")
    # min g'd over recession directions of the feasible set along which the
    # objective has no curvature; a negative value is an unbounded ray
    ray = linprog(
        qp.g,
        A_ub=ineq,
        b_ub=np.zeros(A_in.shape[0]) if ineq is not None else None,
        A_eq=sp.vstack([A_eq, H]),
        b_eq=np.zeros(A_eq.shape[0] + n),
        bounds=(-1.0, 1.0),
        method="highs",
    )
    if ray.status == 0 and ray.fun < -_CERT_TOL * max(1.0, _norm(qp.g)):
        raise QPUnboundedError("dual infeasible: objective unbounded below along a ray")
    raise QPMaxIterationsError(
        f"interior point missed tolerance after {iterations} iterations "
        f"(primal {r_prim:.2e}, dual {r_dual:.2e})",
        r_prim,
        r_dual,
    )


def solve_qp_batch(H, g, A, b, eps_abs=1e-6, eps_rel=1e-6):
    """Solve T small QPs  min 0.5 x'Hx + g'x  s.t.  A[t] x <= b[t]  at once.

    H and g are shared across the batch; A has shape (T, m, n) and b has
    shape (T, m).  The method is solve_qp's interior point run over the
    whole batch, with one stacked (T, n, n) solve per Newton step.  An
    instance whose best iterate misses the tolerance goes to solve_qp,
    whose HiGHS feasibility LP names it "infeasible"; otherwise it stays
    "max_iter".  Returns (x, objective, status) where status[t] is one of
    "solved", "infeasible", "max_iter".
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    H = np.asarray(H, dtype=float)
    g = np.asarray(g, dtype=float)
    T, _, n = A.shape
    batch = _DenseBatch(H, A)
    no_eq = np.zeros((T, 0))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x, _, z, _ = _ipm(batch, g, no_eq, b, np.zeros((T, n)))
        ok, _, _ = _accept(batch, g, no_eq, b, x, no_eq, z, eps_abs, eps_rel)
    status = np.where(ok, "solved", "max_iter").astype(object)
    for t in np.flatnonzero(~ok):
        qp = QuadraticProgram(H, g, A_in=A[t], b_in=b[t])
        try:
            x[t] = solve_qp(qp, eps_abs, eps_rel).x
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
    """Maximum flow of a unit-capacity network by scipy's csgraph routine.

    Parallel unit edges sum into one capacity.  Returns (value, flows)
    where flows[i] is the 0/1 flow on edges[i].
    """
    if not network.edges:
        return 0, []
    tails, heads = np.array(network.edges).T
    nv = network.num_vertices
    cap = sp.csr_array(
        (np.ones(tails.size, dtype=np.int32), (tails, heads)), shape=(nv, nv)
    )
    res = maximum_flow(cap, network.source, network.sink)
    # the net flow from tail to head goes to the first edges of that pair,
    # in edge order: rank counts the earlier edges with the same endpoints.
    # A negative net flow leaves the edge empty; its antiparallel twin
    # carries it, which keeps every vertex balanced.
    net = np.asarray(res.flow[tails, heads]).ravel()
    key = tails * nv + heads
    order = np.argsort(key, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(key.size) - np.searchsorted(key[order], key[order])
    return int(res.flow_value), (rank < net).astype(int).tolist()


# an LP bound within this of the target still admits it
_ILP_GAP_TOL = 1e-6


def solve_ilp(ilp, target=None, node_limit=100000):
    """Maximize a binary ILP; with target, only an optimum >= target counts.

    The root LP relaxation is solved first with HiGHS' simplex: a vertex
    that is already integral and feasible is returned as is (1 node), and a
    root bound below target is infeasible without branching.  Otherwise
    HiGHS' branch and cut (scipy.optimize.milp) solves the program, with
    the row c'z >= target when a target is given.  Presolve stays off: on
    the time-expanded flow programs it costs more time and memory than the
    search it saves.

    Returns an ILPResult whose nodes counts the search nodes, root
    included.  Raises ILPInfeasibleError when no binary assignment (with
    objective >= target) exists and ILPBudgetExceededError when the search
    reaches node_limit nodes.
    """
    n = ilp.n
    if n == 0:
        # a fully presolved program is feasible exactly when its constant
        # rows already hold
        z = np.zeros(0, dtype=int)
        if ilp.feasible(z) and (target is None or target <= _ILP_GAP_TOL):
            return ILPResult(z, 0.0, 0, 0.0)
        raise ILPInfeasibleError("no feasible binary assignment")
    root = linprog(
        -ilp.c,
        A_ub=ilp.A_in if ilp.A_in.shape[0] else None,
        b_ub=ilp.b_in if ilp.A_in.shape[0] else None,
        A_eq=ilp.A_eq if ilp.A_eq.shape[0] else None,
        b_eq=ilp.b_eq if ilp.A_eq.shape[0] else None,
        bounds=(0.0, 1.0),
        method="highs",
    )
    if root.status == 2:
        raise ILPInfeasibleError("LP relaxation is infeasible")
    if root.status != 0:
        raise SolverError(f"LP relaxation failed with status {root.status}")
    x, bound = root.x, -root.fun
    if target is not None and bound < target - _ILP_GAP_TOL:
        raise ILPInfeasibleError(f"LP bound {bound:.6g} is below target {target}")
    z = np.round(x)
    if np.abs(x - z).max() <= 1e-6 and ilp.feasible(z):
        return ILPResult(z.astype(int), float(ilp.c @ z), 1, 0.0)

    constraints = []
    if ilp.A_eq.shape[0]:
        constraints.append(LinearConstraint(ilp.A_eq, ilp.b_eq, ilp.b_eq))
    if ilp.A_in.shape[0]:
        constraints.append(LinearConstraint(ilp.A_in, -np.inf, ilp.b_in))
    if target is not None:
        constraints.append(
            LinearConstraint(ilp.c[None, :], target - _ILP_GAP_TOL, np.inf)
        )
    # with the relative gap off, HiGHS stops at its absolute gap of 1e-6
    res = milp(
        -ilp.c,
        integrality=np.ones(n),
        bounds=Bounds(0.0, 1.0),
        constraints=constraints,
        options={"presolve": False, "node_limit": node_limit, "mip_rel_gap": 0.0},
    )
    if res.status == 2:
        raise ILPInfeasibleError("no feasible binary assignment")
    if res.status != 0:
        # node_limit is the only limit set; HiGHS reports it as a "solution
        # limit", a model status scipy leaves unmapped (status 4)
        if res.status == 1 or "limit reached" in res.message:
            raise ILPBudgetExceededError(f"node limit {node_limit} reached")
        raise SolverError(f"branch and cut failed: {res.message}")
    z = np.round(res.x)
    if not ilp.feasible(z):
        raise SolverError("branch and cut returned an infeasible assignment")
    objective = float(ilp.c @ z)
    gap = max(0.0, -res.mip_dual_bound - objective)
    return ILPResult(z.astype(int), objective, int(res.mip_node_count), gap)
