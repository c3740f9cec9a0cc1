"""Shared numerical core: convex QP, max flow, and binary ILP solvers.

The QP solver is a Mehrotra predictor-corrector interior-point method.  Its
Newton step factors the sparse KKT matrix with sparse LU, so the same path
serves the tiny dense programs of the tests and the smoothing QPs, whose
KKT matrix is block-banded.  Programs whose best iterate misses the
tolerance are classified by HiGHS LPs: a feasibility LP for infeasibility
and a recession LP for unboundedness.  A vectorized ADMM variant solves
many small inequality-only QPs of identical shape in one pass; the
separating-hyperplane stage issues thousands of 4-variable problems per
refinement iteration and would otherwise be bound by Python overhead.

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

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.sparse.csgraph import maximum_flow
from scipy.sparse.linalg import splu


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
        """Raise if H is not symmetric PSD within 1e-8 relative tolerance."""
        h_norm = np.abs(self.H).max() if self.H.size else 0.0
        if h_norm and np.abs(self.H - self.H.T).max() > 1e-8 * h_norm:
            raise ValueError("H is not symmetric")
        shift = 1e-8 * max(h_norm, 1.0)
        try:
            np.linalg.cholesky(self.H + shift * np.eye(self.n))
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
# the best iterate is final once the residual reaches this fraction of the
# data scale, or has not improved for _IPM_STALL steps; the smoothing QPs
# have objectives near 1e-9 after normalization, so a looser stop shows up
# directly in the trajectory cost
_IPM_TARGET = 1e-12
_IPM_STALL = 8
_KKT_DELTA = 1e-11
# a recession direction must lower the objective by more than this (relative
# to |g|) to count as an unboundedness certificate
_CERT_TOL = 1e-9


def _norm(v):
    return float(np.abs(v).max()) if v.size else 0.0


def _max_step(v, dv):
    """Largest step in [0, 1] that keeps v + step * dv nonnegative."""
    neg = dv < 0
    if not neg.any():
        return 1.0
    return min(1.0, float((-v[neg] / dv[neg]).min()))


def _kkt_solver(M, A_eq):
    """Sparse LU of the quasidefinite [[M + dI, A_eq'], [A_eq, -dI]].

    Returns solve(r_x, r_y) for the unregularized system
    [[M, A_eq'], [A_eq, 0]] (x, y) = (r_x, r_y): two steps of iterative
    refinement against it remove the O(d) error of the regularization, so
    equality residuals are not floored at d * |y|.  Raises RuntimeError when
    the factorization breaks down.
    """
    n = M.shape[0]
    m = A_eq.shape[0]
    kkt = sp.bmat(
        [[M + _KKT_DELTA * sp.eye(n), A_eq.T], [A_eq, -_KKT_DELTA * sp.eye(m)]],
        format="csc",
    )
    lu = splu(kkt)

    def solve(r_x, r_y):
        rhs = np.concatenate([r_x, r_y])
        sol = lu.solve(rhs)
        for _ in range(2):
            x, y = sol[:n], sol[n:]
            sol = sol + lu.solve(rhs - np.concatenate([M @ x + A_eq.T @ y, A_eq @ x]))
        return sol[:n], sol[n:]

    return solve


def solve_qp(qp, eps_abs=1e-6, eps_rel=1e-6):
    """Solve a convex QP to the requested KKT tolerance.

    One method serves every QP: a Mehrotra predictor-corrector interior
    point whose Newton step factors the sparse KKT matrix
    [[H + A_in' W A_in + dI, A_eq'], [A_eq, -dI]] with sparse LU.
    Equality-only programs take one solve through the same factorization.
    The smoothness objectives weight derivative orders whose magnitudes
    differ by many decades, so the Hessian on the equality manifold can
    carry near-zero eigenvalues; a barrier method converges to a
    well-centered point of such a flat optimal face without naming its
    active rows.

    Returns a QPResult with the best iterate found.  When that iterate misses
    the tolerance, HiGHS LPs classify the program: QPInfeasibleError when
    the constraints admit no point, QPUnboundedError when a recession
    direction lowers the objective, QPMaxIterationsError otherwise.
    """
    qp.check_psd()
    H = sp.csr_matrix(qp.H)
    A_eq = sp.csr_matrix(qp.A_eq)
    A_in = sp.csr_matrix(qp.A_in)
    x = np.zeros(qp.n)
    y = np.zeros(A_eq.shape[0])
    z = np.zeros(A_in.shape[0])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if A_in.shape[0]:
            x, y, z, iterations = _ipm(qp, H, A_eq, A_in)
        else:
            iterations = 1
            try:
                x, y = _kkt_solver(H, A_eq)(-qp.g, qp.b_eq)
            except RuntimeError:
                pass
        ok, r_prim, r_dual = _accept(qp, H, A_eq, A_in, x, y, z, eps_abs, eps_rel)
    if not ok:
        _raise_failure(qp, H, A_eq, A_in, r_prim, r_dual, iterations)
    duals = np.concatenate([y, z])
    return QPResult(x, qp.objective(x), iterations, r_prim, r_dual, duals, False)


def _accept(qp, H, A_eq, A_in, x, y, z, eps_abs, eps_rel):
    """KKT residuals of (x, y, z) and whether they meet the stopping rule."""
    ax_eq = A_eq @ x
    ax_in = A_in @ x
    r_prim = max(_norm(ax_eq - qp.b_eq), _norm(np.maximum(ax_in - qp.b_in, 0.0)))
    hx = H @ x
    aty = A_eq.T @ y + A_in.T @ z
    r_dual = _norm(hx + qp.g + aty)
    eps_p = eps_abs + eps_rel * max(
        _norm(ax_eq), _norm(ax_in), _norm(qp.b_eq), _norm(np.minimum(ax_in, qp.b_in))
    )
    eps_d = eps_abs + eps_rel * max(_norm(hx), _norm(aty), _norm(qp.g))
    return (r_prim <= eps_p and r_dual <= eps_d), r_prim, r_dual


def _ipm(qp, H, A_eq, A_in):
    """Mehrotra predictor-corrector on A_in x + s = b_in, s >= 0.

    Starts from the minimum-norm solution of the equalities and returns the
    best iterate (x, y_eq, z_in, iterations) by the largest of the residuals
    and the duality measure.
    """
    n = qp.n
    m_in = A_in.shape[0]
    g, b_eq, b_in = qp.g, qp.b_eq, qp.b_in
    A_eqT = A_eq.T.tocsr()
    A_inT = A_in.T.tocsr()

    try:
        x, _ = _kkt_solver(sp.eye(n, format="csr"), A_eq)(np.zeros(n), b_eq)
    except RuntimeError:
        x = np.zeros(n)
    s_raw = b_in - A_in @ x
    s = s_raw + max(0.0, -1.5 * float(s_raw.min())) + 1.0
    z = np.ones(m_in)
    y = np.zeros(A_eq.shape[0])

    scale = max(1.0, _norm(g), _norm(b_eq), _norm(b_in))
    best = (x.copy(), y.copy(), z.copy())
    best_res = np.inf
    stall = 0
    it = 0
    while it < _IPM_MAX_ITER:
        r_d = H @ x + g + A_eqT @ y + A_inT @ z
        r_eq = A_eq @ x - b_eq
        r_in = A_in @ x + s - b_in
        mu = float(s @ z) / m_in
        res = max(_norm(r_d), _norm(r_eq), _norm(r_in), mu)
        if not np.isfinite(res):
            break
        if res < best_res:
            best_res = res
            best = (x.copy(), y.copy(), z.copy())
            stall = 0
        else:
            stall += 1
        if res <= _IPM_TARGET * scale or stall >= _IPM_STALL:
            break

        try:
            solve = _kkt_solver(H + A_inT @ sp.diags(z / s) @ A_in, A_eq)
        except RuntimeError:
            break

        def newton(r_cs):
            dx, dy = solve(-r_d - A_inT @ ((z * r_in - r_cs) / s), -r_eq)
            ds = -r_in - A_in @ dx
            dz = -(r_cs + z * ds) / s
            return dx, dy, ds, dz

        dx, dy, ds, dz = newton(s * z)
        mu_aff = float((s + _max_step(s, ds) * ds) @ (z + _max_step(z, dz) * dz)) / m_in
        sigma = min(1.0, (mu_aff / max(mu, 1e-300)) ** 3)
        dx, dy, ds, dz = newton(s * z + ds * dz - sigma * mu)
        ap = 0.995 * _max_step(s, ds)
        ad = 0.995 * _max_step(z, dz)
        x += ap * dx
        s += ap * ds
        y += ad * dy
        z += ad * dz
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


# ---------------------------------------------------------------------------
# batched small-QP solver (inequality-only, identical shapes)
# ---------------------------------------------------------------------------

_RHO_MIN = 1e-6
_RHO_MAX = 1e6


def solve_qp_batch(H, g, A, b, eps_abs=1e-6, eps_rel=1e-6, max_iter=20000):
    """Solve T small QPs  min 0.5 x'Hx + g'x  s.t.  A[t] x <= b[t]  at once.

    H and g are shared across the batch; A has shape (T, m, n) and b has
    shape (T, m).  Returns (x, objective, status) where status[t] is one of
    "solved", "infeasible", "max_iter".  Each solved instance is polished
    individually so active constraints hold to direct-solve accuracy.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    T, m, n = A.shape
    H = np.asarray(H, dtype=float)
    g = np.asarray(g, dtype=float)

    # normalize rows so a shared penalty works across the batch
    row_norm = np.maximum(np.abs(A).max(axis=2), 1e-12)
    An = A / row_norm[:, :, None]
    bn = b / row_norm

    sigma = 1e-6
    alpha = 1.6

    def factor(An_w, rho_vec):
        M = H[None, :, :] + sigma * np.eye(n)[None, :, :] + rho_vec[
            :, None, None
        ] * np.einsum("tmi,tmj->tij", An_w, An_w)
        return np.linalg.inv(M)

    # full-size outputs; the working arrays below shrink as instances finish
    x_full = np.zeros((T, n))
    y_full = np.zeros((T, m))
    status = np.full(T, "max_iter", dtype=object)

    live = np.arange(T)
    An_w = An
    bn_w = bn
    rho = np.full(T, 0.1)
    Minv = factor(An_w, rho)
    x = np.zeros((T, n))
    z = np.minimum(np.einsum("tmn,tn->tm", An_w, x), bn_w)
    y = np.zeros((T, m))
    y_prev = y.copy()

    eps_pinf = 1e-7
    check_every = 25
    next_polish = 500
    for it in range(1, max_iter + 1):
        rhs = sigma * x - g[None, :] + np.einsum(
            "tmn,tm->tn", An_w, rho[:, None] * z - y
        )
        x_t = np.einsum("tij,tj->ti", Minv, rhs)
        z_t = np.einsum("tmn,tn->tm", An_w, x_t)
        x = alpha * x_t + (1 - alpha) * x
        w = alpha * z_t + (1 - alpha) * z
        z = np.minimum(w + y / rho[:, None], bn_w)
        y = y + rho[:, None] * (w - z)

        if it % check_every != 0 and it != max_iter:
            continue

        ax = np.einsum("tmn,tn->tm", An_w, x)
        r_prim = np.abs(ax - z).max(axis=1) if m else np.zeros(live.size)
        dual_vec = x @ H.T + g[None, :] + np.einsum("tmn,tm->tn", An_w, y)
        r_dual = np.abs(dual_vec).max(axis=1)
        eps_p = eps_abs + eps_rel * np.maximum(
            np.abs(ax).max(axis=1), np.abs(z).max(axis=1)
        )
        eps_d = eps_abs + eps_rel * np.maximum(
            np.abs(x @ H.T).max(axis=1),
            np.maximum(
                np.abs(np.einsum("tmn,tm->tn", An_w, y)).max(axis=1),
                np.abs(g).max() if g.size else 0.0,
            ),
        )
        done = (r_prim <= eps_p) & (r_dual <= eps_d)
        status[live[done]] = "solved"

        dy = y - y_prev
        dy_norm = np.abs(dy).max(axis=1)
        with np.errstate(invalid="ignore"):
            aty = np.abs(np.einsum("tmn,tm->tn", An_w, dy)).max(axis=1)
            support = np.sum(bn_w * np.maximum(dy, 0.0), axis=1)
            cone_ok = (
                dy >= -eps_pinf * np.maximum(dy_norm, 1e-300)[:, None]
            ).all(axis=1)
            infeas = (
                ~done
                & (dy_norm > 1e-12)
                & cone_ok
                & (aty <= eps_pinf * dy_norm)
                & (support <= -eps_pinf * dy_norm)
            )
        status[live[infeas]] = "infeasible"
        done = done | infeas
        y_prev = y.copy()

        # finish lingering instances directly rather than iterating them out
        if it >= next_polish and not done.all():
            next_polish *= 2
            for k in np.flatnonzero(~done):
                res = _polish_small(H, g, An_w[k], bn_w[k], x[k], y[k])
                if res is not None:
                    x[k] = res
                    status[live[k]] = "solved"
                    done[k] = True

        if it % 200 == 0:
            scale_p = np.maximum(np.abs(ax).max(axis=1), np.abs(z).max(axis=1))
            scale_d = np.maximum(np.abs(x @ H.T).max(axis=1), 1e-12)
            ratio = np.sqrt(
                (r_prim / np.maximum(scale_p, 1e-12))
                / np.maximum(r_dual / scale_d, 1e-16)
            )
            ratio = np.clip(ratio, 1.0 / 100.0, 100.0)
            upd = ~done & ((ratio > 5.0) | (ratio < 0.2))
            if upd.any():
                rho = np.where(upd, np.clip(rho * ratio, _RHO_MIN, _RHO_MAX), rho)
                Minv = factor(An_w, rho)

        if done.any():
            x_full[live[done]] = x[done]
            y_full[live[done]] = y[done]
            keep = ~done
            if not keep.any():
                break
            live = live[keep]
            An_w = An_w[keep]
            bn_w = bn_w[keep]
            rho = rho[keep]
            Minv = Minv[keep]
            x = x[keep]
            z = z[keep]
            y = y[keep]
            y_prev = y_prev[keep]

    x_full[live] = x
    y_full[live] = y

    obj = 0.5 * np.einsum("ti,ij,tj->t", x_full, H, x_full) + x_full @ g

    # per-instance polish on entries the loop finished without one
    for t in range(T):
        if status[t] != "solved":
            continue
        res = _polish_small(H, g, An[t], bn[t], x_full[t], y_full[t])
        if res is not None:
            x_full[t] = res
            obj[t] = 0.5 * float(res @ H @ res) + float(g @ res)
    return x_full, obj, status


def _polish_small(H, g, A, b, x, y):
    n = H.shape[0]
    ax = A @ x
    active = b - ax < 1e-6 * np.maximum(1.0, np.abs(b))
    if y is not None:
        active |= y > 1e-8 * max(1.0, y.max(initial=0.0))
    for _ in range(12):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            try:
                x_p = np.linalg.solve(H, -g)
            except np.linalg.LinAlgError:
                return None
            viol = A @ x_p - b
            new = viol > 1e-8 * np.maximum(1.0, np.abs(b))
            if not new.any():
                return x_p
            active |= new
            continue
        A_act = A[idx]
        k = idx.size
        kkt = np.block(
            [[H + 1e-12 * np.eye(n), A_act.T], [A_act, -1e-12 * np.eye(k)]]
        )
        rhs = np.concatenate([-g, b[idx]])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        x_p = sol[:n]
        nu = sol[n:]
        if (nu < -1e-9).any():
            active[idx[nu < -1e-9]] = False
            continue
        viol = A @ x_p - b
        if (viol > 1e-8 * np.maximum(1.0, np.abs(b))).any():
            new = viol > 1e-8 * np.maximum(1.0, np.abs(b))
            if not (new & ~active).any():
                return None
            active |= new
            continue
        stat = H @ x_p + g + A_act.T @ nu
        scale = max(1.0, np.abs(g).max() if g.size else 0.0, np.abs(nu).max(initial=0.0))
        if np.abs(stat).max() <= 1e-7 * scale:
            return x_p
        return None
    return None


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
