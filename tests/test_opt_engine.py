"""Solver checks against independent brute-force references.

The references here deliberately share no code with the solvers: QPs are
checked by enumerating candidate active sets, ILPs by enumerating every
binary assignment, and flows by enumerating every edge subset.
"""

import itertools

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from swarmplan import opt_engine
from swarmplan.bezier_opt import control_point_cost
from swarmplan.opt_engine import (
    BinaryILP,
    FlowNetwork,
    ILPBudgetExceededError,
    ILPInfeasibleError,
    QPInfeasibleError,
    QPMaxIterationsError,
    QPUnboundedError,
    QuadraticProgram,
    max_flow,
    solve_ilp,
    solve_qp,
    solve_qp_batch,
)


def qp_active_set_reference(qp, tol=1e-9):
    """Optimal x by enumerating which inequality rows are tight.

    Only valid for strictly convex H and small row counts.
    """
    m_in = qp.A_in.shape[0]
    m_eq = qp.A_eq.shape[0]
    best = None
    for r in range(m_in + 1):
        for subset in itertools.combinations(range(m_in), r):
            rows = [np.asarray(qp.A_eq)] if m_eq else []
            rhs = [np.asarray(qp.b_eq)] if m_eq else []
            if subset:
                rows.append(np.asarray(qp.A_in)[list(subset)])
                rhs.append(np.asarray(qp.b_in)[list(subset)])
            if rows:
                A = np.vstack(rows)
                b = np.concatenate(rhs)
                k = A.shape[0]
                kkt = np.block([[qp.H, A.T], [A, np.zeros((k, k))]])
                full = np.concatenate([-qp.g, b])
                sol, *_ = np.linalg.lstsq(kkt, full, rcond=None)
                if np.abs(kkt @ sol - full).max() > 1e-7:
                    continue  # inconsistent pinning
                x = sol[: qp.n]
                duals = sol[qp.n + m_eq :]
                if (duals < -1e-7).any():
                    continue
            else:
                x = np.linalg.solve(qp.H, -qp.g)
            if m_eq and np.abs(qp.A_eq @ x - qp.b_eq).max() > 1e-7:
                continue
            if m_in and (qp.A_in @ x - qp.b_in).max() > 1e-7:
                continue
            val = qp.objective(x)
            if best is None or val < best[0] - tol:
                best = (val, x)
    return best


def random_feasible_qp(rng, n=None, with_eq=True):
    n = n or int(rng.integers(2, 7))
    M = rng.normal(size=(n, n))
    H = M @ M.T + np.eye(n)
    g = rng.normal(size=n)
    x_feas = rng.normal(size=n)
    m_in = int(rng.integers(1, 6))
    A_in = rng.normal(size=(m_in, n))
    b_in = A_in @ x_feas + rng.uniform(0.1, 1.0, size=m_in)
    if with_eq and n > 2 and rng.random() < 0.5:
        A_eq = rng.normal(size=(1, n))
        b_eq = A_eq @ x_feas
    else:
        A_eq = b_eq = None
    return QuadraticProgram(H, g, A_eq, b_eq, A_in, b_in)


def assert_kkt(qp, res, eps_abs=1e-6, eps_rel=1e-6):
    """Recompute KKT residuals and hold them to the solver's tolerance rule."""
    x, duals = res.x, res.duals
    m_eq = qp.A_eq.shape[0]
    m_in = qp.A_in.shape[0]
    y_eq, z_in = duals[:m_eq], duals[m_eq:]
    aty = np.zeros(qp.n)
    if m_eq:
        aty = aty + qp.A_eq.T @ y_eq
    if m_in:
        aty = aty + qp.A_in.T @ z_in
    hx = qp.H @ x
    stat = np.abs(hx + qp.g + aty).max()
    eps_d = eps_abs + eps_rel * max(
        np.abs(hx).max(), np.abs(aty).max(), np.abs(qp.g).max()
    )
    assert stat <= eps_d * 1.01

    ax_all = []
    feas_eq = 0.0
    if m_eq:
        ax_eq = qp.A_eq @ x
        ax_all.append(ax_eq)
        feas_eq = np.abs(ax_eq - qp.b_eq).max()
    feas_in = 0.0
    slack = np.zeros(0)
    if m_in:
        ax_in = qp.A_in @ x
        ax_all.append(ax_in)
        slack = qp.b_in - ax_in
        feas_in = max(0.0, float(-slack.min()))
    scale_p = max(np.abs(np.concatenate(ax_all)).max(), np.abs(qp.b_in).max() if m_in else 0.0)
    eps_p = eps_abs + eps_rel * scale_p
    assert max(feas_eq, feas_in) <= eps_p * 1.01

    dual_scale = max(1.0, np.abs(duals).max() if duals.size else 0.0)
    if m_in:
        assert np.abs(z_in * slack).max() <= 1e-5 * dual_scale
        assert z_in.min() >= -1e-8 * dual_scale


class TestQP:
    def test_unconstrained_solves_normal_equations(self):
        H = np.diag([2.0, 4.0])
        g = np.array([-2.0, -8.0])
        res = solve_qp(QuadraticProgram(H, g))
        assert np.allclose(res.x, [1.0, 2.0], atol=1e-8)

    def test_known_box_constrained_minimum(self):
        # min (x-2)^2 + (y-2)^2 st x <= 1, y <= 1 has its optimum at (1, 1)
        qp = QuadraticProgram(
            2 * np.eye(2), np.array([-4.0, -4.0]), None, None, np.eye(2), np.ones(2)
        )
        res = solve_qp(qp, eps_abs=1e-9, eps_rel=1e-9)
        assert np.allclose(res.x, [1.0, 1.0], atol=1e-7)
        assert qp.objective(res.x) == pytest.approx(2.0 - 8.0, abs=1e-7)

    def test_equality_constrained(self):
        # min x'x st x0 + x1 = 2: symmetric optimum (1, 1)
        qp = QuadraticProgram(
            2 * np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]), np.array([2.0])
        )
        res = solve_qp(qp)
        assert np.allclose(res.x, [1.0, 1.0], atol=1e-7)

    def test_result_gives_the_coordinates_of_x(self):
        # x = x0 + Z c for the affine set as given: x free (Z the
        # identity), equality rows (Z their null space) or (Z, x0)
        rng = np.random.default_rng(5)
        programs = [random_feasible_qp(rng) for _ in range(20)]
        assert any(qp.A_eq.shape[0] for qp in programs)
        for _ in range(10):
            n, k = int(rng.integers(3, 7)), int(rng.integers(1, 3))
            M, Z = rng.normal(size=(n, n)), rng.normal(size=(n, k))
            x0, A_in = rng.normal(size=n), rng.normal(size=(4, n))
            b_in = A_in @ (x0 + Z @ rng.normal(size=k)) + 0.5
            programs.append(
                QuadraticProgram(M @ M.T + np.eye(n), rng.normal(size=n), A_in=A_in, b_in=b_in, Z=Z, x0=x0)
            )
        for qp in programs:
            res = solve_qp(qp)
            assert res.c.shape == (qp.Z.shape[1],)
            assert np.array_equal(res.x, qp.x0 + qp.Z @ res.c)

    def test_matches_active_set_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            qp = random_feasible_qp(rng)
            res = solve_qp(qp, eps_abs=1e-9, eps_rel=1e-9)
            ref = qp_active_set_reference(qp)
            assert ref is not None
            ref_obj, _ = ref
            assert qp.objective(res.x) == pytest.approx(ref_obj, rel=1e-6, abs=1e-8)

    def test_kkt_residuals_on_random_problems(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            qp = random_feasible_qp(rng)
            res = solve_qp(qp)
            assert_kkt(qp, res)

    def test_infeasible_raises(self):
        # x >= 1 and x <= -1
        qp = QuadraticProgram(
            np.eye(1),
            np.zeros(1),
            None,
            None,
            np.array([[1.0], [-1.0]]),
            np.array([-1.0, -1.0]),
        )
        with pytest.raises(QPInfeasibleError):
            solve_qp(qp)

    def test_inconsistent_equalities_raise(self):
        # x0 + x1 = 1 and x0 + x1 = 2: the least-squares point meets neither
        qp = QuadraticProgram(
            np.eye(2), np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0])
        )
        with pytest.raises(QPInfeasibleError):
            solve_qp(qp)

    def test_unbounded_raises(self):
        # free fall along x1: no curvature, negative gradient, no constraint
        qp = QuadraticProgram(
            np.diag([1.0, 0.0]),
            np.array([0.0, -1.0]),
            None,
            None,
            np.array([[1.0, 0.0]]),
            np.array([1.0]),
        )
        with pytest.raises(QPUnboundedError):
            solve_qp(qp)

    def test_near_degenerate_curvature_still_reaches_tolerance(self):
        # two widely separated curvature scales along different directions,
        # box faces active at the optimum: the shape that defeats plain
        # first-order iterations
        rng = np.random.default_rng(3)
        n = 12
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        eigs = np.logspace(-9, 0, n)
        H = (q * eigs) @ q.T
        H = 0.5 * (H + H.T)
        g = rng.normal(size=n) * 1e-3
        A_in = np.vstack([np.eye(n), -np.eye(n)])
        b_in = np.full(2 * n, 0.5)
        qp = QuadraticProgram(H, g, None, None, A_in, b_in)
        res = solve_qp(qp)
        assert_kkt(qp, res, eps_rel=1e-5)

    def test_check_psd_rejects_indefinite(self):
        qp = QuadraticProgram(np.diag([1.0, -1.0]), np.zeros(2))
        with pytest.raises(ValueError):
            qp.check_psd()

    def test_check_psd_decides_block_by_block(self):
        rng = np.random.default_rng(4)
        blocks = [m @ m.T for m in (rng.normal(size=(k, k)) for k in (3, 4, 1, 5))]
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        coupled = np.block([[np.eye(2), 1.5 * np.eye(2)], [1.5 * np.eye(2), np.eye(2)]])
        for form in (np.asarray, scipy.sparse.csr_matrix):
            for extra in ([], [indefinite]):
                H = scipy.linalg.block_diag(*blocks, *extra)
                # interleave the blocks so no block is a contiguous index range
                order = rng.permutation(H.shape[0])
                qp = QuadraticProgram(form(H[np.ix_(order, order)]), np.zeros(H.shape[0]))
                if extra:
                    with pytest.raises(ValueError, match="positive semidefinite"):
                        qp.check_psd()
                else:
                    qp.check_psd()
            # one component whose diagonal blocks are PSD but whose coupling is not
            with pytest.raises(ValueError, match="positive semidefinite"):
                QuadraticProgram(form(coupled), np.zeros(4)).check_psd()
            with pytest.raises(ValueError, match="not symmetric"):
                QuadraticProgram(form(np.triu(coupled)), np.zeros(4)).check_psd()

    def test_check_psd_accepts_smoothing_hessian(self):
        # the wall scenario's shape: 24 pieces of degree 9 in 3 axes, each
        # piece's cost block on the diagonal, as the cost integral gives it
        # (its largest entry is 2.2e9)
        pieces = [np.kron(control_point_cost(9, 0.5, (0.0, 1.0, 0.0, 1.0)), np.eye(3))] * 24
        H = scipy.linalg.block_diag(*pieces)
        # the whole-matrix test agrees
        np.linalg.cholesky(H + 1e-8 * np.abs(H).max() * np.eye(H.shape[0]))
        QuadraticProgram(H, np.zeros(H.shape[0])).check_psd()

    def test_smoothing_space_checks_its_hessian(self):
        # the check each plan's smoothing space runs: the wall's H, banded
        # in natural order, passes, and with one piece's block negated fails
        block = np.kron(control_point_cost(9, 0.5, (0.0, 1.0, 0.0, 1.0)), np.eye(3))
        pieces = [block] * 24
        Z = scipy.sparse.identity(block.shape[0] * len(pieces))
        opt_engine.SmoothingSpace(scipy.linalg.block_diag(*pieces), Z, 24)
        pieces[11] = -block
        with pytest.raises(ValueError, match="positive semidefinite"):
            opt_engine.SmoothingSpace(scipy.linalg.block_diag(*pieces), Z, 24)

    def test_newton_bands_match_dense_assembly(self):
        # a general program's Newton matrix in band storage, for a dense Z
        # and for a sparse one whose matrix has a narrower band
        rng = np.random.default_rng(5)
        n, r, m = 12, 8, 20
        M = rng.normal(size=(n, n))
        cases = [(M @ M.T, rng.normal(size=(m, n)), rng.normal(size=(n, r)))]
        # four 3-coordinate points, each row touching two neighbouring ones
        H = scipy.linalg.block_diag(*(b @ b.T for b in rng.normal(size=(4, 3, 3))))
        A = np.zeros((m, n))
        for i, p in enumerate(rng.integers(0, 3, size=m)):
            A[i, 3 * p : 3 * p + 6] = rng.normal(size=6)
        cases.append((H, A, np.kron(np.eye(4), rng.normal(size=(3, 2)))))
        for H, A, Z in cases:
            program = opt_engine._GeneralProgram(*map(scipy.sparse.csr_matrix, (H, A, Z)), np.ones(1))
            w = rng.uniform(0.1, 10.0, size=(1, m))
            assert_bands_match_dense(program, [H], [A], Z, w)
        assert program.bands(w).shape[1] < r

    def test_multiples_of_the_objective_take_the_same_steps(self):
        # with equality rows the interior point starts from their
        # least-squares point, where the objective is not 0; dividing it
        # out leaves the same steps for every multiple of H and g, and the
        # duals come back as that multiple of the original's
        rng = np.random.default_rng(13)
        M = rng.normal(size=(5, 5))
        H, g = M @ M.T + np.eye(5), rng.normal(size=5)
        A_eq, A_in = rng.normal(size=(2, 5)), rng.normal(size=(6, 5))
        x_feas = rng.normal(size=5)
        b_eq, b_in = A_eq @ x_feas, A_in @ x_feas + rng.uniform(0.1, 1.0, size=6)
        want_qp = QuadraticProgram(H, g, A_eq, b_eq, A_in, b_in)
        want = solve_qp(want_qp)
        for factor in (1e-6, 1e6):
            qp = QuadraticProgram(factor * H, factor * g, A_eq, b_eq, A_in, b_in)
            got = solve_qp(qp)
            assert got.iterations == want.iterations
            assert np.abs(got.x - want.x).max() <= 1e-8
            assert qp.objective(got.x) == pytest.approx(factor * want_qp.objective(want.x), rel=1e-9)
            assert np.abs(got.duals - factor * want.duals).max() <= 1e-6 * factor * np.abs(want.duals).max()

    def test_objective_scale_is_one_at_zero_and_beyond_the_finite_range(self):
        value = np.array([-2.5, 1e-9, 0.0, np.inf, np.nan])
        assert np.array_equal(opt_engine._objective_scale(value), [2.5, 1e-9, 1.0, 1.0, 1.0])

    def test_residual_at_rounding_level_stops_as_converged(self):
        # the row is slack (g = 0) or tight (g = (-2, 0)) at the optimum;
        # either way the residual would keep shrinking toward underflow.
        # The first optimum is 0, where only the floor of the duality
        # measure ends the run; the second ends at a small relative gap
        for g, x in ((np.zeros(2), np.zeros(2)), (np.array([-2.0, 0.0]), np.array([1.0, 0.0]))):
            res = solve_qp(QuadraticProgram(np.eye(2), g, A_in=[[1.0, 0.0]], b_in=[1.0]))
            assert res.stop == "converged" and res.iterations < 20
            assert np.abs(res.x - x).max() <= 1e-12


def dense_from_band(band):
    """The symmetric matrix whose lower band storage, (bandwidth + 1, r)
    with the diagonal in row 0, is band."""
    r = band.shape[1]
    M = sum(np.diag(row[: r - d], -d) for d, row in enumerate(band))
    return M + np.tril(M, -1).T


def assert_bands_match_dense(program, H, A, Z, w):
    """Each instance t's program.bands(w) against Z'(H_t + A_t' diag(w_t) A_t)Z
    built dense, to 1e-12 relative; H and A yield each instance's Hessian
    and rows."""
    for band, h, a, wt in zip(program.bands(w), H, A, w, strict=True):
        want = Z.T @ (h + a.T @ (wt[:, None] * a)) @ Z
        assert np.abs(dense_from_band(band) - want).max() <= 1e-12 * np.abs(want).max()


class DenseBatch:
    """A test-local batch for opt_engine._ipm: dense programs
    min 0.5 c'H_t c + g_t'c  s.t.  A_t c <= b_t, one Cholesky per instance.
    Instance i's factorization breaks down at its break_at[i]-th Newton
    step (never for 0), and wherever its Newton matrix is not positive
    definite or not finite."""

    def __init__(self, H, A, break_at, ids=None, steps=None):
        self.H, self.A, self.break_at = H, A, break_at
        self.ids = np.arange(len(H)) if ids is None else ids
        self.steps = np.zeros(len(H), dtype=int) if steps is None else steps

    def hess(self, c):
        return np.array([h @ v for h, v in zip(self.H, c)])

    def ineq(self, c):
        return np.array([a @ v for a, v in zip(self.A, c)])

    def ineq_t(self, z):
        return np.array([a.T @ v for a, v in zip(self.A, z)])

    def newton(self, w):
        factors = []
        for h, a, wt, i in zip(self.H, self.A, w, self.ids):
            self.steps[i] += 1
            try:
                factor = scipy.linalg.cho_factor(h + a.T @ (wt[:, None] * a))
            except (np.linalg.LinAlgError, ValueError):
                factor = None
            factors.append(None if self.steps[i] == self.break_at[i] else factor)
        return factors

    def solve(self, factors, r):
        return np.array([scipy.linalg.cho_solve(f, v) for f, v in zip(factors, r)])

    def take(self, keep):
        return DenseBatch(self.H[keep], self.A[keep], self.break_at, self.ids[keep], self.steps)


class TestInteriorPointBatch:
    """opt_engine._ipm on several programs at once: each instance stops on
    its own and leaves the batch with the answer it gets alone."""

    def programs(self):
        # two programs with different Hessians, rows and gradients
        rng = np.random.default_rng(21)
        n, m = 4, 6
        H = np.array([M @ M.T + np.eye(n) for M in rng.normal(size=(2, n, n))])
        A = rng.normal(size=(2, m, n))
        b = np.array([a @ rng.normal(size=n) + rng.uniform(0.1, 1.0, size=m) for a in A])
        g = rng.normal(size=(2, n)) * np.array([[1.0], [10.0]])
        return H, A, b, g

    def run(self, H, A, b, g, break_at):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return opt_engine._ipm(
                DenseBatch(H, A, np.asarray(break_at)), g, b, np.zeros(g.shape), np.zeros(len(g))
            )

    def assert_as_alone(self, H, A, b, g, break_at, batch):
        for t in range(len(H)):
            alone = self.run(H[t : t + 1], A[t : t + 1], b[t : t + 1], g[t : t + 1], break_at[t : t + 1])
            for got, want in zip(batch, alone):
                assert np.array_equal(got[t], want[0])

    def test_instance_that_breaks_down_leaves_at_its_best_iterate(self):
        H, A, b, g = self.programs()
        break_at = [3, 0]
        batch = self.run(H, A, b, g, break_at)
        x, _, steps, stops = batch
        assert stops[0] == "breakdown" and steps[0] == 2
        # the other instance runs on to its own stop and its optimum
        assert steps[1] > 2
        _, ref = qp_active_set_reference(QuadraticProgram(H[1], g[1], A_in=A[1], b_in=b[1]))
        assert np.abs(x[1] - ref).max() <= 1e-6
        self.assert_as_alone(H, A, b, g, break_at, batch)
        # in either order
        batch = self.run(H[::-1], A[::-1], b[::-1], g[::-1], break_at[::-1])
        assert list(batch[3]) == list(stops[::-1])
        self.assert_as_alone(H[::-1], A[::-1], b[::-1], g[::-1], break_at[::-1], batch)

    def test_breakdown_at_the_floor_within_the_breakdown_gap_stops_as_converged(self, monkeypatch):
        H, A, b, g = self.programs()
        # unbroken, instance 0 converges after 10 steps.  Its 10th Newton
        # matrix is taken at an iterate whose residuals are at their floor
        # and whose gap is above _IPM_GAP of its objective, but within
        # _IPM_BREAKDOWN_GAP
        _, _, steps, stops = self.run(H, A, b, g, [0, 0])
        assert stops[0] == "converged" and steps[0] == 10
        batch = self.run(H, A, b, g, [10, 0])
        x, z, steps, stops = batch
        assert list(stops) == ["converged", "converged"] and steps[0] == 9
        objective = 0.5 * x[0] @ H[0] @ x[0] + g[0] @ x[0]
        gap = z[0] @ (b[0] - A[0] @ x[0])
        assert 1e-12 < gap / abs(objective) <= 1e-10
        _, ref = qp_active_set_reference(QuadraticProgram(H[0], g[0], A_in=A[0], b_in=b[0]))
        assert np.abs(x[0] - ref).max() <= 1e-6
        self.assert_as_alone(H, A, b, g, [10, 0], batch)
        # the same failure is a breakdown without the rule, at the same
        # best iterate
        monkeypatch.setattr(opt_engine, "_IPM_BREAKDOWN_GAP", 0.0)
        x_off, _, steps_off, stops_off = self.run(H, A, b, g, [10, 0])
        assert stops_off[0] == "breakdown" and steps_off[0] == 9
        assert np.array_equal(x_off[0], x[0])

    def test_nonfinite_instance_leaves_alone(self):
        H, A, b, g = self.programs()
        H[0, 0, 0] = np.nan
        batch = self.run(H, A, b, g, [0, 0])
        assert batch[3][0] == "nonfinite" and batch[2][0] == 0
        assert batch[3][1] != "nonfinite"
        self.assert_as_alone(H, A, b, g, [0, 0], batch)

    def test_iteration_cap_stops_every_instance(self, monkeypatch):
        monkeypatch.setattr(opt_engine, "_IPM_MAX_ITER", 2)
        H, A, b, g = self.programs()
        _, _, steps, stops = self.run(H, A, b, g, [0, 0])
        assert list(stops) == ["max_iter", "max_iter"] and list(steps) == [2, 2]

    def test_result_names_the_stop(self, monkeypatch):
        H = np.array([[2.0, 0.5], [0.5, 1.0]])
        # the row is slack at the optimum: the weights stay bounded, the
        # Newton matrix keeps factoring, and the duality gap closes
        qp = QuadraticProgram(H, np.ones(2), A_in=[[1.0, 0.0]], b_in=[0.5])
        slack = solve_qp(qp)
        assert slack.stop == "converged" and slack.iterations < 10
        # a start outside its rows gets slacks of the size of its violation.
        # With them pinned at the floor instead, the multipliers of the
        # violated rows start huge, and this random program (the eleventh of
        # acceptance test 9) loses its centering: its residual stops improving
        rng = np.random.default_rng(23)
        far = [random_feasible_qp(rng) for _ in range(11)][-1]
        assert solve_qp(far, 1e-8, 1e-8).stop == "converged"
        monkeypatch.setattr(opt_engine, "_IPM_VIOL", 0.0)
        with pytest.raises(QPMaxIterationsError, match="stopped by stall"):
            solve_qp(far, 1e-8, 1e-8)
        # a breakdown stop: test_instance_that_breaks_down_leaves_at_its_best_iterate
        monkeypatch.setattr(opt_engine, "_IPM_MAX_ITER", 2)
        with pytest.raises(QPMaxIterationsError, match="after 2 iterations, stopped by max_iter"):
            solve_qp(QuadraticProgram(H, -np.ones(2), A_in=[[1.0, 0.0]], b_in=[0.25]))


class TestQPBatch:
    def test_batch_matches_individual_solves(self):
        rng = np.random.default_rng(13)
        n, m, T = 4, 6, 12
        M = rng.normal(size=(n, n))
        H = M @ M.T + np.eye(n)
        g = rng.normal(size=n)
        A = np.empty((T, m, n))
        b = np.empty((T, m))
        for t in range(T):
            x_feas = rng.normal(size=n)
            A[t] = rng.normal(size=(m, n))
            b[t] = A[t] @ x_feas + rng.uniform(0.1, 1.0, size=m)
        xs, objs, status = solve_qp_batch(H, g, A, b)
        assert all(s == "solved" for s in status)
        for t in range(T):
            qp = QuadraticProgram(H, g, None, None, A[t], b[t])
            single = solve_qp(qp, eps_abs=1e-9, eps_rel=1e-9)
            assert objs[t] == pytest.approx(qp.objective(single.x), rel=1e-6, abs=1e-7)
            assert (A[t] @ xs[t] - b[t]).max() <= 1e-7

    def test_batch_flags_infeasible_entries(self):
        H = np.eye(1)
        g = np.zeros(1)
        A = np.array([[[1.0], [-1.0]], [[1.0], [-1.0]]])
        b = np.array([[1.0, 1.0], [-1.0, -1.0]])
        _, _, status = solve_qp_batch(H, g, A, b)
        assert status[0] == "solved"
        assert status[1] == "infeasible"


def ilp_reference(ilp):
    """Best objective over every binary assignment, or None."""
    best = None
    for bits in itertools.product((0.0, 1.0), repeat=ilp.n):
        z = np.array(bits)
        if ilp.feasible(z):
            val = float(ilp.c @ z)
            if best is None or val > best:
                best = val
    return best


def random_ilps():
    """60 small random binary programs, some of them infeasible."""
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(2, 10))
        c = rng.integers(-5, 6, size=n).astype(float)
        m_in = int(rng.integers(0, 4))
        A_in = rng.integers(-2, 3, size=(m_in, n)).astype(float)
        b_in = rng.integers(0, 4, size=m_in).astype(float)
        use_eq = rng.random() < 0.4
        A_eq = rng.integers(0, 2, size=(1, n)).astype(float) if use_eq else None
        b_eq = np.array([float(rng.integers(0, 3))]) if use_eq else None
        yield BinaryILP(c, A_eq, b_eq, A_in, b_in)


def exclusion_ilp():
    """max z0 + z1 + z2 with pairwise exclusion: the root LP is
    (1/2, 1/2, 1/2) with bound 3/2, the binary optimum is 1."""
    return BinaryILP(
        np.ones(3),
        None,
        None,
        np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]),
        np.ones(3),
    )


def assert_matches_reference(ilp):
    ref = ilp_reference(ilp)
    if ref is None:
        with pytest.raises(ILPInfeasibleError):
            solve_ilp(ilp)
    else:
        res = solve_ilp(ilp)
        assert res.objective == pytest.approx(ref, abs=1e-6)
        assert ilp.feasible(res.z)


class TestILP:
    def test_simple_knapsack(self):
        # max z0 + 2 z1 + 3 z2 st z0 + z1 + z2 <= 2
        ilp = BinaryILP(
            np.array([1.0, 2.0, 3.0]),
            None,
            None,
            np.ones((1, 3)),
            np.array([2.0]),
        )
        res = solve_ilp(ilp)
        assert res.objective == pytest.approx(5.0)
        assert ilp.feasible(res.z)

    def test_matches_exhaustive_enumeration(self):
        for ilp in random_ilps():
            assert_matches_reference(ilp)

    def test_target_above_optimum_is_infeasible(self):
        ilp = exclusion_ilp()
        assert solve_ilp(ilp, target=1).objective == 1.0
        with pytest.raises(ILPInfeasibleError):
            solve_ilp(ilp, target=1.5)  # root bound meets it, branch and cut does not
        with pytest.raises(ILPInfeasibleError):
            solve_ilp(ilp, target=2)  # root bound already below it

    def test_node_budget_raises(self, monkeypatch):
        # a Cornuejols-Dawande market-split instance: 3 rows, 20 binaries,
        # a_ij uniform in [0, 99], d_i = floor(sum_j a_ij / 2); its LP
        # relaxation is feasible and fractional, and proving it has no
        # binary point takes HiGHS far more than 3 nodes
        rng = np.random.default_rng(0)
        A_eq = rng.integers(0, 100, size=(3, 20)).astype(float)
        b_eq = np.floor(A_eq.sum(axis=1) / 2)
        monkeypatch.setattr(opt_engine, "_ILP_NODE_LIMIT", 3)
        with pytest.raises(ILPBudgetExceededError):
            solve_ilp(BinaryILP(np.ones(20), A_eq, b_eq))

    def test_deterministic_solution(self):
        rng = np.random.default_rng(23)
        c = rng.normal(size=8)
        A_in = rng.normal(size=(3, 8))
        b_in = np.abs(rng.normal(size=3)) + 1.0
        ilp = BinaryILP(c, None, None, A_in, b_in)
        first = solve_ilp(ilp)
        second = solve_ilp(ilp)
        assert np.array_equal(first.z, second.z)
        assert first.nodes == second.nodes


def flow_reference(network):
    """Maximum flow by enumerating every subset of unit-capacity edges."""
    nv = network.num_vertices
    best = 0
    edges = network.edges
    for mask in range(1 << len(edges)):
        balance = [0] * nv
        for i, (t, h) in enumerate(edges):
            if mask >> i & 1:
                balance[t] += 1
                balance[h] -= 1
        ok = all(
            balance[v] == 0
            for v in range(nv)
            if v not in (network.source, network.sink)
        )
        if ok and balance[network.sink] <= 0:
            best = max(best, balance[network.source])
    return best


class TestCappedRootLP:
    """A program above the root LP's column cap skips that LP: branch and
    cut decides it alone, target row included."""

    @pytest.fixture(autouse=True)
    def cap_at_zero(self, monkeypatch):
        monkeypatch.setattr(opt_engine, "_ROOT_LP_MAX_COLUMNS", 0)
        self.lp_calls = 0
        highs = opt_engine._highs

        def counted(*args, integral=False, **kwargs):
            self.lp_calls += not integral
            return highs(*args, integral=integral, **kwargs)

        monkeypatch.setattr(opt_engine, "_highs", counted)

    def test_target_meets_the_optimum(self):
        assert solve_ilp(exclusion_ilp(), target=1).objective == 1.0
        assert self.lp_calls == 0

    @pytest.mark.parametrize("target", [1.5, 2])
    def test_branch_and_cut_proves_a_target_above_the_optimum_infeasible(self, target):
        # at target 2 the root bound 3/2 would prove it; without it, milp must
        with pytest.raises(ILPInfeasibleError):
            solve_ilp(exclusion_ilp(), target=target)
        assert self.lp_calls == 0

    def test_matches_exhaustive_enumeration(self):
        for ilp in random_ilps():
            assert_matches_reference(ilp)
        assert self.lp_calls == 0

    @pytest.mark.parametrize(
        "target, lower, upper",
        [(5, [1, 0, 0, 1], [1, 0, 1, 1]), (4, [0, 0, 0, 0], [1, 1, 1, 1])],
        ids=["largest_objective", "below_it"],
    )
    def test_largest_objective_fixes_the_weighted_columns(
        self, monkeypatch, target, lower, upper
    ):
        # the largest objective is 2 + 3: only z = (1, 0, *, 1) reaches it
        bounds = []
        highs = opt_engine._highs

        def recorded(cost, rows, col_lower, col_upper, integral=False):
            if integral:
                bounds.append((col_lower, col_upper))
            return highs(cost, rows, col_lower, col_upper, integral=integral)

        monkeypatch.setattr(opt_engine, "_highs", recorded)
        ilp = BinaryILP(np.array([2.0, -1.0, 0.0, 3.0]), None, None, np.ones((1, 4)), [3.0])
        assert solve_ilp(ilp, target=target).objective == 5.0
        assert len(bounds) == 1
        assert np.array_equal(np.broadcast_to(bounds[0][0], 4), lower)
        assert np.array_equal(np.broadcast_to(bounds[0][1], 4), upper)

    def test_target_at_the_exhaustive_optimum_is_met(self):
        # 37 of these optima are the sum of their positive weights, so
        # branch and cut starts from fixed columns; the other 19 are below it
        for ilp in random_ilps():
            ref = ilp_reference(ilp)
            if ref is not None:
                res = solve_ilp(ilp, target=ref)
                assert res.objective == pytest.approx(ref, abs=1e-6)
                assert ilp.feasible(res.z)
        assert self.lp_calls == 0

    def test_unreachable_largest_objective_is_infeasible(self):
        # fixing all three columns at 1 breaks every exclusion row
        with pytest.raises(ILPInfeasibleError):
            solve_ilp(exclusion_ilp(), target=3)
        assert self.lp_calls == 0


class TestMaxFlow:
    def test_diamond(self):
        net = FlowNetwork(4, [(0, 1), (0, 2), (1, 3), (2, 3)], 0, 3)
        assert max_flow(net) == 2

    def test_bottleneck(self):
        net = FlowNetwork(4, [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3)], 0, 3)
        assert max_flow(net) == 1

    def test_disconnected_is_zero(self):
        net = FlowNetwork(4, [(0, 1), (2, 3)], 0, 3)
        assert max_flow(net) == 0

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            nv = int(rng.integers(4, 8))
            num_edges = int(rng.integers(3, 11))
            edges = []
            for _ in range(num_edges):
                t, h = rng.integers(0, nv, size=2)
                if t != h:
                    edges.append((int(t), int(h)))
            if not edges:
                continue
            net = FlowNetwork(nv, edges, 0, nv - 1)
            assert max_flow(net) == flow_reference(net)

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self loops"):
            FlowNetwork(3, [(1, 1)], 0, 2)

    @pytest.mark.parametrize("edge", [(0, 3), (-1, 2)])
    def test_rejects_out_of_range_endpoints(self, edge):
        with pytest.raises(ValueError, match="out of range"):
            FlowNetwork(3, [(0, 1), edge], 0, 2)

    def test_rejects_source_equal_to_sink(self):
        with pytest.raises(ValueError, match="source and sink"):
            FlowNetwork(3, [(0, 1), (1, 2)], 1, 1)

    def test_edges_are_an_integer_array(self):
        net = FlowNetwork(3, [], 0, 2)
        assert net.edges.shape == (0, 2)
        assert max_flow(net) == 0
        net = FlowNetwork(3, [(0, 1), (1, 2)], 0, 2)
        assert net.edges.dtype.kind == "i" and net.edges.shape == (2, 2)
