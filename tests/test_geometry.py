import itertools
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from swarmplan import geometry, opt_engine
from swarmplan.corridor import support_norms
from swarmplan.geometry import (
    ConvexPolyhedron,
    Ellipsoid,
    collision_free,
    svm_separate_batch,
)
from swarmplan.opt_engine import QPInfeasibleError, QuadraticProgram, solve_qp
from swarmplan.scenario import merge_obstacle_cells

ELL = Ellipsoid((0.12, 0.12, 0.3))


def support(ellipsoid, a):
    """||E a||, the ellipsoid's support in the direction of the normal a."""
    return float(np.linalg.norm(np.asarray(a, dtype=float) * np.asarray(ellipsoid.radii)))


# One-instance helpers on top of svm_separate_batch, which the planner
# itself does not need: they state single separations in the tests below.


class SeparationError(Exception):
    """The two point sets admit no ellipsoid-margin separating hyperplane."""


def pairwise_clearance(points, ellipsoid):
    """Minimum scaled distance over all pairs; >= 2 means collision free."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 2:
        return np.inf
    scaled = ellipsoid.scale_inv(pts)
    diff = scaled[:, None, :] - scaled[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    iu = np.triu_indices(pts.shape[0], k=1)
    return float(dist[iu].min())


@dataclass(frozen=True)
class Hyperplane:
    """Oriented plane {x : a'x = b} with unit normal a."""

    normal: tuple
    offset: float

    def __post_init__(self):
        a = np.asarray(self.normal, dtype=float)
        n = np.linalg.norm(a)
        if abs(n - 1.0) > 1e-9:
            raise ValueError("normal must have unit length")
        object.__setattr__(self, "normal", tuple(a))
        object.__setattr__(self, "offset", float(self.offset))

    def signed_distance(self, x):
        return float(np.dot(self.normal, x) - self.offset)


def separate_point_sets(A_points, B_points, ellipsoid, tol=1e-6):
    """Separating hyperplane pushing A to the negative side, B positive,
    with at least one ellipsoid of clearance on each side.

    Raises SeparationError when the sets cannot be separated that widely.
    """
    A_points = np.asarray(A_points, dtype=float).reshape(-1, 3)
    B_points = np.asarray(B_points, dtype=float).reshape(-1, 3)
    alpha, beta, enorm, ok = svm_separate_batch(A_points[None], B_points[None], ellipsoid)
    if not ok[0]:
        raise SeparationError("margin SVM infeasible: point sets overlap or nearly touch")
    if enorm[0] > 1.0 + tol:
        raise SeparationError(
            f"sets are separable but too close for the ellipsoid margin "
            f"(||E a|| = {enorm[0]:.6f} > 1)"
        )
    return Hyperplane(tuple(alpha[0]), float(beta[0]))


def shift_for_ellipsoids(plane, ellipsoid):
    """Shift a separating plane inward by the ellipsoid support on each side.

    Returns (low_plane, high_plane): points p with a'p <= low_plane.offset
    keep the whole ellipsoid E(p) on the negative side of the original
    plane; symmetrically for a'p >= high_plane.offset.
    """
    s = support(ellipsoid, plane.normal)
    return (
        Hyperplane(plane.normal, plane.offset - s),
        Hyperplane(plane.normal, plane.offset + s),
    )


class TestEllipsoid:
    def test_radii_are_stored_as_floats(self):
        ell = Ellipsoid(np.array([1, 2, 3]))
        assert ell.radii == (1.0, 2.0, 3.0)
        assert all(type(r) is float for r in ell.radii)

    def test_scale_inv_divides_componentwise(self):
        v = np.array([0.12, 0.24, 0.3])
        assert np.allclose(ELL.scale_inv(v), [1.0, 2.0, 1.0])

    def test_norm_is_support_of_unit_normal(self):
        # the planner's ||E a|| per row; the last direction by hand:
        # ||diag(r) a||
        normals = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.6, 0.0, 0.8]])
        assert support_norms(normals, ELL).tolist() == pytest.approx(
            [0.3, 0.12, np.hypot(0.6 * 0.12, 0.8 * 0.3)]
        )

    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            Ellipsoid((0.1, 0.1))
        with pytest.raises(ValueError):
            Ellipsoid((0.1, -0.1, 0.3))


class TestCollisionPredicate:
    def test_vertical_threshold_is_two_rz(self):
        # ||E^-1 d|| = 0.6/0.3 = 2 exactly: boundary contact is free
        assert collision_free((0, 0, 0), (0, 0, 0.6), ELL)
        assert not collision_free((0, 0, 0), (0, 0, 0.59), ELL)

    def test_horizontal_threshold_is_two_rxy(self):
        assert collision_free((0.24, 0, 0), (0, 0, 0), ELL)
        assert not collision_free((0.23, 0, 0), (0, 0, 0), ELL)

    def test_pairwise_clearance_matches_min_pair(self):
        pts = np.array([[0, 0, 0], [0.24, 0, 0], [0, 0, 0.9]])
        # closest pair in scaled units is the horizontal one at exactly 2
        assert pairwise_clearance(pts, ELL) == pytest.approx(2.0)

    def test_single_point_has_infinite_clearance(self):
        assert pairwise_clearance(np.zeros((1, 3)), ELL) == np.inf


class TestHyperplane:
    def test_requires_unit_normal(self):
        with pytest.raises(ValueError):
            Hyperplane((1.0, 1.0, 0.0), 0.0)

    def test_signed_distance(self):
        h = Hyperplane((0.0, 0.0, 1.0), 0.5)
        assert h.signed_distance((0, 0, 2.0)) == pytest.approx(1.5)
        assert h.signed_distance((0, 0, 0.0)) == pytest.approx(-0.5)


class TestPolyhedron:
    def test_contains_with_no_faces_is_everything(self):
        p = ConvexPolyhedron()
        assert p.contains((1e9, -1e9, 0))

    def test_contains_and_violation(self):
        p = ConvexPolyhedron(np.eye(3), np.ones(3))
        assert p.contains((1.0, 0.5, -3.0))
        assert not p.contains((1.1, 0.0, 0.0))
        assert p.max_violation(np.array([[2.0, 0.0, 0.0]])) == pytest.approx(1.0)


class TestSeparation:
    def test_two_points_unit_gap(self):
        # one point above the other: the widest-margin plane sits halfway
        plane = separate_point_sets([(0, 0, 0)], [(0, 0, 1)], ELL)
        assert np.allclose(np.abs(plane.normal), [0, 0, 1])
        sign = np.sign(plane.normal[2])
        assert sign * plane.offset == pytest.approx(0.5)
        # A must be on the negative side
        assert plane.signed_distance((0, 0, 0)) < 0

    def test_shift_for_ellipsoids_moves_by_support(self):
        plane = Hyperplane((0.0, 0.0, 1.0), 0.5)
        lo, hi = shift_for_ellipsoids(plane, ELL)
        assert lo.offset == pytest.approx(0.2)
        assert hi.offset == pytest.approx(0.8)
        assert lo.normal == plane.normal and hi.normal == plane.normal

    def test_gap_below_two_supports_is_rejected(self):
        # vertical gap 0.5 < 2 * rz: no room for one ellipsoid per side
        with pytest.raises(SeparationError):
            separate_point_sets([(0, 0, 0)], [(0, 0, 0.5)], ELL)

    def test_gap_at_exactly_two_supports_is_accepted(self):
        plane = separate_point_sets([(0, 0, 0)], [(0, 0, 0.6)], ELL)
        sign = np.sign(plane.normal[2])
        assert sign * plane.offset == pytest.approx(0.3)

    def test_batch_flags_inseparable_instances(self):
        a = np.zeros((2, 1, 3))
        b = np.array([[[0.0, 0.0, 1.0]], [[0.0, 0.0, 0.1]]])
        alpha, beta, enorm, ok = svm_separate_batch(a, b, ELL)
        assert ok[0] and enorm[0] <= 1.0 + 1e-6
        assert (not ok[1]) or enorm[1] > 1.0 + 1e-6

    @settings(max_examples=60, deadline=None)
    @given(
        direction=st.integers(min_value=0, max_value=2),
        gap=st.floats(min_value=0.7, max_value=3.0),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_margin_covers_one_support_each_side(self, direction, gap, seed):
        rng = np.random.default_rng(seed)
        spread = 0.25 * gap
        a_pts = rng.uniform(-spread, spread, size=(4, 3))
        b_pts = rng.uniform(-spread, spread, size=(4, 3))
        b_pts[:, direction] += gap + 2 * spread
        plane = separate_point_sets(a_pts, b_pts, ELL)
        s = support(ELL, plane.normal)
        a_side = a_pts @ np.asarray(plane.normal)
        b_side = b_pts @ np.asarray(plane.normal)
        assert a_side.max() <= plane.offset - s + 1e-6
        assert b_side.min() >= plane.offset + s - 1e-6

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_separation_is_symmetric_in_margin(self, seed):
        rng = np.random.default_rng(seed)
        a_pts = rng.uniform(-0.2, 0.2, size=(3, 3))
        b_pts = rng.uniform(-0.2, 0.2, size=(3, 3)) + np.array([0.0, 0.0, 1.5])
        plane = separate_point_sets(a_pts, b_pts, ELL)
        # max-margin solution puts both sets at the same scaled distance
        scale = support(ELL, plane.normal)
        a_gap = plane.offset - (a_pts @ np.asarray(plane.normal)).max()
        b_gap = (b_pts @ np.asarray(plane.normal)).min() - plane.offset
        assert a_gap / scale == pytest.approx(b_gap / scale, rel=1e-4)


def smooth_curve_samples(rng, count=32):
    """Samples of a random cubic Bezier curve a few decimetres long; half of
    the curves lie in a horizontal plane, so many samples tie at one height."""
    ctrl = rng.uniform(-0.4, 0.4, size=(4, 3))
    if rng.random() < 0.5:
        ctrl[:, 2] = 0.0
    s = np.linspace(0.0, 1.0, count)[:, None]
    weights = [(1 - s) ** 3, 3 * s * (1 - s) ** 2, 3 * s**2 * (1 - s), s**3]
    return sum(w * c for w, c in zip(weights, ctrl))


def box_vertices(rng):
    lo = rng.uniform(-0.5, 0.0, size=3)
    hi = lo + rng.uniform(0.2, 1.0, size=3)
    return np.array([[x, y, z] for x in (lo[0], hi[0]) for y in (lo[1], hi[1]) for z in (lo[2], hi[2])])


def svm_by_single_solves(a_pts, b_pts, ell):
    """The margin SVM of one instance through solve_qp, uncentered:
    (unit normal, offset, ||E alpha_raw||), or None when it has no solution.

    An interior point is only about sqrt(mu)-accurate on a degenerate
    optimal face, so the k rows solve_qp leaves tightest (k = 1, 2, ...,
    among those within 1e-6 of tight) are then solved as equalities; the
    first such point that is a KKT point replaces solve_qp's: every row
    holds and nonnegative multipliers (by NNLS) on the k rows balance its
    gradient.  A KKT point of this convex program is its unique optimum,
    whichever rows were picked.
    """
    H = np.zeros((4, 4))
    H[:3, :3] = 2.0 * np.diag(np.square(ell.radii))
    rows = np.vstack(
        [np.hstack([a_pts, -np.ones((len(a_pts), 1))]), np.hstack([-b_pts, np.ones((len(b_pts), 1))])]
    )
    b = -np.ones(len(rows))
    try:
        x = solve_qp(QuadraticProgram(H, np.zeros(4), A_in=rows, b_in=b)).x
    except QPInfeasibleError:
        return None
    slack = b - rows @ x
    order = np.argsort(slack)
    for k in range(1, int((slack <= 1e-6).sum()) + 1):
        tight = rows[order[:k]]
        kkt = np.block([[H, tight.T], [tight, np.zeros((k, k))]])
        rhs = np.concatenate([np.zeros(4), -np.ones(k)])
        exact = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:4]
        _, stationarity = nnls(tight.T, -H @ exact)
        if (rows @ exact - b).max() <= 1e-12 and stationarity <= 1e-12 * max(1.0, np.abs(H @ exact).max()):
            x = exact
            break
    raw = x[:3]
    norm = np.linalg.norm(raw)
    return raw / norm, x[3] / norm, support(ell, raw)


@st.composite
def lattice_pairs(draw):
    """Two sets of up to six lattice points, half a scaled unit apart per
    step, with B moved 1 to 6 steps past A along one axis (4 steps put
    them at the pair margin limit): ties, collinear and coplanar points."""
    cells = st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=1, max_size=6, unique=True)
    a, b = np.array(draw(cells)), np.array(draw(cells))
    axis = draw(st.integers(0, 2))
    b[:, axis] += a[:, axis].max() - b[:, axis].min() + draw(st.integers(1, 6))
    step = 0.5 * np.asarray(ELL.radii)
    return a * step, b * step


COLLINEAR = [(5.0, 3.25, 0.5), (5.0, 3.5, 0.5)]


class TestSeparationBatchAgainstSingleSolves:
    # two flat curve pairs at the obstacle margin limit: ADMM with an
    # active-set polish misses the first by 5e-7, and an interior point
    # with separate primal and dual step lengths that ranks its iterates
    # by the plain duality measure stalls on the second; a batched interior
    # point that ranks its iterates by max(residuals, sqrt(mu)) misses the
    # third by 4.9e-8
    @example(seed=415, boxes=False, gaps=[1.0, None, None, 0.4878772791456844])
    @example(seed=10000, boxes=False, gaps=[1.0, 1.0, 0.3])
    @example(seed=16, boxes=False, gaps=[1.0, 1.0, 0.3])
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        boxes=st.booleans(),
        gaps=st.lists(
            st.one_of(st.floats(min_value=0.05, max_value=1.0), st.sampled_from([0.3, 0.6]), st.none()),
            min_size=1,
            max_size=6,
        ),
    )
    def test_batch_matches_one_solve_per_instance(self, seed, boxes, gaps):
        # vertical gaps of 0.3 and 0.6 sit at the obstacle (||E a|| = 2) and
        # pair (||E a|| = 1) margin limits; no gap (None) puts a curve sample
        # inside the other set's hull
        rng = np.random.default_rng(seed)
        a_sets, b_sets = [], []
        for gap in gaps:
            b_pts = box_vertices(rng) if boxes else smooth_curve_samples(rng)
            a_pts = smooth_curve_samples(rng)
            if gap is None:
                a_pts[rng.integers(len(a_pts))] = b_pts.mean(axis=0)
            else:
                a_pts[:, 2] += b_pts[:, 2].max() - a_pts[:, 2].min() + gap
            a_sets.append(a_pts)
            b_sets.append(b_pts)
        alpha, beta, enorm, ok = svm_separate_batch(np.array(a_sets), np.array(b_sets), ELL)
        for t, gap in enumerate(gaps):
            single = svm_by_single_solves(a_sets[t], b_sets[t], ELL)
            if gap is None:
                assert single is None
                assert not ok[t]
                continue
            assert ok[t]
            normal, offset, single_enorm = single
            assert np.abs(alpha[t] - normal).max() <= 1e-8
            assert abs(beta[t] - offset) <= 1e-8
            assert abs(enorm[t] - single_enorm) <= 1e-8

    # segments on one line (the residuals of an interior point are exactly
    # 0 there), parallel segments, single points, identical sets, and
    # sets at the pair margin limit (||E a|| = 1)
    @example(pair=(COLLINEAR, [(5.0, 3.75, 0.5), (5.0, 4.0, 0.5)]))
    @example(pair=(COLLINEAR, [(5.0, 3.25, 1.0), (5.0, 3.5, 1.0)]))
    @example(pair=([(1.0, 2.0, 0.5)], [(1.5, 2.0, 0.5)]))
    @example(pair=(COLLINEAR, COLLINEAR))
    @example(pair=([(0.0, 0.0, 0.0)], [(0.0, 0.0, 0.6)]))
    @example(pair=([(0.0, 0.0, 0.0), (0.3, 0.0, 0.0)], [(0.1, 0.0, 0.6), (0.2, 0.1, 0.6)]))
    @settings(max_examples=40, deadline=None)
    @given(pair=lattice_pairs())
    def test_degenerate_sets_match_one_solve(self, pair):
        a_pts, b_pts = (np.asarray(p, dtype=float) for p in pair)
        alpha, beta, enorm, ok = svm_separate_batch(a_pts[None], b_pts[None], ELL)
        single = svm_by_single_solves(a_pts, b_pts, ELL)
        if single is None:
            assert not ok[0]
            return
        assert ok[0]
        normal, offset, single_enorm = single
        assert np.abs(alpha[0] - normal).max() <= 1e-8
        assert abs(beta[0] - offset) <= 1e-8
        assert abs(enorm[0] - single_enorm) <= 1e-8

    def test_instances_at_the_iteration_cap_are_failed_separators(self, monkeypatch):
        rng = np.random.default_rng(7)
        a_sets = np.array([smooth_curve_samples(rng) for _ in range(6)])
        b_sets = np.array([smooth_curve_samples(rng) for _ in range(6)])
        a_sets[:, :, 2] += 1.0
        # instances 0, 2 and 4 shrink to single points, which GJK certifies
        # in one step; the curves need more
        a_sets[::2] = a_sets[::2, :1]
        b_sets[::2] = b_sets[::2, :1]
        expected = svm_separate_batch(a_sets, b_sets, ELL)
        assert expected[3].all()

        def no_qp(*args, **kwargs):
            raise AssertionError("a separator reached a QP solver")

        monkeypatch.setattr(geometry, "_MIN_NORM_MAX_ITER", 1)
        monkeypatch.setattr(opt_engine, "solve_qp", no_qp)
        monkeypatch.setattr(opt_engine, "solve_qp_batch", no_qp)
        alpha, beta, enorm, ok = svm_separate_batch(a_sets, b_sets, ELL)
        assert list(ok) == [True, False] * 3
        for got, want in zip((alpha, beta, enorm), expected):
            assert np.array_equal(got[ok], want[ok])

    def test_plane_that_misses_its_margin_is_not_ok(self, monkeypatch):
        rng = np.random.default_rng(3)
        a_sets = np.array([smooth_curve_samples(rng) for _ in range(4)])
        b_sets = np.array([box_vertices(rng) for _ in range(4)])
        a_sets[:, :, 2] += b_sets[:, :, 2].max(axis=1, keepdims=True) + 0.5
        assert svm_separate_batch(a_sets, b_sets, ELL)[3].all()
        real = geometry._min_norm_points

        def tilted_first(P, Q):
            # the first instance's w turned by 0.1 rad about x, its support
            # values kept: a plane whose claimed margin the sets do not have
            w, p_max, q_min, status = real(P, Q)
            c, s = np.cos(0.1), np.sin(0.1)
            w[0] = [w[0, 0], c * w[0, 1] - s * w[0, 2], s * w[0, 1] + c * w[0, 2]]
            return w, p_max, q_min, status

        monkeypatch.setattr(geometry, "_min_norm_points", tilted_first)
        ok = svm_separate_batch(a_sets, b_sets, ELL)[3]
        assert list(ok) == [False, True, True, True]

    def test_cross_products_equal_numpy_bit_for_bit(self):
        # GJK's stacks, with entries over 16 decades, strided views of them
        # (as the simplex faces take them) and a broadcast operand
        rng = np.random.default_rng(11)
        a, b = rng.normal(size=(2, 1344, 6, 3)) * 10.0 ** rng.uniform(-8, 8, size=(2, 1344, 6, 3))
        for x, y in ((a, b), (a[:, ::2], b[:, 1::2]), (a, b[0, 0])):
            assert np.array_equal(geometry._cross(x, y), np.cross(x, y))


def simplex_min_norm_all_faces(Y, used):
    """Reference for geometry._simplex_min_norm, with the same arithmetic
    per face but over all 15 faces of a 4-point simplex, whatever the
    batch's simplices hold.  Returns the points (L, 3) and the winning
    faces' members as a mask (L, 4)."""
    faces_by_size = [np.array(list(itertools.combinations(range(4), k))) for k in (1, 2, 3, 4)]
    members = np.array([np.isin(range(4), face) for faces in faces_by_size for face in faces])
    dot = geometry._dot
    cross = geometry._cross
    tol = geometry._AFFINE_TOL
    points, valid = [], []
    for faces in faces_by_size:
        y0 = Y[:, faces[:, 0]]
        d = [Y[:, faces[:, j]] - y0 for j in range(1, faces.shape[1])]
        if len(d) == 0:
            lam = np.zeros(y0.shape[:2] + (0,))
            indep = np.ones(y0.shape[:2], dtype=bool)
            p = y0
        elif len(d) == 1:
            g = dot(d[0], d[0])
            lam = (-dot(d[0], y0) / g)[..., None]
            indep = g > 0.0
            p = y0 + lam * d[0]
        elif len(d) == 2:
            n = cross(d[0], d[1])
            nn = dot(n, n)
            p = n * (dot(n, y0) / nn)[..., None]
            y1, y2 = y0 + d[0], y0 + d[1]
            lam = np.stack(
                [dot(n, cross(y2 - p, y0 - p)), dot(n, cross(y0 - p, y1 - p))], axis=-1
            ) / nn[..., None]
            indep = nn > tol**2 * dot(d[0], d[0]) * dot(d[1], d[1])
        else:
            n12, n20, n01 = cross(d[1], d[2]), cross(d[2], d[0]), cross(d[0], d[1])
            det = dot(d[0], n12)
            lam = -np.stack([dot(y0, n12), dot(y0, n20), dot(y0, n01)], axis=-1) / det[..., None]
            scale = np.sqrt(dot(d[0], d[0]) * dot(d[1], d[1]) * dot(d[2], d[2]))
            indep = np.abs(det) > tol * scale
            p = np.zeros_like(y0)
        weights = np.concatenate([1.0 - lam.sum(axis=-1, keepdims=True), lam], axis=-1)
        valid.append(indep & (weights >= 0.0).all(axis=-1) & used[:, faces].all(axis=-1))
        points.append(p)
    points = np.concatenate(points, axis=1)
    valid = np.concatenate(valid, axis=1)
    best = np.argmin(np.where(valid, dot(points, points), np.inf), axis=1)
    return points[np.arange(Y.shape[0]), best], members[best]


def simplex_batch(rng, count):
    """GJK simplices of 1 to 4 points in their first slots, the other slots
    holding stale points as GJK leaves them: general position, collinear,
    coplanar, repeated and lattice points, and tetrahedra around the origin."""
    Y = rng.normal(size=(count, 4, 3))
    used = np.zeros((count, 4), dtype=bool)
    for l in range(count):
        k = rng.integers(1, 5)
        kind = rng.choice(["general", "collinear", "coplanar", "repeated", "lattice", "origin"])
        base, d1, d2 = rng.normal(size=(3, 3))
        s, t = rng.normal(size=(2, k, 1))
        if kind == "collinear":
            pts = base + s * d1
        elif kind == "coplanar":
            pts = base + s * d1 + t * d2
        elif kind == "lattice":
            pts = rng.integers(-1, 2, size=(k, 3)).astype(float)
        else:
            pts = rng.normal(size=(k, 3))
        if kind == "repeated":
            pts[-1] = pts[0]
        if kind == "origin":
            pts -= pts.mean(axis=0)
        Y[l, :k] = pts
        used[l, :k] = True
    return Y, used


class TestSimplexStep:
    @pytest.mark.parametrize("seed", range(4))
    def test_faces_the_simplices_hold_give_the_all_faces_answer(self, seed):
        Y, used = simplex_batch(np.random.default_rng(seed), 600)
        size = used.sum(axis=1)
        for largest in (1, 2, 3, 4):
            batch = size <= largest
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                points, best = geometry._simplex_min_norm(Y[batch], used[batch])
                want_points, want_members = simplex_min_norm_all_faces(Y[batch], used[batch])
            assert np.array_equal(points, want_points)
            assert np.array_equal(geometry._FACE_MEMBERS[best], want_members)

    def test_face_order_puts_members_first_in_slot_order(self):
        for members, order in zip(geometry._FACE_MEMBERS, geometry._FACE_ORDER):
            inside = np.flatnonzero(members).tolist()
            assert order.tolist() == inside + [s for s in range(4) if s not in inside]

    def test_narrow_simplices_match_their_batch_of_one(self, monkeypatch):
        # single points and segments (1- and 2-point simplices) share a
        # batch with curves against boxes, whose simplices grow to 3 points
        rng = np.random.default_rng(5)
        a_sets, b_sets = [], []
        for _ in range(4):
            a_sets.append(smooth_curve_samples(rng, count=8) + [0.0, 0.0, 1.5])
            b_sets.append(box_vertices(rng))
            a_sets.append(np.repeat(rng.normal(size=(1, 3)) + [0.0, 0.0, 2.0], 8, axis=0))
            b_sets.append(np.repeat(rng.normal(size=(1, 3)), 8, axis=0))
            end = rng.normal(size=3)
            a_sets.append(end + [0.0, 0.0, 2.0] + np.linspace(0.0, 1.0, 8)[:, None] * [1.0, 0.0, 0.0])
            b_sets.append(end + np.linspace(0.0, 1.0, 8)[:, None] * [1.0, 0.0, 0.0])
        a_sets, b_sets = np.array(a_sets), np.array(b_sets)
        real = geometry._simplex_min_norm
        largest = []

        def spy(Y, used):
            largest.append(int(used.sum(axis=1).max()))
            return real(Y, used)

        monkeypatch.setattr(geometry, "_simplex_min_norm", spy)
        batch = svm_separate_batch(a_sets, b_sets, ELL)
        assert batch[3].all() and max(largest) >= 3
        for t in range(len(a_sets)):
            largest.clear()
            one = svm_separate_batch(a_sets[t : t + 1], b_sets[t : t + 1], ELL)
            if t % 3:
                assert max(largest) <= 2
            for got, want in zip(batch, one):
                assert np.array_equal(got[t], want[0])

    def test_row_means_equal_numpy_bit_for_bit(self):
        rng = np.random.default_rng(12)
        for shape in ((1, 2, 3), (1, 20, 3), (1344, 18, 3), (7, 33, 3)):
            x = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
            assert np.array_equal(geometry._mean_rows(x), x.mean(axis=-2))
            assert np.array_equal(geometry._mean_rows(x[:, 1:]), x[:, 1:].mean(axis=-2))


class TestObstacleMerging:
    def _check_partition(self, cells):
        boxes = merge_obstacle_cells(cells)
        covered = set()
        for box in boxes:
            lo, hi = box.lo, box.hi
            box_cells = {
                (x, y, z)
                for x in range(lo[0], hi[0] + 1)
                for y in range(lo[1], hi[1] + 1)
                for z in range(lo[2], hi[2] + 1)
            }
            assert not (box_cells & covered), "boxes overlap"
            covered |= box_cells
        assert covered == set(cells)

    def test_single_cell(self):
        self._check_partition([(0, 0, 0)])

    def test_full_block_merges_to_one_box(self):
        cells = [(x, y, z) for x in range(3) for y in range(2) for z in range(2)]
        boxes = merge_obstacle_cells(cells)
        assert len(boxes) == 1
        self._check_partition(cells)

    def test_wall_with_hole(self):
        cells = [(x, 3, z) for x in range(5) for z in range(3) if (x, z) != (2, 1)]
        self._check_partition(cells)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_sets_partition_exactly(self, seed):
        rng = np.random.default_rng(seed)
        count = rng.integers(1, 20)
        cells = {
            tuple(int(v) for v in rng.integers(0, 4, size=3)) for _ in range(count)
        }
        self._check_partition(sorted(cells))
