"""Ellipsoid collision geometry and separating hyperplanes.

Robots are modeled as axis-aligned ellipsoids that are tall along z to
account for downwash.  Two robots at positions p and q are collision free
iff ||E^-1 (p - q)||_2 >= 2, i.e. the ellipsoids centered at p and q with
radii E stay disjoint.  Separating hyperplanes between point sets are found
by a hard-margin SVM weighted by the ellipsoid: minimizing a'E^2 a under
unit-margin constraints makes the achieved slab width exactly wide enough
for two ellipsoids iff the optimum satisfies ||E a|| <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import opt_engine


class SeparationError(Exception):
    """The two point sets admit no ellipsoid-margin separating hyperplane."""


@dataclass(frozen=True)
class Ellipsoid:
    """Axis-aligned ellipsoid radii (rx, ry, rz)."""

    radii: tuple

    def __post_init__(self):
        r = tuple(float(v) for v in self.radii)
        if len(r) != 3 or any(v <= 0 for v in r):
            raise ValueError("radii must be three positive numbers")
        object.__setattr__(self, "radii", r)

    @property
    def matrix(self):
        return np.diag(self.radii)

    def scale_inv(self, v):
        """Apply E^-1 to the last axis of v."""
        return np.asarray(v, dtype=float) / np.asarray(self.radii)

    def norm(self, direction):
        """||E a||_2 for a normal vector a (support function of the shape)."""
        d = np.asarray(direction, dtype=float)
        return float(np.linalg.norm(d * np.asarray(self.radii)))


def collision_free(p, q, ellipsoid, tol=1e-9):
    """True iff ||E^-1 (p - q)|| >= 2 (boundary contact counts as free)."""
    d = ellipsoid.scale_inv(np.asarray(p, dtype=float) - np.asarray(q, dtype=float))
    return float(np.linalg.norm(d)) >= 2.0 - tol


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


@dataclass
class ConvexPolyhedron:
    """Intersection of halfspaces {x : A x <= b}.  Zero rows = all of R^3."""

    A: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    b: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float).reshape(-1, 3)
        self.b = np.asarray(self.b, dtype=float).reshape(-1)
        if self.A.shape[0] != self.b.shape[0]:
            raise ValueError("A and b row counts differ")

    @property
    def num_faces(self):
        return self.A.shape[0]

    def contains(self, x, tol=1e-9):
        if self.num_faces == 0:
            return True
        return bool((self.A @ np.asarray(x, dtype=float) <= self.b + tol).all())

    def max_violation(self, points):
        if self.num_faces == 0:
            return 0.0
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        return float((pts @ self.A.T - self.b[None, :]).max())


def _center(A_pts, B_pts):
    all_pts = np.concatenate([A_pts, B_pts], axis=-2)
    return all_pts.mean(axis=-2)


def svm_separate_batch(A_sets, B_sets, ellipsoid):
    """Solve the ellipsoid-weighted hard-margin SVM for a batch of set pairs.

    A_sets has shape (T, mA, 3) and B_sets (T, mB, 3).  Returns
    (alpha, beta, enorm, ok) where alpha (T, 3) / beta (T,) describe planes
    with the A side at a'x - b <= -1/||alpha_raw|| after normalization,
    enorm is ||E alpha_raw|| of the raw optimum (the margin certificate),
    and ok marks instances whose QP solved.  Coordinates are centered per
    instance before solving so the result is translation invariant.
    """
    A_sets = np.asarray(A_sets, dtype=float)
    B_sets = np.asarray(B_sets, dtype=float)
    if A_sets.ndim == 2:
        A_sets = A_sets[None]
        B_sets = B_sets[None]
    T, mA, _ = A_sets.shape
    mB = B_sets.shape[1]

    centers = _center(A_sets, B_sets)
    A_c = A_sets - centers[:, None, :]
    B_c = B_sets - centers[:, None, :]

    E2 = np.diag(np.square(ellipsoid.radii))
    H = np.zeros((4, 4))
    H[:3, :3] = 2.0 * E2
    g = np.zeros(4)

    m = mA + mB
    A_con = np.zeros((T, m, 4))
    A_con[:, :mA, :3] = A_c
    A_con[:, :mA, 3] = -1.0
    A_con[:, mA:, :3] = -B_c
    A_con[:, mA:, 3] = 1.0
    b_con = np.full((T, m), -1.0)

    x, _, status = opt_engine.solve_qp_batch(H, g, A_con, b_con)
    ok = status == "solved"
    alpha_raw = x[:, :3]
    beta_raw = x[:, 3]
    enorm = np.linalg.norm(alpha_raw * np.asarray(ellipsoid.radii), axis=1)
    norms = np.linalg.norm(alpha_raw, axis=1)
    safe = np.maximum(norms, 1e-300)
    alpha = alpha_raw / safe[:, None]
    beta = beta_raw / safe + np.einsum("ti,ti->t", alpha, centers)
    ok = ok & (norms > 1e-12)
    return alpha, beta, enorm, ok


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
    s = ellipsoid.norm(plane.normal)
    return (
        Hyperplane(plane.normal, plane.offset - s),
        Hyperplane(plane.normal, plane.offset + s),
    )
