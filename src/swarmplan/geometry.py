"""Ellipsoid collision geometry and separating hyperplanes.

Robots are modeled as axis-aligned ellipsoids that are tall along z to
account for downwash.  Two robots at positions p and q are collision free
iff ||E^-1 (p - q)||_2 >= 2, i.e. the ellipsoids centered at p and q with
radii E stay disjoint.  Separating hyperplanes between point sets are found
by a hard-margin SVM weighted by the ellipsoid: minimizing a'E^2 a under
unit-margin constraints makes the achieved slab width exactly wide enough
for two ellipsoids iff the optimum satisfies ||E a|| <= 1.

That SVM is a distance problem.  In coordinates scaled by E^-1 its
optimum is determined by the min-norm point of the difference of the two
sets' convex hulls, which a batched Gilbert-Johnson-Keerthi iteration
finds exactly, with the duality gap as its certificate (Gilbert, Johnson
& Keerthi 1988; Wolfe 1976).  GJK ends in finitely many steps on point
sets, so an instance still running at the iteration cap is reported as a
failed separator, like an overlap; there is no second solver behind it.
Every plane it returns is then checked against both point sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

# boundary slack of the contact test and of polytope membership
_BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class Ellipsoid:
    """Axis-aligned ellipsoid radii (rx, ry, rz)."""

    radii: tuple

    def __post_init__(self):
        r = tuple(float(v) for v in self.radii)
        if len(r) != 3 or any(v <= 0 for v in r):
            raise ValueError("radii must be three positive numbers")
        object.__setattr__(self, "radii", r)

    def scale_inv(self, v):
        """Apply E^-1 to the last axis of v."""
        return np.asarray(v, dtype=float) / np.asarray(self.radii)


def collision_free(p, q, ellipsoid):
    """True iff ||E^-1 (p - q)|| >= 2 (boundary contact counts as free)."""
    d = ellipsoid.scale_inv(np.asarray(p, dtype=float) - np.asarray(q, dtype=float))
    return float(np.linalg.norm(d)) >= 2.0 - _BOUNDARY_TOL


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

    def contains(self, x):
        if self.num_faces == 0:
            return True
        return bool((self.A @ np.asarray(x, dtype=float) <= self.b + _BOUNDARY_TOL).all())

    def max_violation(self, points):
        if self.num_faces == 0:
            return 0.0
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        return float((pts @ self.A.T - self.b[None, :]).max())


def _mean_rows(X):
    """X.mean(axis=-2) bit for bit, for X of shape (T, m, 3): numpy sums
    across rows one row at a time, and so does this einsum, about 5 times
    faster than mean's reduction over the middle axis."""
    return np.einsum("tmi->ti", X) / X.shape[-2]


def _dot(a, b):
    return np.einsum("...i,...i->...", a, b)


def _cross(a, b):
    """np.cross of 3-vectors along the last axis, bit for bit: the same
    products and differences, written into one output without np.cross's
    moving of axes (about 5 times faster on GJK's (1344, 6, 3) stacks)."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    np.subtract(a1 * b2, a2 * b1, out=out[..., 0])
    np.subtract(a2 * b0, a0 * b2, out=out[..., 1])
    np.subtract(a0 * b1, a1 * b0, out=out[..., 2])
    return out


# the faces of a simplex of up to four points, grouped by size, the
# members of all 15 faces in that order as masks, and each face's vertex
# order: its members first, then the others, each in slot order
_FACES = [np.array(list(itertools.combinations(range(4), k))) for k in (1, 2, 3, 4)]
_FACE_MEMBERS = np.array([np.isin(range(4), face) for faces in _FACES for face in faces])
_FACE_ORDER = np.argsort(~_FACE_MEMBERS, axis=1, kind="stable")
# for a simplex in slots 0..k-1: its faces, grouped by size, and their
# indices among the 15 (1, 3, 7 and 15 faces for k = 1..4)
_FACES_OF = {k: [f[(f < k).all(axis=1)] for f in _FACES[:k]] for k in range(1, 5)}
_FACE_INDEX_OF = {k: np.flatnonzero(~_FACE_MEMBERS[:, k:].any(axis=1)) for k in range(1, 5)}
# an instance stops once its duality gap |v|^2 - min_y v.y is at most this
# fraction of |v|^2
_GAP_TOL = 1e-12
# an instance still running after this many steps is a failed separator
# (guards against cycling in floating point); the wall scenario needs at
# most 16
_MIN_NORM_MAX_ITER = 64
# a face is affinely dependent when the sine between its edges (triangles)
# or its volume relative to its edge lengths (tetrahedra) is below this
_AFFINE_TOL = 1e-12
# slack of the direct check of each plane, relative to its promised margin
_MARGIN_RTOL = 1e-6


def _simplex_min_norm(Y, used):
    """Min-norm point of each simplex conv(Y[l, used[l]]), Y of shape (L, 4, 3).

    Each simplex fills the first slots of its row (used[l] is a prefix),
    and the faces tried are those of the first k slots, k being the
    batch's largest simplex: the min-norm point of a face's affine hull
    counts when the face is affinely independent, in the instance's
    simplex, and the point's barycentric weights are nonnegative, and the
    shortest such point wins.  The faces go by size, and each face left
    out is in no simplex, so the winner is the one all 15 faces would give,
    ties included.  Returns the points (L, 3) and the winning faces'
    indices into _FACE_MEMBERS (L,).
    """
    points, valid = [], []
    k = used.sum(axis=1).max()
    for faces in _FACES_OF[k]:
        y0 = Y[:, faces[:, 0]]
        d = [Y[:, faces[:, j]] - y0 for j in range(1, faces.shape[1])]
        if len(d) == 0:
            lam = np.zeros(y0.shape[:2] + (0,))
            indep = np.ones(y0.shape[:2], dtype=bool)
            p = y0
        elif len(d) == 1:
            g = _dot(d[0], d[0])
            lam = (-_dot(d[0], y0) / g)[..., None]
            indep = g > 0.0
            p = y0 + lam * d[0]
        elif len(d) == 2:
            # the projection along the normal, with the weights as signed
            # areas: the normal equations would square the condition of the
            # long, thin faces a box edge and a curve step make
            n = _cross(d[0], d[1])
            nn = _dot(n, n)
            p = n * (_dot(n, y0) / nn)[..., None]
            y1, y2 = y0 + d[0], y0 + d[1]
            lam = np.stack(
                [_dot(n, _cross(y2 - p, y0 - p)), _dot(n, _cross(y0 - p, y1 - p))], axis=-1
            ) / nn[..., None]
            indep = nn > _AFFINE_TOL**2 * _dot(d[0], d[0]) * _dot(d[1], d[1])
        else:
            # the origin's barycentric weights by Cramer's rule; a valid
            # tetrahedron contains the origin
            n12, n20, n01 = _cross(d[1], d[2]), _cross(d[2], d[0]), _cross(d[0], d[1])
            det = _dot(d[0], n12)
            lam = -np.stack([_dot(y0, n12), _dot(y0, n20), _dot(y0, n01)], axis=-1) / det[..., None]
            scale = np.sqrt(_dot(d[0], d[0]) * _dot(d[1], d[1]) * _dot(d[2], d[2]))
            indep = np.abs(det) > _AFFINE_TOL * scale
            p = np.zeros_like(y0)
        weights = np.concatenate([1.0 - lam.sum(axis=-1, keepdims=True), lam], axis=-1)
        valid.append(indep & (weights >= 0.0).all(axis=-1) & used[:, faces].all(axis=-1))
        points.append(p)
    points = np.concatenate(points, axis=1)
    valid = np.concatenate(valid, axis=1)
    best = np.argmin(np.where(valid, _dot(points, points), np.inf), axis=1)
    return points[np.arange(Y.shape[0]), best], _FACE_INDEX_OF[k][best]


def _min_norm_points(P, Q):
    """The min-norm point w of conv(Q) - conv(P) per instance, by GJK.

    P has shape (T, mP, 3) and Q (T, mQ, 3).  Each step takes the support
    point y of the difference (one argmax over P, one argmin over Q) and
    replaces the simplex by the minimal face of the simplex plus y.  An
    instance stops when its duality gap |v|^2 - min_y v.y certifies v, or
    when its support point cannot lower |v| (it is already in the simplex,
    or it leaves the minimal face at once: the gap is then rounding).
    Returns (w, p_max, q_min, status): p_max = max over P of w.p, q_min =
    min over Q of w.q, and status 0 when solved, 1 when the hulls overlap,
    2 when the iteration cap was reached.
    """
    T, mQ = Q.shape[0], Q.shape[1]
    w = np.zeros((T, 3))
    p_max = np.zeros(T)
    q_min = np.zeros(T)
    status = np.full(T, 2)
    # the running instances' indices; P, Q, Y and keys hold only their rows
    live, rows = np.arange(T), np.arange(T)

    def support(v):
        vp = np.einsum("tmi,ti->tm", P, v)
        vq = np.einsum("tmi,ti->tm", Q, v)
        ia, ib = vp.argmax(axis=1), vq.argmin(axis=1)
        return Q[rows, ib] - P[rows, ia], vp[rows, ia], vq[rows, ib], ia * mQ + ib

    def finish(stop, v, pm, qm, code):
        idx = live[stop]
        w[idx], p_max[idx], q_min[idx], status[idx] = v[stop], pm[stop], qm[stop], code

    v, _, _, key = support(_mean_rows(Q) - _mean_rows(P))
    Y = np.zeros((T, 4, 3))
    Y[:, 0] = v
    keys = np.full((T, 4), -1)
    keys[:, 0] = key
    for _ in range(_MIN_NORM_MAX_ITER):
        y, pm, qm, key = support(v)
        vv = _dot(v, v)
        slot = (keys >= 0).sum(axis=1)
        repeat = (keys == key[:, None]).any(axis=1)
        Y[rows, slot] = y
        keys[rows, slot] = key
        v_new, best = _simplex_min_norm(Y, keys >= 0)
        face = _FACE_MEMBERS[best]
        solved = (vv > 0.0) & ((vv - (qm - pm) <= _GAP_TOL * vv) | repeat | ~face[rows, slot])
        # the simplex holds the origin (a tetrahedron that contains it yields
        # exactly 0): the hulls share a point
        overlap = ~solved & (_dot(v_new, v_new) == 0.0)
        finish(solved, v, pm, qm, 0)
        finish(overlap, v, pm, qm, 1)
        go = np.flatnonzero(~(solved | overlap))
        # the minimal face's vertices move to the front, in their order
        order = _FACE_ORDER[best[go]]
        Y = Y[go[:, None], order]
        keys = np.where(face, keys, -1)[go[:, None], order]
        live, v, P, Q = live[go], v_new[go], P[go], Q[go]
        rows = np.arange(go.size)
        if not go.size:
            break
    return w, p_max, q_min, status


def svm_separate_batch(A_sets, B_sets, ellipsoid):
    """Solve the ellipsoid-weighted hard-margin SVM for a batch of set pairs.

    A_sets has shape (T, mA, 3) and B_sets (T, mB, 3).  Returns
    (alpha, beta, enorm, ok) where alpha (T, 3) / beta (T,) describe planes
    with the A side at a'x - b <= -1/||alpha_raw|| after normalization,
    enorm is ||E alpha_raw|| of the raw optimum (the margin certificate),
    and ok marks instances whose plane was found and passed the direct
    check of that margin on both sets.  Coordinates are centered per
    instance, so the result is translation invariant.

    The SVM is a distance problem: with p -> E^-1 p, the optimum is
    E alpha_raw = u = 2w/|w|^2 for the min-norm point w of
    conv(B) - conv(A), beta_raw puts the plane midway between the sets
    along u, and enorm = 2/|w|.  w comes from a batched GJK
    (_min_norm_points); an instance it leaves at the iteration cap is not
    ok, as is one whose hulls overlap.
    """
    A_sets = np.asarray(A_sets, dtype=float)
    B_sets = np.asarray(B_sets, dtype=float)
    mA = A_sets.shape[1]
    radii = np.asarray(ellipsoid.radii)

    both = np.concatenate([A_sets, B_sets], axis=1)
    centers = _mean_rows(both)
    scaled = (both - centers[:, None, :]) / radii
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w, p_max, q_min, status = _min_norm_points(scaled[:, :mA], scaled[:, mA:])
        ww = _dot(w, w)
        alpha_raw = 2.0 * w / (ww[:, None] * radii)
        beta_raw = (p_max + q_min) / ww
    ok = status == 0
    alpha_raw[~ok] = 0.0
    beta_raw[~ok] = 0.0
    enorm = np.linalg.norm(alpha_raw * radii, axis=1)
    norms = np.linalg.norm(alpha_raw, axis=1)
    safe = np.maximum(norms, 1e-300)
    alpha = alpha_raw / safe[:, None]
    beta = beta_raw / safe + np.einsum("ti,ti->t", alpha, centers)
    ok = ok & (norms > 1e-12)
    # the direct check: the sets lie the promised margin 1/||alpha_raw||
    # off the plane, each on its own side
    side = np.einsum("tmi,ti->tm", both, alpha)
    margin = (1.0 - _MARGIN_RTOL) / safe
    ok &= (side[:, :mA].max(axis=1) <= beta - margin) & (side[:, mA:].min(axis=1) >= beta + margin)
    return alpha, beta, enorm, ok
