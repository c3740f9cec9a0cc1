"""Safe corridors: one convex polytope per robot per trajectory piece.

During piece k every robot must stay inside its own polytope, and any
two polytopes of different robots lie on opposite sides of a plane with
an ellipsoid of clearance each, so curves confined to their corridors
are mutually collision free for the entire piece.  The planes come from
ellipsoid-weighted margin separation of the robots' occupied point sets:
each piece's Bézier control points, whose convex hull holds the whole
piece, so every curve lies inside the corridors built from it.  A
straight line's control points lie on its segment, so the first round
separates the plan's segments.  Obstacle boxes contribute one supporting
face each, pushed off the box by the clearance radius, and the workspace
box caps every corridor.  Faces implied by the others are kept, since
they leave the point set, and so the smoothing optimum, unchanged.

Every corridor has F = 6 + B + N - 1 faces (B obstacle boxes, N robots)
in fixed slots: the workspace faces, one per box in box order, then one
per other robot in robot order, robot i's face against robot j at slot
6 + B + j - (j > i).  A separator that fails (a pair too close for a
margin plane, or a robot too close to an obstacle) is reported back
instead of raising, and its slot holds the empty row 0 x <= 1: the
robots it bounds get no full corridor that round and keep their current
curves, against which every other corridor is built.

The smoothing programs do not carry every slot: optimize_trajectory
keeps the faces near each robot's start curve and checks the rest at
its answer, against these full arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .geometry import ConvexPolyhedron, svm_separate_batch

_FACE_PRUNE_THRESHOLD = 64


@dataclass
class CorridorSet:
    """Corridors as face arrays, plus the separation failures: row f of
    robot t's corridor on piece k is normals[t, k, f] . x <= offsets[t, k, f],
    in the slot order of the module docstring."""

    normals: np.ndarray
    offsets: np.ndarray
    failed_pairs: set = field(default_factory=set)
    failed_robots: set = field(default_factory=set)

    @property
    def num_robots(self):
        return self.normals.shape[0]

    @property
    def num_pieces(self):
        return self.normals.shape[1]

    @property
    def polyhedra(self):
        """The corridors as ConvexPolyhedron views, indexed [robot][piece]."""
        return [
            [ConvexPolyhedron(a, b) for a, b in zip(*robot)]
            for robot in zip(self.normals, self.offsets)
        ]


def support_norms(normals, ellipsoid):
    """||E a|| for every row a of normals, equal bit for bit to
    np.linalg.norm of each row times the radii: a batched matmul sums each
    row in the order of the single-vector dot product, where
    np.linalg.norm(..., axis=1) does not."""
    s = normals * np.asarray(ellipsoid.radii)
    return np.sqrt((s[:, None, :] @ s[:, :, None])[:, 0, 0])


def workspace_faces(scenario):
    lo, hi = scenario.grid.workspace_box()
    a = np.vstack([np.eye(3), -np.eye(3)])
    b = np.concatenate([hi, -lo])
    return a, b


def prune_faces(poly, keep=None):
    """Drop faces implied by the others (tested by one LP per face).

    keep marks faces that must survive regardless, e.g. the workspace
    box that guarantees boundedness.  build_corridors does not call it:
    the tests use it as the reference for corridors with redundant faces.
    """
    m = poly.num_faces
    if m <= _FACE_PRUNE_THRESHOLD:
        return poly
    keep = np.zeros(m, dtype=bool) if keep is None else np.asarray(keep, dtype=bool)
    alive = np.ones(m, dtype=bool)
    for i in range(m):
        if keep[i]:
            continue
        alive[i] = False
        rows = poly.A[alive]
        rhs = poly.b[alive]
        res = linprog(
            -poly.A[i],
            A_ub=rows,
            b_ub=rhs,
            bounds=[(None, None)] * 3,
            method="highs",
        )
        if res.status != 0 or -res.fun > poly.b[i] + 1e-9:
            alive[i] = True  # face is binding, keep it
    return ConvexPolyhedron(poly.A[alive], poly.b[alive])


def build_corridors(point_sets, scenario):
    """Corridors for every robot and piece from their occupied point sets.

    point_sets has shape (robots, pieces, m, 3), such as the stacked
    control points of one curve per robot.  Every pair and every
    robot-obstacle pair is separated, each kind in one batch; failed_pairs
    and failed_robots name those without a valid plane on some piece.
    """
    point_sets = np.asarray(point_sets, dtype=float)
    n, num_pieces, m, _ = point_sets.shape
    boxes = scenario.obstacle_boxes()
    nb = len(boxes)
    ws_a, ws_b = workspace_faces(scenario)
    normals = np.zeros((n, num_pieces, 6 + nb + n - 1, 3))
    offsets = np.ones(normals.shape[:3])
    normals[:, :, :6] = ws_a
    offsets[:, :, :6] = ws_b
    failed = np.zeros(offsets.shape, dtype=bool)

    if boxes:
        # instances in (robot, piece, box) order
        verts = np.array([box.vertices(scenario.grid) for box in boxes])
        a_sets = np.repeat(point_sets.reshape(-1, m, 3), nb, axis=0)
        b_sets = np.tile(verts, (n * num_pieces, 1, 1))
        ell = scenario.obstacle_ellipsoid
        alpha, _, enorm, ok = svm_separate_batch(a_sets, b_sets, ell)
        touch = (b_sets @ alpha[:, :, None])[:, :, 0].min(axis=1)
        normals[:, :, 6 : 6 + nb] = alpha.reshape(n, num_pieces, nb, 3)
        offsets[:, :, 6 : 6 + nb] = (touch - support_norms(alpha, ell)).reshape(n, num_pieces, nb)
        # one-sided clearance: the raw slab must fit the clearance
        # radius, i.e. ||E_obs alpha_raw|| <= 2
        failed[:, :, 6 : 6 + nb] = ~(ok & (enorm <= 2.0 + 1e-6)).reshape(n, num_pieces, nb)
    failed_robots = set(np.flatnonzero(failed[:, :, 6 : 6 + nb].any(axis=(1, 2))).tolist())

    # pairs i < j in lexicographic order, then pieces
    i, j = np.triu_indices(n, k=1)
    failed_pairs = set()
    if len(i):
        ell = scenario.robot_ellipsoid
        alpha, beta, enorm, ok = svm_separate_batch(
            point_sets[i].reshape(-1, m, 3), point_sets[j].reshape(-1, m, 3), ell
        )
        shifts = support_norms(alpha, ell)
        alpha = alpha.reshape(len(i), num_pieces, 3)
        beta, shifts = beta.reshape(len(i), num_pieces), shifts.reshape(len(i), num_pieces)
        slot_i, slot_j = 6 + nb + j - 1, 6 + nb + i
        normals[i, :, slot_i] = alpha
        offsets[i, :, slot_i] = beta - shifts
        normals[j, :, slot_j] = -alpha
        offsets[j, :, slot_j] = -(beta + shifts)
        bad = ~(ok & (enorm <= 1.0 + 1e-6)).reshape(len(i), num_pieces)
        failed[i, :, slot_i] = failed[j, :, slot_j] = bad
        pair_failed = bad.any(axis=1)
        failed_pairs = set(zip(i[pair_failed].tolist(), j[pair_failed].tolist()))

    # a failed separator leaves the empty row 0 x <= 1 in its slot
    normals[failed] = 0.0
    offsets[failed] = 1.0
    return CorridorSet(normals, offsets, failed_pairs, failed_robots)
