"""Safe corridors: one convex polytope per robot per trajectory piece.

During piece k every robot must stay inside its own polytope, and any
two polytopes of different robots lie on opposite sides of a plane with
an ellipsoid of clearance each, so curves confined to their corridors
are mutually collision free for the entire piece.  The planes come from
ellipsoid-weighted margin separation of the robots' occupied point sets
(segment endpoints on the first pass, curve samples afterwards, taken
with one Bernstein basis per robot, since a trajectory has one degree).
Obstacle boxes contribute one supporting face each, pushed off the box
by the clearance radius, and the workspace box caps every corridor.  A
corridor is the workspace faces followed by every accepted separator
face; faces implied by the others are kept, since they leave the point
set, and so the smoothing optimum, unchanged.

Separators that fail (a pair too close for a margin plane, or a robot
too close to an obstacle) are reported back instead of raising: the
robots they bound get no full corridor that round and keep their
current curves, against which every other corridor is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .bezier_opt import bernstein_basis
from .geometry import ConvexPolyhedron, svm_separate_batch

_FACE_PRUNE_THRESHOLD = 64


@dataclass
class CorridorSet:
    """Corridors indexed [robot][piece] plus the separation failures."""

    polyhedra: list
    failed_pairs: set = field(default_factory=set)
    failed_robots: set = field(default_factory=set)

    @property
    def num_robots(self):
        return len(self.polyhedra)

    @property
    def num_pieces(self):
        return len(self.polyhedra[0]) if self.polyhedra else 0


def segment_point_sets(waypoints):
    """Piece occupancy as segment endpoints: (robots, pieces, 2, 3)."""
    wp = np.asarray(waypoints, dtype=float)
    return np.stack([wp[:, :-1], wp[:, 1:]], axis=2)


def sample_point_sets(trajectories, samples_per_piece):
    """Piece occupancy as dense curve samples: (robots, pieces, S, 3).

    Samples include both knots, so consecutive pieces share their joint
    and the union covers the whole curve.
    """
    s = np.linspace(0.0, 1.0, samples_per_piece)
    return np.stack(
        [
            np.einsum("si,pid->psd", bernstein_basis(t.degree, s), t.control_points())
            for t in trajectories
        ]
    )


def support_norms(normals, ellipsoid):
    """||E a|| for every row a of normals, equal bit for bit to
    Ellipsoid.norm: a batched matmul sums each row in the order of the
    single-vector dot product, where np.linalg.norm(..., axis=1) does not."""
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

    point_sets has shape (robots, pieces, m, 3).  Every pair and every
    robot-obstacle pair is separated; failed_pairs and failed_robots
    name those without a valid plane on some piece.
    """
    point_sets = np.asarray(point_sets, dtype=float)
    n, num_pieces, m, _ = point_sets.shape
    ell = scenario.robot_ellipsoid
    obs_ell = scenario.obstacle_ellipsoid

    ws_a, ws_b = workspace_faces(scenario)
    faces_a = [[[ws_a] for _ in range(num_pieces)] for _ in range(n)]
    faces_b = [[[ws_b] for _ in range(num_pieces)] for _ in range(n)]
    failed_pairs = set()
    failed_robots = set()

    boxes = scenario.obstacle_boxes()
    if boxes:
        verts = np.array([box.vertices(scenario.grid) for box in boxes])
        jobs = [
            (robot, k, bi)
            for robot in range(n)
            for k in range(num_pieces)
            for bi in range(len(boxes))
        ]
        a_sets = np.array([point_sets[r, k] for r, k, _ in jobs])
        b_sets = np.array([verts[bi] for _, _, bi in jobs])
        alpha, beta, enorm, ok = svm_separate_batch(a_sets, b_sets, obs_ell)
        touch = (b_sets @ alpha[:, :, None])[:, :, 0].min(axis=1)
        offsets = touch - support_norms(alpha, obs_ell)
        for (robot, k, bi), a, offset, e, good in zip(jobs, alpha, offsets, enorm, ok):
            # one-sided clearance: the raw slab must fit the clearance
            # radius, i.e. ||E_obs alpha_raw|| <= 2
            if not good or e > 2.0 + 1e-6:
                failed_robots.add(robot)
                continue
            faces_a[robot][k].append(a[None, :])
            faces_b[robot][k].append(np.array([offset]))

    jobs = [
        (i, j, k)
        for i, j in itertools.combinations(range(n), 2)
        for k in range(num_pieces)
    ]
    if jobs:
        a_sets = np.array([point_sets[i, k] for i, _, k in jobs])
        b_sets = np.array([point_sets[j, k] for _, j, k in jobs])
        alpha, beta, enorm, ok = svm_separate_batch(a_sets, b_sets, ell)
        shifts = support_norms(alpha, ell)
        for (i, j, k), a, b0, shift, e, good in zip(jobs, alpha, beta, shifts, enorm, ok):
            if not good or e > 1.0 + 1e-6:
                failed_pairs.add((i, j))
                continue
            faces_a[i][k].append(a[None, :])
            faces_b[i][k].append(np.array([b0 - shift]))
            faces_a[j][k].append(-a[None, :])
            faces_b[j][k].append(np.array([-(b0 + shift)]))

    polyhedra = []
    for robot in range(n):
        per_piece = []
        for k in range(num_pieces):
            per_piece.append(
                ConvexPolyhedron(
                    np.concatenate(faces_a[robot][k], axis=0),
                    np.concatenate(faces_b[robot][k], axis=0),
                )
            )
        polyhedra.append(per_piece)
    return CorridorSet(polyhedra, failed_pairs, failed_robots)
