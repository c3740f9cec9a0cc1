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

A full corridor has 6 + B + N - 1 slots (B obstacle boxes, N robots):
the workspace faces, one per box in box order, then one per other robot
in robot order, robot i's face against robot j in slot 6 + B + j -
(j > i).  The slots are only the order of the one face list that
build_corridors returns.  A separator that fails (a pair too close for a
margin plane, or a robot too close to an obstacle) is reported back
instead of raising and leaves no face: the robots it bounds get no full
corridor that round and keep their current curves, against which every
other corridor is built.

The smoothing programs do not carry every face: optimize_trajectory
keeps the faces near each robot's start curve and checks the rest at
its answer, against the full list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import ConvexPolyhedron, svm_separate_batch

_FACE_PRUNE_THRESHOLD = 64


@dataclass
class CorridorSet:
    """Corridors as one face list sorted by robot, piece and slot, plus the
    separation failures: face f is normals[f] . x <= offsets[f] in robot
    cells[f, 0]'s corridor on piece cells[f, 1], which holds at least the
    workspace faces; slots counts a full corridor's slots."""

    cells: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray
    slots: int
    failed_pairs: set = field(default_factory=set)
    failed_robots: set = field(default_factory=set)

    @property
    def polyhedra(self):
        """The corridors as ConvexPolyhedron views, indexed [robot][piece]."""
        robots, pieces = self.cells[-1] + 1 if len(self.cells) else (0, 0)
        ends = np.searchsorted(self.cells @ (pieces, 1), np.arange(robots * pieces + 1)).tolist()
        polys = [ConvexPolyhedron(self.normals[a:b], self.offsets[a:b]) for a, b in zip(ends, ends[1:])]
        return [polys[r * pieces : (r + 1) * pieces] for r in range(robots)]


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
    Its linprog is imported here, not at module level: importing
    scipy.optimize loads much of scipy (about 0.2 s and 14 MB on a 2-core
    machine) that no planner stage uses.
    """
    from scipy.optimize import linprog

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
    slots = 6 + nb + n - 1
    # every face tried, as (key, normals, offsets, found): its key
    # (robot pieces + piece) slots + slot is its own and sorts the list;
    # first holds each (robot, piece)'s key of slot 0
    first = np.arange(n * num_pieces)[:, None] * slots
    ws_a, ws_b = workspace_faces(scenario)
    faces = [(
        (first + np.arange(6)).ravel(), np.tile(ws_a, (len(first), 1)), np.tile(ws_b, len(first)),
        np.ones(6 * len(first), dtype=bool),
    )]

    failed_robots = set()
    if boxes:
        # instances in (robot, piece, box) order
        verts = np.array([box.vertices(scenario.grid) for box in boxes])
        a_sets = np.repeat(point_sets.reshape(-1, m, 3), nb, axis=0)
        b_sets = np.tile(verts, (n * num_pieces, 1, 1))
        ell = scenario.obstacle_ellipsoid
        alpha, _, enorm, ok = svm_separate_batch(a_sets, b_sets, ell)
        touch = (b_sets @ alpha[:, :, None])[:, :, 0].min(axis=1)
        # one-sided clearance: the raw slab must fit the clearance
        # radius, i.e. ||E_obs alpha_raw|| <= 2
        found = ok & (enorm <= 2.0 + 1e-6)
        faces.append(
            ((first + 6 + np.arange(nb)).ravel(), alpha, touch - support_norms(alpha, ell), found)
        )
        failed_robots = set(np.flatnonzero(~found.reshape(n, -1).all(axis=1)).tolist())

    # pairs i < j in lexicographic order, then pieces
    i, j = np.triu_indices(n, k=1)
    failed_pairs = set()
    if len(i):
        ell = scenario.robot_ellipsoid
        alpha, beta, enorm, ok = svm_separate_batch(
            point_sets[i].reshape(-1, m, 3), point_sets[j].reshape(-1, m, 3), ell
        )
        shifts = support_norms(alpha, ell)
        found = ok & (enorm <= 1.0 + 1e-6)
        k = np.tile(np.arange(num_pieces), len(i))
        i, j = np.repeat(i, num_pieces), np.repeat(j, num_pieces)
        faces.append(((i * num_pieces + k) * slots + 6 + nb + j - 1, alpha, beta - shifts, found))
        faces.append(((j * num_pieces + k) * slots + 6 + nb + i, -alpha, -(beta + shifts), found))
        failed_pairs = set(zip(i[~found].tolist(), j[~found].tolist()))

    key, normals, offsets, found = (np.concatenate(part) for part in zip(*faces))
    order = np.argsort(key)
    order = order[found[order]]
    cells = np.column_stack(np.divmod(key[order] // slots, num_pieces))
    return CorridorSet(cells, normals[order], offsets[order], slots, failed_pairs, failed_robots)
