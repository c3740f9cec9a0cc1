import itertools

import numpy as np
import pytest

from swarmplan.bezier_opt import BezierPiece, PiecewiseBezierTrajectory, optimize_trajectory
from swarmplan.corridor import (
    CorridorSet,
    build_corridors,
    prune_faces,
    sample_point_sets,
    segment_point_sets,
    support_norms,
    workspace_faces,
)
from swarmplan.geometry import ConvexPolyhedron, collision_free
from swarmplan.scenario import GridSpec, ScenarioSpec


def scenario(dims=(4, 4, 1), obstacles=(), starts=None, goals=None):
    return ScenarioSpec(
        grid=GridSpec(dims=dims, cell_size=0.5),
        starts=starts or [(0, 0, 0), (0, 3, 0)],
        goals=goals or [(3, 0, 0), (3, 3, 0)],
        obstacles=list(obstacles),
    )


def box_distance(x, lo, hi):
    d = np.maximum(np.maximum(lo - x, 0.0), np.maximum(x - hi, 0.0))
    return float(np.linalg.norm(d))


class TestPointSets:
    def test_segment_point_sets_shape_and_content(self):
        wp = np.arange(2 * 4 * 3, dtype=float).reshape(2, 4, 3)
        sets = segment_point_sets(wp)
        assert sets.shape == (2, 3, 2, 3)
        assert np.array_equal(sets[:, :, 0], wp[:, :-1])
        assert np.array_equal(sets[:, :, 1], wp[:, 1:])

    def test_sample_point_sets_cover_knots(self):
        rng = np.random.default_rng(0)
        trajs = []
        for _ in range(2):
            pieces = []
            tail = rng.normal(size=3)
            for _ in range(3):
                pts = rng.normal(size=(6, 3))
                pts[0] = tail  # keep the curve continuous across knots
                tail = pts[-1]
                pieces.append(BezierPiece(0.5, pts))
            trajs.append(PiecewiseBezierTrajectory(pieces))
        sets = sample_point_sets(trajs, samples_per_piece=8)
        assert sets.shape == (2, 3, 8, 3)
        for r, traj in enumerate(trajs):
            for k, piece in enumerate(traj.pieces):
                assert np.allclose(sets[r, k, 0], piece.evaluate(0.0), atol=1e-12)
                assert np.allclose(
                    sets[r, k, -1], piece.evaluate(piece.duration), atol=1e-12
                )
            # consecutive pieces share the knot sample
            for k in range(2):
                assert np.allclose(sets[r, k, -1], sets[r, k + 1, 0], atol=1e-9)


class TestWorkspaceFaces:
    def test_faces_bound_the_workspace_box(self):
        sc = scenario()
        a, b = workspace_faces(sc)
        assert a.shape == (6, 3)
        lo, hi = sc.grid.workspace_box()
        inside = np.array([0.5, 0.5, 0.0])
        assert (a @ inside <= b).all()
        for point in (hi + 0.01, lo - 0.01):
            assert (a @ point > b).any()
        # the box corners sit exactly on the boundary
        assert (a @ hi <= b + 1e-12).all()
        assert (a @ lo <= b + 1e-12).all()


def test_support_norms_equal_single_vector_norms_bit_for_bit():
    # face offsets are computed per separator batch; they must not move by
    # an ulp from Ellipsoid.norm, which np.linalg.norm(..., axis=1) would
    rng = np.random.default_rng(3)
    normals = rng.normal(size=(5000, 3)) * rng.uniform(0.1, 100.0, size=(5000, 1))
    ell = scenario().robot_ellipsoid
    assert support_norms(normals, ell).tolist() == [ell.norm(a) for a in normals]


class TestPruneFaces:
    def test_small_polyhedra_left_alone(self):
        poly = ConvexPolyhedron(np.eye(3), np.ones(3))
        assert prune_faces(poly) is poly

    def test_redundant_faces_dropped_without_changing_the_set(self):
        rng = np.random.default_rng(1)
        base_a = np.vstack([np.eye(3), -np.eye(3)])
        base_b = np.ones(6)
        extra_n = rng.normal(size=(70, 3))
        extra_n /= np.linalg.norm(extra_n, axis=1, keepdims=True)
        # support of the unit box plus slack makes every extra face redundant
        support = np.abs(extra_n).sum(axis=1)
        extra_b = support + rng.uniform(0.05, 0.5, size=70)
        poly = ConvexPolyhedron(
            np.vstack([base_a, extra_n]), np.concatenate([base_b, extra_b])
        )
        keep = np.zeros(poly.num_faces, dtype=bool)
        keep[:6] = True
        pruned = prune_faces(poly, keep)
        assert pruned.num_faces < poly.num_faces
        assert pruned.num_faces >= 6
        pts = rng.uniform(-1.5, 1.5, size=(500, 3))
        for p in pts:
            assert poly.contains(p) == pruned.contains(p)

    def test_binding_faces_survive(self):
        rng = np.random.default_rng(2)
        # 66 distinct tangent planes of the unit sphere: all binding
        normals = rng.normal(size=(66, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        poly = ConvexPolyhedron(normals, np.ones(66))
        pruned = prune_faces(poly)
        assert pruned.num_faces == 66


class TestBuildCorridors:
    def make_sets(self):
        # two robots marching along parallel rows three cells apart
        wp = np.array(
            [
                [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [1.0, 0.0, 0.0], [1.5, 0.0, 0.0]],
                [[0.0, 1.5, 0.0], [0.5, 1.5, 0.0], [1.0, 1.5, 0.0], [1.5, 1.5, 0.0]],
            ]
        )
        return segment_point_sets(wp)

    def test_own_points_contained(self):
        sc = scenario()
        sets = self.make_sets()
        corridors = build_corridors(sets, sc)
        assert corridors.num_robots == 2
        assert corridors.num_pieces == 3
        assert corridors.failed_pairs == set()
        assert corridors.failed_robots == set()
        for r in range(2):
            for k in range(3):
                assert corridors.polyhedra[r][k].max_violation(sets[r, k]) <= 1e-9

    def test_corridors_of_a_pair_enforce_ellipsoid_clearance(self):
        sc = scenario()
        sets = self.make_sets()
        corridors = build_corridors(sets, sc)
        rng = np.random.default_rng(3)
        lo, hi = sc.grid.workspace_box()
        pts = rng.uniform(lo, hi, size=(4000, 3))
        for k in range(3):
            in_a = [p for p in pts if corridors.polyhedra[0][k].contains(p)]
            in_b = [p for p in pts if corridors.polyhedra[1][k].contains(p)]
            assert in_a and in_b
            for p in in_a[:40]:
                for q in in_b[:40]:
                    assert collision_free(p, q, sc.robot_ellipsoid)

    def test_corridors_stay_clear_of_obstacles(self):
        sc = scenario(obstacles=[(2, 1, 0)])
        # route the robots around the obstacle rows
        wp = np.array(
            [
                [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [1.0, 0.0, 0.0]],
                [[0.0, 1.5, 0.0], [0.5, 1.5, 0.0], [1.0, 1.5, 0.0]],
            ]
        )
        sets = segment_point_sets(wp)
        corridors = build_corridors(sets, sc)
        assert corridors.failed_robots == set()
        box = sc.obstacle_boxes()[0]
        blo, bhi = box.world_box(sc.grid)
        rng = np.random.default_rng(4)
        lo, hi = sc.grid.workspace_box()
        pts = rng.uniform(lo, hi, size=(4000, 3))
        for r in range(2):
            for k in range(sets.shape[1]):
                poly = corridors.polyhedra[r][k]
                for p in pts:
                    if poly.contains(p):
                        assert box_distance(p, blo, bhi) >= sc.obstacle_radius - 1e-9

    def test_inseparable_pair_reported_not_fatal(self):
        sc = scenario()
        # both robots occupy the same segment: no margin plane exists
        seg = np.array([[[0.5, 0.5, 0.0], [1.0, 0.5, 0.0]]])
        sets = np.stack([seg, seg])
        corridors = build_corridors(sets, sc)
        assert corridors.failed_pairs == {(0, 1)}
        # workspace faces still cap both corridors
        assert corridors.polyhedra[0][0].num_faces >= 6

    def test_robot_through_obstacle_reported(self):
        sc = scenario(obstacles=[(1, 1, 0)])
        wp = np.array(
            [
                [[0.0, 0.5, 0.0], [0.5, 0.5, 0.0]],  # ends inside the obstacle
                [[0.0, 1.5, 0.0], [0.5, 1.5, 0.0]],
            ]
        )
        sets = segment_point_sets(wp)
        corridors = build_corridors(sets, sc)
        assert 0 in corridors.failed_robots
        assert 1 not in corridors.failed_robots

    def test_pillar_corridors_keep_every_face_and_the_smoothing_optimum(self):
        # 64 pillar boxes: every corridor holds 6 workspace faces, 64
        # obstacle faces and 1 pair face, above prune_faces' threshold; the
        # robots turn corners between pillars, so the corridors bind
        pillars = [(x, y, z) for x in range(1, 16, 2) for y in range(1, 16, 2) for z in (0, 1)]
        paths = [
            [(0, 0, 0), (1, 0, 0), (2, 0, 0), (2, 1, 0), (2, 2, 0), (3, 2, 0), (4, 2, 0)],
            [(8, 8, 1), (8, 7, 1), (8, 6, 1), (9, 6, 1), (10, 6, 1), (10, 5, 1), (10, 4, 1)],
        ]
        sc = scenario(
            dims=(17, 17, 2), obstacles=pillars,
            starts=[p[0] for p in paths], goals=[p[-1] for p in paths],
        )
        assert len(sc.obstacle_boxes()) == 64
        wp = np.array([[sc.grid.cell_center(c) for c in p] for p in paths])
        corridors = build_corridors(segment_point_sets(wp), sc)
        assert corridors.failed_pairs == set() and corridors.failed_robots == set()
        ws_a, ws_b = workspace_faces(sc)
        for robot in corridors.polyhedra:
            for poly in robot:
                assert poly.num_faces == 6 + 64 + 1
                assert np.array_equal(poly.A[:6], ws_a) and np.array_equal(poly.b[:6], ws_b)
        keep = np.arange(71) < 6
        pruned = [[prune_faces(poly, keep) for poly in robot] for robot in corridors.polyhedra]
        assert all(poly.num_faces < 71 for robot in pruned for poly in robot)
        costs = []
        for polys in (corridors.polyhedra, pruned, [[ConvexPolyhedron()] * 6] * 2):
            out = optimize_trajectory(
                wp[:, 0], wp[:, -1], [sc.dt] * 6, polys, sc.degree, sc.continuity, sc.weights
            )
            costs.append(np.array([traj.cost(sc.weights) for traj, _, _ in out]))
        assert np.allclose(costs[0], costs[1], rtol=1e-8, atol=0.0)
        # without corridors the curves cut through the pillars far cheaper
        assert (costs[2] < 0.1 * costs[0]).all()

    def test_corridor_set_counts(self):
        cs = CorridorSet(polyhedra=[[ConvexPolyhedron()], [ConvexPolyhedron()]])
        assert cs.num_robots == 2
        assert cs.num_pieces == 1
        assert CorridorSet(polyhedra=[]).num_pieces == 0
