import dataclasses
import functools
import itertools
import os

import numpy as np
import pytest

from swarmplan.bezier_opt import fallback_trajectory
from swarmplan.corridor import (
    CorridorSet,
    build_corridors,
    prune_faces,
    support_norms,
    workspace_faces,
)
from swarmplan.discrete_planner import solve_discrete
from swarmplan.geometry import ConvexPolyhedron, collision_free, svm_separate_batch
from swarmplan.scenario import GridSpec, ScenarioSpec
from test_bezier import face_list, full_programs

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


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


def segment_sets(waypoints):
    """Each plan segment as the point set of its two endpoints:
    (robots, pieces, 2, 3)."""
    wp = np.asarray(waypoints, dtype=float)
    return np.stack([wp[:, :-1], wp[:, 1:]], axis=2)


def inseparable_pair():
    """Point sets and scenario: both robots occupy the same segment, so no
    margin plane exists."""
    seg = np.array([[[0.5, 0.5, 0.0], [1.0, 0.5, 0.0]]])
    return np.stack([seg, seg]), scenario()


def robot_through_obstacle():
    """Point sets and scenario: robot 0's segment ends inside the obstacle."""
    wp = np.array(
        [
            [[0.0, 0.5, 0.0], [0.5, 0.5, 0.0]],
            [[0.0, 1.5, 0.0], [0.5, 1.5, 0.0]],
        ]
    )
    return segment_sets(wp), scenario(obstacles=[(1, 1, 0)])


def reference_corridors(point_sets, sc):
    """Every corridor's slots, dense, assembled job by job from the same
    batched separator calls: each corridor's faces appended one at a time,
    in (robot, piece, box) and then (pair, piece) order, with a failed
    separator's slot holding the empty row 0 x <= 1.  Returns (normals,
    offsets, failed_pairs, failed_robots, empty), normals (robots, pieces,
    slots, 3) and empty marking the failed slots."""
    n, num_pieces = point_sets.shape[:2]
    ws_a, ws_b = workspace_faces(sc)
    faces_a = [[[ws_a] for _ in range(num_pieces)] for _ in range(n)]
    faces_b = [[[ws_b] for _ in range(num_pieces)] for _ in range(n)]
    empty = [[[np.zeros(6, dtype=bool)] for _ in range(num_pieces)] for _ in range(n)]
    failed_pairs, failed_robots = set(), set()

    def append(robot, k, a, b, good):
        faces_a[robot][k].append(a[None, :] if good else np.zeros((1, 3)))
        faces_b[robot][k].append(np.array([b if good else 1.0]))
        empty[robot][k].append(np.array([not good]))

    boxes = sc.obstacle_boxes()
    if boxes:
        ell = sc.obstacle_ellipsoid
        verts = np.array([box.vertices(sc.grid) for box in boxes])
        jobs = [(r, k, bi) for r in range(n) for k in range(num_pieces) for bi in range(len(boxes))]
        b_sets = np.array([verts[bi] for _, _, bi in jobs])
        alpha, _, enorm, ok = svm_separate_batch(
            np.array([point_sets[r, k] for r, k, _ in jobs]), b_sets, ell
        )
        touch = (b_sets @ alpha[:, :, None])[:, :, 0].min(axis=1)
        offsets = touch - support_norms(alpha, ell)
        for (r, k, _), a, offset, e, good in zip(jobs, alpha, offsets, enorm, ok):
            good = good and e <= 2.0 + 1e-6
            if not good:
                failed_robots.add(r)
            append(r, k, a, offset, good)

    jobs = [(i, j, k) for i, j in itertools.combinations(range(n), 2) for k in range(num_pieces)]
    if jobs:
        ell = sc.robot_ellipsoid
        alpha, beta, enorm, ok = svm_separate_batch(
            np.array([point_sets[i, k] for i, _, k in jobs]),
            np.array([point_sets[j, k] for _, j, k in jobs]),
            ell,
        )
        shifts = support_norms(alpha, ell)
        for (i, j, k), a, b0, shift, e, good in zip(jobs, alpha, beta, shifts, enorm, ok):
            good = good and e <= 1.0 + 1e-6
            if not good:
                failed_pairs.add((i, j))
            append(i, k, a, b0 - shift, good)
            append(j, k, -a, -(b0 + shift), good)

    def stack(faces):
        return np.array([[np.concatenate(piece) for piece in robot] for robot in faces])

    return stack(faces_a), stack(faces_b), failed_pairs, failed_robots, stack(empty)


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
    # an ulp from one vector's norm, as np.linalg.norm(..., axis=1) would
    rng = np.random.default_rng(3)
    normals = rng.normal(size=(5000, 3)) * rng.uniform(0.1, 100.0, size=(5000, 1))
    ell = scenario().robot_ellipsoid
    radii = np.asarray(ell.radii)
    assert support_norms(normals, ell).tolist() == [float(np.linalg.norm(a * radii)) for a in normals]


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
        return segment_sets(wp)

    def test_own_points_contained(self):
        sc = scenario()
        sets = self.make_sets()
        corridors = build_corridors(sets, sc)
        assert [len(robot) for robot in corridors.polyhedra] == [3, 3]
        assert corridors.slots == 6 + 1
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
        sets = segment_sets(wp)
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
        sets, sc = inseparable_pair()
        corridors = build_corridors(sets, sc)
        assert corridors.failed_pairs == {(0, 1)}
        # workspace faces still cap both corridors
        assert corridors.polyhedra[0][0].num_faces >= 6

    def test_robot_through_obstacle_reported(self):
        sets, sc = robot_through_obstacle()
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
        corridors = build_corridors(segment_sets(wp), sc)
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
        free = [[ConvexPolyhedron()] * 6] * 2
        for faces in (
            (corridors.cells, corridors.normals, corridors.offsets), face_list(pruned), face_list(free)
        ):
            out = full_programs(
                wp[:, 0], wp[:, -1], [sc.dt] * 6, *faces, sc.degree, sc.continuity, sc.weights,
            )
            costs.append(np.array([traj.cost(sc.weights) for traj, _, _ in out]))
        assert np.allclose(costs[0], costs[1], rtol=1e-8, atol=0.0)
        # without corridors the curves cut through the pillars far cheaper
        assert (costs[2] < 0.1 * costs[0]).all()

    def test_corridor_set_counts(self):
        # each (robot, piece) cell's run of the sorted list is one polytope
        counts = [[6, 7], [8, 6]]
        cells = np.repeat([[t, k] for t in range(2) for k in range(2)], [6, 7, 8, 6], axis=0)
        rng = np.random.default_rng(5)
        cs = CorridorSet(cells, rng.normal(size=(27, 3)), rng.normal(size=27), 8)
        polyhedra = cs.polyhedra
        assert [[poly.num_faces for poly in robot] for robot in polyhedra] == counts
        assert np.array_equal(polyhedra[1][0].A, cs.normals[13:21])
        assert np.array_equal(polyhedra[1][0].b, cs.offsets[13:21])
        empty = CorridorSet(np.zeros((0, 2), dtype=int), np.zeros((0, 3)), np.zeros(0), 6)
        assert empty.polyhedra == []


@functools.lru_cache(maxsize=None)
def straight_line_sets(name, degree=None):
    """The named scenario, with another degree when given, its plan's
    segment point sets (kind 0) and the control points of its round-zero
    straight lines (kind 1)."""
    sc = ScenarioSpec.load(os.path.join(SCENARIO_DIR, f"{name}.json"))
    if degree is not None:
        sc = dataclasses.replace(sc, degree=degree)
    plan = solve_discrete(sc).postprocessed()
    durations = [plan.dt] * plan.num_segments
    straight = [
        fallback_trajectory(wp, durations, sc.degree, sc.continuity)
        for wp in plan.waypoints
    ]
    return sc, segment_sets(plan.waypoints), np.stack([t.points for t in straight])


class TestFaceLayout:
    """build_corridors' face list against the job-by-job dense reference:
    face for face in slot order, with the failed slots left out."""

    def assert_layout(self, sets, sc):
        corridors = build_corridors(sets, sc)
        normals, offsets, failed_pairs, failed_robots, empty = reference_corridors(sets, sc)
        n, num_pieces = sets.shape[:2]
        slots = 6 + len(sc.obstacle_boxes()) + n - 1
        assert normals.shape == (n, num_pieces, slots, 3) and corridors.slots == slots
        # argwhere and boolean indexing both run in (robot, piece, slot) order
        assert np.array_equal(corridors.cells, np.argwhere(~empty)[:, :2])
        assert np.array_equal(corridors.normals, normals[~empty])
        assert np.array_equal(corridors.offsets, offsets[~empty])
        assert corridors.failed_pairs == failed_pairs
        assert corridors.failed_robots == failed_robots
        return corridors, empty

    @pytest.mark.parametrize(
        "name, kind", [("wall_windows_8", 0), ("wall_windows_8", 1), ("pillars_6", 0)]
    )
    def test_bundled_scenarios(self, name, kind):
        sc, *sets = straight_line_sets(name)
        _, empty = self.assert_layout(sets[kind], sc)
        assert not empty.any()

    @pytest.mark.parametrize(
        "name, degree",
        [
            ("wall_windows_8", None),
            ("pillars_6", None),
            ("handover_3", None),
            # continuity 4 leaves this degree's ramp six free values
            ("wall_windows_8", 15),
        ],
    )
    def test_straight_line_control_points_give_the_segment_corridors(self, name, degree):
        # a straight line's control points lie on its segment and span it,
        # so round zero separates the same hulls as the segments' endpoints
        sc, segments, points = straight_line_sets(name, degree)
        want, got = build_corridors(segments, sc), build_corridors(points, sc)
        assert np.array_equal(got.cells, want.cells)
        assert np.allclose(got.normals, want.normals, rtol=0.0, atol=1e-12)
        assert np.allclose(got.offsets, want.offsets, rtol=0.0, atol=1e-12)
        assert (got.failed_pairs, got.failed_robots) == (want.failed_pairs, want.failed_robots)

    def test_one_robot_has_only_workspace_and_box_faces(self):
        sc = scenario(obstacles=[(2, 1, 0), (3, 3, 0)], starts=[(0, 0, 0)], goals=[(1, 0, 0)])
        wp = np.array([[[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [1.0, 0.0, 0.0]]])
        corridors, _ = self.assert_layout(segment_sets(wp), sc)
        assert corridors.slots == 6 + 2
        assert corridors.cells.tolist() == [[0, 0]] * 8 + [[0, 1]] * 8

    def test_a_failed_separator_leaves_no_face(self):
        for (sets, sc), slots in (
            (inseparable_pair(), [(0, 0, 6), (1, 0, 6)]),
            (robot_through_obstacle(), [(0, 0, 6)]),
        ):
            corridors, empty = self.assert_layout(sets, sc)
            assert [tuple(s) for s in np.argwhere(empty)] == slots
            assert len(corridors.cells) == empty.size - len(slots)
            for t, k, _ in slots:
                # the corridor keeps every other slot's face
                assert (corridors.cells == (t, k)).all(axis=1).sum() == corridors.slots - 1
