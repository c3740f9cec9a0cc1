import dataclasses
import json
import os

import numpy as np
import pytest

from swarmplan.cli import main as cli_main
from swarmplan.discrete_planner import solve_discrete
from swarmplan.refine import refine_trajectories
from swarmplan.scenario import (
    GridSpec,
    ObstacleBox,
    ScenarioSpec,
    merge_obstacle_cells,
)


SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def base_scenario(**overrides):
    kwargs = dict(
        grid=GridSpec(dims=(3, 3, 2), cell_size=0.5),
        starts=[(0, 0, 0), (2, 0, 0)],
        goals=[(2, 2, 0), (0, 2, 0)],
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


class TestGridSpec:
    def test_cell_center_respects_origin_and_spacing(self):
        grid = GridSpec(dims=(4, 4, 2), cell_size=0.5, origin=(1.0, -2.0, 0.25))
        assert np.allclose(grid.cell_center((0, 0, 0)), [1.0, -2.0, 0.25])
        assert np.allclose(grid.cell_center((2, 1, 1)), [2.0, -1.5, 0.75])

    def test_in_bounds(self):
        grid = GridSpec(dims=(2, 3, 1))
        assert grid.in_bounds((0, 0, 0))
        assert grid.in_bounds((1, 2, 0))
        assert not grid.in_bounds((2, 0, 0))
        assert not grid.in_bounds((0, -1, 0))
        assert not grid.in_bounds((0, 0, 1))

    def test_workspace_box_extends_half_cell_past_centers(self):
        grid = GridSpec(dims=(4, 2, 3), cell_size=0.5)
        lo, hi = grid.workspace_box()
        assert np.allclose(lo, [-0.25, -0.25, -0.25])
        assert np.allclose(hi, [1.75, 0.75, 1.25])

    def test_manhattan_diameter(self):
        assert GridSpec(dims=(4, 4, 2)).manhattan_diameter == 3 + 3 + 1

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            GridSpec(dims=(0, 2, 2))
        with pytest.raises(ValueError):
            GridSpec(dims=(2, 2))
        with pytest.raises(ValueError):
            GridSpec(dims=(2, 2, 2), cell_size=0.0)

    def test_all_cells_count(self):
        grid = GridSpec(dims=(3, 2, 2))
        assert len(list(grid.all_cells())) == 12


class TestObstacleMerging:
    def test_single_cell(self):
        boxes = merge_obstacle_cells([(1, 2, 0)])
        assert len(boxes) == 1
        assert boxes[0].lo == (1, 2, 0)
        assert boxes[0].hi == (1, 2, 0)

    def test_solid_block_becomes_one_box(self):
        cells = [(x, y, z) for x in range(3) for y in range(2) for z in range(2)]
        boxes = merge_obstacle_cells(cells)
        assert len(boxes) == 1
        assert boxes[0].lo == (0, 0, 0)
        assert boxes[0].hi == (2, 1, 1)

    def test_empty(self):
        assert merge_obstacle_cells([]) == []

    def test_cover_is_exact_partition(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            cells = {
                tuple(int(v) for v in rng.integers(0, 4, size=3))
                for _ in range(rng.integers(1, 20))
            }
            boxes = merge_obstacle_cells(cells)
            covered = []
            for box in boxes:
                for x in range(box.lo[0], box.hi[0] + 1):
                    for y in range(box.lo[1], box.hi[1] + 1):
                        for z in range(box.lo[2], box.hi[2] + 1):
                            covered.append((x, y, z))
            assert len(covered) == len(set(covered))  # no overlap
            assert set(covered) == cells

    def test_world_box_and_vertices(self):
        grid = GridSpec(dims=(4, 4, 4), cell_size=0.5)
        box = ObstacleBox((1, 1, 0), (2, 1, 1))
        lo, hi = box.world_box(grid)
        assert np.allclose(lo, [0.25, 0.25, -0.25])
        assert np.allclose(hi, [1.25, 0.75, 0.75])
        verts = box.vertices(grid)
        assert verts.shape == (8, 3)
        assert np.allclose(verts.min(axis=0), lo)
        assert np.allclose(verts.max(axis=0), hi)


class TestScenarioValidation:
    def test_valid_scenario_builds(self):
        sc = base_scenario()
        assert sc.num_robots == 2
        assert sc.degree == 9
        assert sc.continuity == 4

    def test_degree_must_cover_endpoint_constraints(self):
        with pytest.raises(ValueError, match="degree"):
            base_scenario(degree=8, continuity=4)
        base_scenario(degree=9, continuity=4)
        base_scenario(degree=5, continuity=2)

    def test_cell_size_must_clear_horizontal_diameter(self):
        with pytest.raises(ValueError, match="cell_size"):
            base_scenario(grid=GridSpec(dims=(3, 3, 2), cell_size=0.24))
        with pytest.raises(ValueError, match="cell_size"):
            base_scenario(grid=GridSpec(dims=(3, 3, 2), cell_size=0.2))

    def test_vertically_adjacent_starts_rejected(self):
        # dz = 0.5 < 2 * 0.3, so stacked neighbors already collide
        with pytest.raises(ValueError, match="separation"):
            base_scenario(starts=[(0, 0, 0), (0, 0, 1)], goals=[(2, 2, 0), (2, 2, 1)])

    def test_horizontally_adjacent_starts_allowed(self):
        base_scenario(starts=[(0, 0, 0), (1, 0, 0)], goals=[(2, 2, 0), (1, 2, 0)])

    def test_duplicate_cells_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            base_scenario(starts=[(0, 0, 0), (0, 0, 0)], goals=[(2, 2, 0), (0, 2, 0)])
        with pytest.raises(ValueError, match="duplicate"):
            base_scenario(goals=[(2, 2, 0), (2, 2, 0)])

    def test_start_goal_count_mismatch(self):
        with pytest.raises(ValueError, match="pair up"):
            base_scenario(goals=[(2, 2, 0)])

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="out of bounds"):
            base_scenario(starts=[(0, 0, 0), (3, 0, 0)])
        with pytest.raises(ValueError, match="out of bounds"):
            base_scenario(obstacles=[(0, 0, 5)])

    def test_start_inside_obstacle_rejected(self):
        with pytest.raises(ValueError, match="obstacle"):
            base_scenario(obstacles=[(0, 0, 0)])

    def test_weights_validation(self):
        with pytest.raises(ValueError, match="weights"):
            base_scenario(weights=(0.0, 0.0))
        with pytest.raises(ValueError, match="weights"):
            base_scenario(weights=(1.0, -1.0))
        with pytest.raises(ValueError, match="weights"):
            base_scenario(weights=())

    def test_parameter_sanity(self):
        with pytest.raises(ValueError):
            base_scenario(dt=0.0)
        with pytest.raises(ValueError):
            base_scenario(radii=(0.12, 0.12))
        with pytest.raises(ValueError):
            base_scenario(obstacle_radius=-0.1)
        with pytest.raises(ValueError):
            base_scenario(refine_iterations=-1)
        with pytest.raises(ValueError):
            base_scenario(continuity=0)

    def test_obstacle_radius_above_half_a_cell_rejected(self, tmp_path, capsys):
        # wall_windows_8 (cell size 0.5) has free cells beside its wall's
        # obstacle cells, half a cell from the wall's box; at 0.2501 its
        # straight-line baseline fails validation, so the plan exits
        # without a refinement round
        data = ScenarioSpec.load(os.path.join(SCENARIO_DIR, "wall_windows_8.json")).to_dict()
        data["obstacle_radius"] = 0.2501
        with pytest.raises(ValueError, match="obstacle_radius 0.2501 must not exceed half"):
            ScenarioSpec.from_dict(data)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert cli_main(["plan", "--scenario", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: obstacle_radius 0.2501")
        assert not out.exists()
        # no obstacle cell, no bound
        base_scenario(obstacle_radius=1.0)

    def test_obstacle_radius_of_half_a_cell_plans_and_validates(self):
        sc = ScenarioSpec.load(os.path.join(SCENARIO_DIR, "wall_windows_8.json"))
        sc = dataclasses.replace(sc, obstacle_radius=0.25)
        result = refine_trajectories(solve_discrete(sc).postprocessed(), sc, iterations=1)
        assert len(result.rows) == 1
        assert result.validation.ok

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "field", ["cell_size", "origin", "dt", "radii", "obstacle_radius", "weights"]
    )
    def test_non_finite_numbers_rejected(self, field, value):
        build = {
            "cell_size": lambda: GridSpec(dims=(3, 3, 2), cell_size=value),
            "origin": lambda: GridSpec(dims=(3, 3, 2), origin=(0.0, value, 0.0)),
            "dt": lambda: base_scenario(dt=value),
            "radii": lambda: base_scenario(radii=(0.12, 0.12, value)),
            "obstacle_radius": lambda: base_scenario(obstacle_radius=value),
            "weights": lambda: base_scenario(weights=(0.0, 1.0, value)),
        }[field]
        with pytest.raises(ValueError, match=field):
            build()


class TestSerialization:
    def test_round_trip_through_dict(self):
        sc = base_scenario(
            obstacles=[(1, 1, 0), (1, 1, 1)],
            dt=0.4,
            weights=(0.0, 2.0, 0.0, 1.0),
        )
        again = ScenarioSpec.from_dict(sc.to_dict())
        assert again.to_dict() == sc.to_dict()

    def test_round_trip_through_file(self, tmp_path):
        sc = base_scenario(obstacles=[(1, 1, 0)])
        path = tmp_path / "scenario.json"
        sc.save(path)
        again = ScenarioSpec.load(path)
        assert again.to_dict() == sc.to_dict()

    def test_unknown_keys_rejected(self):
        data = base_scenario().to_dict()
        data["extra"] = 1
        with pytest.raises(ValueError, match="unknown scenario keys"):
            ScenarioSpec.from_dict(data)

    def test_samples_per_piece_key_rejected(self, tmp_path, capsys):
        # corridors separate each piece's control points, so no setting
        # picks a number of curve samples, and a file that names one fails
        data = base_scenario().to_dict()
        data["samples_per_piece"] = 32
        with pytest.raises(ValueError, match=r"unknown scenario keys: \['samples_per_piece'\]"):
            ScenarioSpec.from_dict(data)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert cli_main(["plan", "--scenario", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "samples_per_piece" in err[0]
        assert not out.exists()

    def test_unknown_grid_keys_rejected(self):
        data = base_scenario().to_dict()
        data["grid"]["spacing"] = 0.5
        with pytest.raises(ValueError, match="unknown grid keys"):
            ScenarioSpec.from_dict(data)

    def test_missing_required_keys(self):
        data = base_scenario().to_dict()
        no_grid = {k: v for k, v in data.items() if k != "grid"}
        with pytest.raises(ValueError, match="grid"):
            ScenarioSpec.from_dict(no_grid)
        no_goals = {k: v for k, v in data.items() if k != "goals"}
        with pytest.raises(ValueError, match="goals"):
            ScenarioSpec.from_dict(no_goals)

    def test_defaults_fill_in(self):
        sc = ScenarioSpec.from_dict(
            {
                "grid": {"dims": [3, 3, 2]},
                "starts": [[0, 0, 0]],
                "goals": [[2, 2, 1]],
            }
        )
        assert sc.grid.cell_size == 0.5
        assert sc.dt == 0.5
        assert sc.weights == (0.0, 1.0, 0.0, 1.0)
        assert sc.radii == (0.12, 0.12, 0.3)
        assert sc.refine_iterations == 6

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ValueError):
            ScenarioSpec.load(path)

    def test_non_integer_cells_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec.from_dict(
                {
                    "grid": {"dims": [3, 3, 2]},
                    "starts": [[0.5, 0, 0]],
                    "goals": [[2, 2, 1]],
                }
            )

    @pytest.mark.parametrize(
        "key, value",
        [("degree", 9.5), ("continuity", 4.5), ("refine_iterations", 2.5), ("dims", [3.5, 3, 2])],
    )
    def test_non_integer_counts_rejected_not_truncated(self, key, value):
        data = base_scenario().to_dict()
        if key == "dims":
            data["grid"]["dims"] = value
        else:
            data[key] = value
        with pytest.raises(ValueError, match=f"{key} must be integral"):
            ScenarioSpec.from_dict(data)

    def test_integral_floats_load(self):
        data = base_scenario().to_dict()
        data.update(degree=9.0, continuity=4.0, refine_iterations=2.0)
        data["grid"]["dims"] = [3.0, 3, 2.0]
        data["starts"] = [[0.0, 0, 0], [2, 0.0, 0]]
        sc = ScenarioSpec.from_dict(data)
        assert (sc.degree, sc.continuity, sc.refine_iterations) == (9, 4, 2)
        assert sc.grid.dims == (3, 3, 2) and sc.starts == [(0, 0, 0), (2, 0, 0)]
        assert all(type(v) is int for v in (sc.degree, *sc.grid.dims, *sc.starts[1]))


class TestScenarioQueries:
    def test_free_cells_excludes_obstacles(self):
        sc = base_scenario(obstacles=[(1, 1, 0), (1, 1, 1)])
        free = sc.free_cells()
        assert (1, 1, 0) not in free
        assert (0, 0, 0) in free
        assert len(free) == 3 * 3 * 2 - 2

    def test_is_free(self):
        sc = base_scenario(obstacles=[(1, 1, 0)])
        assert sc.is_free((0, 1, 0))
        assert not sc.is_free((1, 1, 0))
        assert not sc.is_free((5, 5, 5))

    def test_obstacle_boxes_cover_obstacles(self):
        sc = base_scenario(obstacles=[(1, 1, 0), (1, 1, 1), (1, 2, 0), (1, 2, 1)])
        boxes = sc.obstacle_boxes()
        assert len(boxes) == 1
        assert boxes[0].lo == (1, 1, 0)
        assert boxes[0].hi == (1, 2, 1)

    def test_ellipsoid_properties(self):
        sc = base_scenario()
        assert sc.robot_ellipsoid.radii == (0.12, 0.12, 0.3)
        assert sc.obstacle_ellipsoid.radii == (0.15, 0.15, 0.15)
