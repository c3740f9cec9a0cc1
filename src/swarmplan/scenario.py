"""Scenario definitions: grid world, obstacles, robot start/goal cells.

A scenario lives on a regular axis-aligned grid.  Cells are integer index
triples; cell (0, 0, 0) is centered at the grid origin and neighbors are
one cell_size apart.  Obstacles occupy whole cells.  The workspace is the
axis-aligned box covering all cells out to half a cell beyond the boundary
cell centers.

Scenarios serialize to a flat JSON document.  Unknown keys are rejected so
typos in hand-written files fail loudly instead of silently falling back
to defaults.  Cell indices, the grid's dims, degree, continuity and
refine_iterations must be integral: 9 and 9.0 load, 9.5 is rejected, not
truncated.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .geometry import Ellipsoid, collision_free

DEFAULT_CELL_SIZE = 0.5
DEFAULT_DT = 0.5
DEFAULT_DEGREE = 9
DEFAULT_CONTINUITY = 4
DEFAULT_WEIGHTS = (0.0, 1.0, 0.0, 1.0)
DEFAULT_RADII = (0.12, 0.12, 0.3)
DEFAULT_OBSTACLE_RADIUS = 0.15
DEFAULT_REFINE_ITERATIONS = 6


def _integer(value, name):
    """value as an int; a value that is not integral raises ValueError."""
    if not float(value).is_integer():
        raise ValueError(f"{name} must be integral, got {value!r}")
    return int(value)


def _cell(value):
    c = tuple(_integer(v, f"cell {value!r}") for v in value)
    if len(c) != 3:
        raise ValueError(f"cell must have three indices, got {value!r}")
    return c


@dataclass(frozen=True)
class GridSpec:
    """Regular grid: dims cells per axis, centers cell_size apart."""

    dims: tuple
    cell_size: float = DEFAULT_CELL_SIZE
    origin: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        dims = tuple(_integer(d, "dims") for d in self.dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ValueError("dims must be three positive integers")
        if not 0.0 < self.cell_size < np.inf:
            raise ValueError("cell_size must be finite and positive")
        origin = tuple(float(v) for v in self.origin)
        if len(origin) != 3 or not np.isfinite(origin).all():
            raise ValueError("origin must have three finite coordinates")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "cell_size", float(self.cell_size))
        object.__setattr__(self, "origin", origin)

    def in_bounds(self, cell):
        return all(0 <= c < d for c, d in zip(cell, self.dims))

    def cell_center(self, cell):
        return np.asarray(self.origin) + self.cell_size * np.asarray(cell, dtype=float)

    def cell_centers(self, cells):
        return np.asarray(self.origin) + self.cell_size * np.asarray(cells, dtype=float).reshape(-1, 3)

    def workspace_box(self):
        """(lo, hi) corners of the full workspace."""
        lo = np.asarray(self.origin) - 0.5 * self.cell_size
        hi = (
            np.asarray(self.origin)
            + self.cell_size * (np.asarray(self.dims, dtype=float) - 1.0)
            + 0.5 * self.cell_size
        )
        return lo, hi

    @property
    def manhattan_diameter(self):
        return sum(d - 1 for d in self.dims)

    def all_cells(self):
        return itertools.product(*(range(d) for d in self.dims))


@dataclass(frozen=True)
class ObstacleBox:
    """Inclusive cell-index range [lo, hi] occupied by obstacle cells."""

    lo: tuple
    hi: tuple

    def world_box(self, grid):
        box_lo = grid.cell_center(self.lo) - 0.5 * grid.cell_size
        box_hi = grid.cell_center(self.hi) + 0.5 * grid.cell_size
        return box_lo, box_hi

    def vertices(self, grid):
        lo, hi = self.world_box(grid)
        corners = itertools.product(*zip(lo, hi))
        return np.array(list(corners))


def _merge_along(boxes, axis):
    """One greedy pass over boxes one cell thick along axis: in order, each
    box not yet absorbed extends over the equal boxes that follow it."""

    def at(corner, value):
        return corner[:axis] + (value,) + corner[axis + 1 :]

    free = set(boxes)
    merged = []
    for lo, hi in boxes:
        if (lo, hi) not in free:
            continue
        top = hi[axis]
        while (at(lo, top + 1), at(hi, top + 1)) in free:
            top += 1
            free.discard((at(lo, top), at(hi, top)))
        merged.append((lo, at(hi, top)))
    return merged


def merge_obstacle_cells(cells):
    """Greedily merge unit obstacle cells into axis-aligned boxes.

    Runs along +x first, then fuses equal runs along +y, then equal
    rectangles along +z.  The result covers exactly the input cells.
    """
    boxes = [(c, c) for c in sorted(set(map(tuple, cells)))]
    for axis in range(3):
        boxes = _merge_along(boxes, axis)
    return [ObstacleBox(lo, hi) for lo, hi in boxes]


_SCENARIO_KEYS = {
    "grid",
    "obstacles",
    "starts",
    "goals",
    "dt",
    "degree",
    "continuity",
    "weights",
    "radii",
    "obstacle_radius",
    "refine_iterations",
}
_GRID_KEYS = {"dims", "cell_size", "origin"}


@dataclass
class ScenarioSpec:
    """Full planning problem: world, robots, and solver parameters."""

    grid: GridSpec
    starts: list
    goals: list
    obstacles: list = field(default_factory=list)
    dt: float = DEFAULT_DT
    degree: int = DEFAULT_DEGREE
    continuity: int = DEFAULT_CONTINUITY
    weights: tuple = DEFAULT_WEIGHTS
    radii: tuple = DEFAULT_RADII
    obstacle_radius: float = DEFAULT_OBSTACLE_RADIUS
    refine_iterations: int = DEFAULT_REFINE_ITERATIONS

    def __post_init__(self):
        self.starts = [_cell(c) for c in self.starts]
        self.goals = [_cell(c) for c in self.goals]
        self.obstacles = sorted({_cell(c) for c in self.obstacles})
        self.weights = tuple(float(w) for w in self.weights)
        self.radii = tuple(float(r) for r in self.radii)
        self.dt = float(self.dt)
        self.degree = _integer(self.degree, "degree")
        self.continuity = _integer(self.continuity, "continuity")
        self.obstacle_radius = float(self.obstacle_radius)
        self.refine_iterations = _integer(self.refine_iterations, "refine_iterations")
        obstacles = set(self.obstacles)
        self._free = frozenset(c for c in self.grid.all_cells() if c not in obstacles)
        self.validate()

    @property
    def num_robots(self):
        return len(self.starts)

    @property
    def robot_ellipsoid(self):
        return Ellipsoid(self.radii)

    @property
    def obstacle_ellipsoid(self):
        r = self.obstacle_radius
        return Ellipsoid((r, r, r))

    def is_free(self, cell):
        return tuple(cell) in self._free

    def free_cells(self):
        return [c for c in self.grid.all_cells() if c in self._free]

    def obstacle_boxes(self):
        return merge_obstacle_cells(self.obstacles)

    def validate(self):
        if not 0.0 < self.dt < np.inf:
            raise ValueError("dt must be finite and positive")
        if self.continuity < 1:
            raise ValueError("continuity must be at least 1")
        if self.degree < 2 * self.continuity + 1:
            raise ValueError(
                f"degree {self.degree} too low: the endpoint derivative "
                f"constraints need degree >= 2*continuity + 1 = {2 * self.continuity + 1}"
            )
        if not self.weights or len(self.weights) > self.degree:
            raise ValueError("weights must list costs for derivatives 1..c with c <= degree")
        if not all(0.0 <= w < np.inf for w in self.weights) or not any(w > 0 for w in self.weights):
            raise ValueError("weights must be finite and nonnegative with at least one positive entry")
        if len(self.radii) != 3 or not all(0.0 < r < np.inf for r in self.radii):
            raise ValueError("radii must be three finite positive numbers")
        if not 0.0 < self.obstacle_radius < np.inf:
            raise ValueError("obstacle_radius must be finite and positive")
        if self.refine_iterations < 0:
            raise ValueError("refine_iterations must be nonnegative")
        # Horizontally adjacent robots must already satisfy the ellipsoid
        # separation, otherwise no grid plan is ever collision free.
        if self.grid.cell_size <= 2.0 * max(self.radii[0], self.radii[1]):
            raise ValueError(
                f"cell_size {self.grid.cell_size} must exceed twice the "
                f"horizontal radius {max(self.radii[0], self.radii[1])}"
            )
        # A robot in a free cell next to an obstacle cell is half a cell
        # from its box, so no plan keeps a larger clearance radius.
        if self.obstacles and self.obstacle_radius > 0.5 * self.grid.cell_size:
            raise ValueError(
                f"obstacle_radius {self.obstacle_radius} must not exceed half "
                f"the cell_size {self.grid.cell_size}"
            )

        if len(self.starts) != len(self.goals):
            raise ValueError("starts and goals must pair up one to one")
        if not self.starts:
            raise ValueError("at least one robot is required")
        if len(set(self.starts)) != len(self.starts):
            raise ValueError("duplicate start cells")
        if len(set(self.goals)) != len(self.goals):
            raise ValueError("duplicate goal cells")

        for label, cells in (("obstacle", self.obstacles), ("start", self.starts), ("goal", self.goals)):
            for c in cells:
                if not self.grid.in_bounds(c):
                    raise ValueError(f"{label} cell {c} out of bounds for dims {self.grid.dims}")
        for label, cells in (("start", self.starts), ("goal", self.goals)):
            for c in cells:
                if c not in self._free:
                    raise ValueError(f"{label} cell {c} lies inside an obstacle")

        # Robots sit at starts (and later goals) simultaneously, so those
        # configurations must be pairwise collision free.
        ell = self.robot_ellipsoid
        for label, cells in (("start", self.starts), ("goal", self.goals)):
            pts = self.grid.cell_centers(cells)
            for i in range(len(cells)):
                for j in range(i + 1, len(cells)):
                    if not collision_free(pts[i], pts[j], ell):
                        raise ValueError(
                            f"{label} cells {cells[i]} and {cells[j]} violate the "
                            f"ellipsoid separation"
                        )

    def to_dict(self):
        return {
            "grid": {
                "dims": list(self.grid.dims),
                "cell_size": self.grid.cell_size,
                "origin": list(self.grid.origin),
            },
            "obstacles": [list(c) for c in self.obstacles],
            "starts": [list(c) for c in self.starts],
            "goals": [list(c) for c in self.goals],
            "dt": self.dt,
            "degree": self.degree,
            "continuity": self.continuity,
            "weights": list(self.weights),
            "radii": list(self.radii),
            "obstacle_radius": self.obstacle_radius,
            "refine_iterations": self.refine_iterations,
        }

    def save(self, path):
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def from_dict(cls, data):
        """The scenario a parsed JSON document describes; a value of the
        wrong type (a list for the grid, a number for the starts, a
        nested cell index) raises ValueError like any other bad value."""
        try:
            unknown = set(data) - _SCENARIO_KEYS
            if unknown:
                raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
            if "grid" not in data:
                raise ValueError("scenario requires a grid")
            grid_data = dict(data["grid"])
            unknown = set(grid_data) - _GRID_KEYS
            if unknown:
                raise ValueError(f"unknown grid keys: {sorted(unknown)}")
            if "dims" not in grid_data:
                raise ValueError("grid requires dims")
            grid = GridSpec(
                dims=grid_data["dims"],
                cell_size=grid_data.get("cell_size", DEFAULT_CELL_SIZE),
                origin=tuple(grid_data.get("origin", (0.0, 0.0, 0.0))),
            )
            for key in ("starts", "goals"):
                if key not in data:
                    raise ValueError(f"scenario requires {key}")
            kwargs = {k: data[k] for k in _SCENARIO_KEYS - {"grid"} if k in data}
            return cls(grid=grid, **kwargs)
        except TypeError as exc:
            raise ValueError(f"scenario value of the wrong type: {exc}") from exc

    @classmethod
    def load(cls, path):
        with open(path) as f:
            data = json.load(f)
        if not isinstance(data, dict):
            raise ValueError("scenario file must hold a JSON object")
        return cls.from_dict(data)
