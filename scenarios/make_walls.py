"""Write the wall teams: wall_windows_8's grid with more robots.

Each team keeps wall_windows_8's grid, wall and windows and every other
setting of that file.  It puts 8 robots in each row, in the columns the
8-robot wall uses, and the same number of rows on each side of the wall
in two layers, z = 1 and z = 3: 16 robots for each row per side.  Start rows run from y = 2 away
from the wall (y = 2, 1, 0); goal rows mirror them (y = 10, 11, 12), and
each goal row lists its columns in the reverse order, as wall_windows_8
does.  Robots are ordered by layer, then row, then column.  No number is
drawn at random, so a team and the time it takes to plan do not depend on
a seed.

Run from the repository root to write wall_windows_32.json (2 rows per
side) and wall_windows_48.json (3 rows per side) next to this file:

    python scenarios/make_walls.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
BASE = HERE / "wall_windows_8.json"

COLUMNS = np.array([1, 2, 4, 5, 7, 8, 10, 11])
LAYERS = np.array([1, 3])
START_Y = 2
GOAL_Y = 10


def team_cells(columns, ys, layers):
    """(len(layers) * len(ys) * len(columns), 3) cells, layer-major, then
    row, then column."""
    z, y, x = np.meshgrid(layers, ys, columns, indexing="ij")
    return np.stack([x, y, z], axis=-1).reshape(-1, 3)


def wall_team(rows):
    """The scenario dict of the wall team with this many rows per side."""
    with open(BASE) as f:
        data = json.load(f)
    away = np.arange(rows)
    data["starts"] = team_cells(COLUMNS, START_Y - away, LAYERS).tolist()
    data["goals"] = team_cells(COLUMNS[::-1], GOAL_Y + away, LAYERS).tolist()
    return data


def team_text(rows):
    """The file contents of the wall team with this many rows per side."""
    return json.dumps(wall_team(rows), indent=2) + "\n"


def team_path(rows):
    return HERE / f"wall_windows_{len(COLUMNS) * len(LAYERS) * rows}.json"


if __name__ == "__main__":
    for rows in (2, 3):
        team_path(rows).write_text(team_text(rows))
        print(team_path(rows))
