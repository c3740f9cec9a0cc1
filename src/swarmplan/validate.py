"""Independent validation of plans and trajectories.

Everything in here re-derives safety from first principles rather than
trusting planner internals: grid plans are compared against a
breadth-first search over joint configurations, and continuous
trajectories are sampled densely and checked against the ellipsoid
metric, the obstacle clearance and the workspace box.  The smoothness
requirements are checked exactly rather than sampled: a Bernstein curve
starts at its first control point and ends at its last, so rest endpoints
and knot continuity are read off the control points of the derivative
curves.  Dynamic feasibility comes from differential flatness:
the thrust vector is the acceleration plus gravity, and the body
angular rate is the component of jerk orthogonal to the thrust,
divided by the thrust magnitude.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .bezier_opt import stacked_points

GRAVITY = 9.81
# how far below its threshold a sampled clearance, or how far outside the
# workspace box a sample, may fall and still pass
_PAIR_TOL = 1e-6
_OBSTACLE_TOL = 1e-6
_WORKSPACE_TOL = 1e-6
# endpoint-rest and knot-jump tolerance, relative to each order's scale
_SMOOTHNESS_TOL = 1e-5
_ORACLE_MAX_STATES = 2_000_000

_MOVES = (
    (0, 0, 0),
    (1, 0, 0),
    (-1, 0, 0),
    (0, 1, 0),
    (0, -1, 0),
    (0, 0, 1),
    (0, 0, -1),
)


class OracleBudgetError(Exception):
    """The joint-configuration search exceeded its state budget."""


def mapf_oracle(scenario):
    """Optimal number of synchronized steps, by joint-state search.

    Robots are interchangeable, so configurations are canonicalized as
    sorted cell tuples.  A joint move is legal when all targets are free
    and distinct, no pair swaps cells or crosses the same horizontal
    edge in opposite directions at heights closer than the ellipsoid
    height, and the new configuration keeps every vertical column gap.
    Returns (steps, configs) where configs is one optimal sequence of
    canonical configurations, or raises when the scenario is unsolvable
    or the state budget runs out.
    """
    cs = scenario.grid.cell_size
    threshold = 2.0 * scenario.radii[2] - 1e-9

    def column_ok(cells):
        for a, b in itertools.combinations(cells, 2):
            if a[:2] == b[:2] and abs(a[2] - b[2]) * cs < threshold:
                return False
        return True

    def transition_ok(old, new):
        for (a1, b1), (a2, b2) in itertools.combinations(zip(old, new), 2):
            if b1 == b2:
                return False
            if a1 == b2 and a2 == b1 and a1 != a2:
                return False
            if (
                a1[:2] != b1[:2]
                and a1[:2] == b2[:2]
                and b1[:2] == a2[:2]
                and abs(a1[2] - b2[2]) * cs < threshold
                and abs(b1[2] - a2[2]) * cs < threshold
            ):
                return False
        return True

    start = tuple(sorted(scenario.starts))
    goal = tuple(sorted(scenario.goals))
    if not column_ok(start) or not column_ok(goal):
        raise ValueError("start or goal configuration violates the column rule")

    def successors(config):
        per_robot = []
        for c in config:
            options = []
            for dx, dy, dz in _MOVES:
                t = (c[0] + dx, c[1] + dy, c[2] + dz)
                if scenario.is_free(t):
                    options.append(t)
            per_robot.append(options)
        for choice in itertools.product(*per_robot):
            if len(set(choice)) != len(choice):
                continue
            if not transition_ok(config, choice):
                continue
            if not column_ok(choice):
                continue
            yield tuple(sorted(choice))

    parent = {start: None}
    queue = deque([start])
    while queue:
        config = queue.popleft()
        if config == goal:
            path = []
            node = config
            while node is not None:
                path.append(node)
                node = parent[node]
            path.reverse()
            return len(path) - 1, path
        for nxt in successors(config):
            if nxt not in parent:
                if len(parent) >= _ORACLE_MAX_STATES:
                    raise OracleBudgetError(
                        f"joint search exceeded {_ORACLE_MAX_STATES} states"
                    )
                parent[nxt] = config
                queue.append(nxt)
    raise ValueError("no synchronized plan exists for this scenario")


def _sample_times(duration, sample_dt):
    count = max(2, int(round(duration / sample_dt)) + 1)
    return np.linspace(0.0, duration, count)


def sample_positions(trajectories, sample_dt=1e-3):
    """Stacked samples (robots, times, 3) on the common time grid."""
    duration = max(t.duration for t in trajectories)
    ts = _sample_times(duration, sample_dt)
    return ts, np.stack([t.evaluate_many(ts) for t in trajectories])


def pairwise_clearance_profile(positions, ellipsoid):
    """Minimum scaled pairwise distance at each sample time."""
    scaled = positions / np.asarray(ellipsoid.radii)
    n = positions.shape[0]
    if n < 2:
        return np.full(positions.shape[1], np.inf)
    mins = np.full(positions.shape[1], np.inf)
    for i in range(n):
        for j in range(i + 1, n):
            d = np.linalg.norm(scaled[i] - scaled[j], axis=1)
            mins = np.minimum(mins, d)
    return mins


def obstacle_clearance_profile(positions, scenario):
    """Minimum scaled box distance at each sample time.

    The scaled distance from a point to an axis-aligned box is the norm
    of the per-axis overshoot beyond the box, divided by the clearance
    radii; at least 1 keeps the robot clear of the obstacle.
    """
    boxes = scenario.obstacle_boxes()
    if not boxes:
        return np.full(positions.shape[1], np.inf)
    radii = np.asarray(scenario.obstacle_ellipsoid.radii)
    mins = np.full(positions.shape[1], np.inf)
    flat = positions.reshape(-1, 3)
    for box in boxes:
        lo, hi = box.world_box(scenario.grid)
        over = np.maximum(np.maximum(lo - flat, flat - hi), 0.0) / radii
        dist = np.linalg.norm(over, axis=1).reshape(positions.shape[:2])
        mins = np.minimum(mins, dist.min(axis=0))
    return mins


def workspace_violation(positions, scenario):
    lo, hi = scenario.grid.workspace_box()
    under = (lo - positions).max()
    over = (positions - hi).max()
    return float(max(under, over))


def dynamics_metrics(trajectories, sample_dt=0.01, gravity=GRAVITY):
    """Peak flat-output dynamics over a common sample grid.

    Returns peak speed, acceleration, thrust (acceleration plus gravity,
    in m/s^2 per unit mass) and body angular rate.  gravity=0 gives the
    kinematic body rate, which obeys the exact 1/s law under temporal
    scaling; with gravity the constant hover term breaks exact scaling.
    """
    duration = max(t.duration for t in trajectories)
    ts = _sample_times(duration, sample_dt)
    peak = {"speed": 0.0, "accel": 0.0, "thrust": 0.0, "omega": 0.0}
    for traj in trajectories:
        vel = traj.evaluate_many(ts, 1)
        acc = traj.evaluate_many(ts, 2)
        jerk = traj.evaluate_many(ts, 3)
        thrust = acc + np.array([0.0, 0.0, gravity])
        tnorm = np.linalg.norm(thrust, axis=1)
        # the body rate is undefined where the thrust vanishes (at rest
        # with gravity=0): thrust at the rounding level of its peak has no
        # direction, and dividing jerk noise by it reports no rotation
        pointed = tnorm > 1e-9 * tnorm.max()
        tnorm_safe = np.where(pointed, tnorm, 1.0)
        unit = thrust / tnorm_safe[:, None]
        jerk_par = np.sum(jerk * unit, axis=1)[:, None] * unit
        omega = np.where(pointed, np.linalg.norm(jerk - jerk_par, axis=1) / tnorm_safe, 0.0)
        peak["speed"] = max(peak["speed"], float(np.linalg.norm(vel, axis=1).max()))
        peak["accel"] = max(peak["accel"], float(np.linalg.norm(acc, axis=1).max()))
        peak["thrust"] = max(peak["thrust"], float(tnorm.max()))
        peak["omega"] = max(peak["omega"], float(omega.max()))
    return peak


def smoothness_report(trajectories, continuity):
    """Endpoint rest and knot continuity violations, scaled relative to
    the largest derivative magnitude of the same order.

    A Bernstein curve starts at its first control point and ends at its
    last, so every endpoint and knot derivative is read off the control
    points of the derivative curves, with no curve evaluation.
    """
    problems = []
    for r, traj in enumerate(trajectories):
        heads, tails, scales = [], [], []
        for order in range(continuity + 1):
            pts, degrees = stacked_points(traj.pieces, order)
            heads.append(pts[:, 0])
            tails.append(pts[np.arange(len(pts)), degrees])
            scales.append(1.0 if order == 0 else max(1.0, float(np.abs(pts).max())))
        for order in range(1, continuity + 1):
            for label, point in (("start", heads[order][0]), ("end", tails[order][-1])):
                v = np.linalg.norm(point)
                if v > _SMOOTHNESS_TOL * scales[order]:
                    problems.append(
                        f"robot {r} order-{order} derivative at {label} is {v:.3e}"
                    )
        # (order, knot) gaps between each piece's end and the next one's start
        gaps = np.linalg.norm(np.array(tails)[:, :-1] - np.array(heads)[:, 1:], axis=2)
        for k, order in zip(*np.nonzero(gaps.T > _SMOOTHNESS_TOL * np.array(scales))):
            problems.append(
                f"robot {r} order-{order} jump {gaps[order, k]:.3e} at knot {k + 1}"
            )
    return problems


@dataclass
class ValidationReport:
    ok: bool
    min_pair_clearance: float
    min_obstacle_clearance: float
    workspace_overrun: float
    peaks: dict
    smoothness_problems: list = field(default_factory=list)
    endpoint_problems: list = field(default_factory=list)
    sample_dt: float = 1e-3

    def to_dict(self):
        return {
            "ok": self.ok,
            "min_pair_clearance": self.min_pair_clearance,
            "min_obstacle_clearance": self.min_obstacle_clearance,
            "workspace_overrun": self.workspace_overrun,
            "peaks": dict(self.peaks),
            "smoothness_problems": list(self.smoothness_problems),
            "endpoint_problems": list(self.endpoint_problems),
            "sample_dt": self.sample_dt,
        }

    def save(self, path):
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")


def validate_trajectories(
    trajectories,
    scenario,
    expected_starts=None,
    expected_goals=None,
    sample_dt=1e-3,
):
    """Full safety and smoothness audit of a trajectory set.

    Clearance thresholds are 2 for the pairwise ellipsoid metric and 1
    for the scaled obstacle distance, each minus its tolerance (_PAIR_TOL,
    _OBSTACLE_TOL); the workspace overrun may be at most _WORKSPACE_TOL.
    """
    ts, positions = sample_positions(trajectories, sample_dt)
    pair = pairwise_clearance_profile(positions, scenario.robot_ellipsoid)
    obstacle = obstacle_clearance_profile(positions, scenario)
    overrun = workspace_violation(positions, scenario)
    peaks = dynamics_metrics(trajectories, sample_dt=max(sample_dt, 1e-3))
    smooth = smoothness_report(trajectories, scenario.continuity)

    endpoint_problems = []
    if expected_starts is not None:
        for r, want in enumerate(np.asarray(expected_starts, dtype=float)):
            got = trajectories[r].evaluate(0.0)
            if np.linalg.norm(got - want) > 1e-5:
                endpoint_problems.append(
                    f"robot {r} starts at {got} instead of {want}"
                )
    if expected_goals is not None:
        for r, want in enumerate(np.asarray(expected_goals, dtype=float)):
            got = trajectories[r].evaluate(trajectories[r].duration)
            if np.linalg.norm(got - want) > 1e-5:
                endpoint_problems.append(f"robot {r} ends at {got} instead of {want}")

    ok = (
        float(pair.min()) >= 2.0 - _PAIR_TOL
        and float(obstacle.min()) >= 1.0 - _OBSTACLE_TOL
        and overrun <= _WORKSPACE_TOL
        and not smooth
        and not endpoint_problems
    )
    return ValidationReport(
        ok=bool(ok),
        min_pair_clearance=float(pair.min()),
        min_obstacle_clearance=float(obstacle.min()),
        workspace_overrun=overrun,
        peaks=peaks,
        smoothness_problems=smooth,
        endpoint_problems=endpoint_problems,
        sample_dt=sample_dt,
    )
