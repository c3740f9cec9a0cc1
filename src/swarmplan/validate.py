"""Independent validation of plans and trajectories.

Everything in here re-derives safety from first principles rather than
trusting planner internals: grid plans are compared against a
breadth-first search over joint configurations, and continuous
trajectories are checked against the ellipsoid metric, the obstacle
clearance, the workspace box and the dynamics on a common sample grid
(1 ms in every planning call).  As the planner builds them, the robots of
a set fly one Bezier piece per segment of the shared synchronized plan,
so validation takes one piece layout per set: every robot must have
robot 0's piece durations and degree, or the set is rejected with
ValueError.  Each reported extreme is the extreme over that grid, found
by branch and bound over the pieces: a Bernstein curve stays inside the
convex hull of its control points (Farouki, "The Bernstein polynomial
basis: a centennial retrospective", 2012), so the box around a piece's
control points bounds every sample on it (for a pair of robots, the box
of their control point differences on the piece they share), and a
piece is sampled only while its bound can still reach the running
extreme.  The samples that are taken go through the same arithmetic as a
dense evaluation of the whole grid, so the report equals the dense
sampler's bit for bit.  The verdict needs less: each position search run
from its pass threshold instead of from infinity skips every piece whose
bound clears the threshold, returns the threshold when the check passes
and the exact extreme when it fails.  So validate_trajectories decides ok
that way and leaves the reported extremes and the dynamics peaks to be
computed on first read, by the searches above.  Every bound and sample
reads a derivative's control points as the one (pieces, points, 3) array
the trajectory keeps for that order, so all checks of one validation,
and the planner's own readers, share one computation per order and
trajectory.  The
smoothness requirements are checked exactly rather than sampled: a
Bernstein curve starts at its first control point and ends at its last,
so rest endpoints and knot continuity are read off the control points of
the derivative curves.  Dynamic feasibility comes from differential
flatness: the thrust vector is the acceleration plus gravity, and the body
angular rate is the component of jerk orthogonal to the thrust,
divided by the thrust magnitude.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bezier_opt import bernstein_basis

GRAVITY = 9.81
# how far below its threshold a sampled clearance, or how far outside the
# workspace box a sample, may fall and still pass
_PAIR_TOL = 1e-6
_OBSTACLE_TOL = 1e-6
_WORKSPACE_TOL = 1e-6
# endpoint-rest and knot-jump tolerance, relative to each order's scale
_SMOOTHNESS_TOL = 1e-5
# A piece is skipped only when its control point bound misses the running
# extreme by more than this share of the bound's size (at least 1).  An
# evaluated sample is a few roundings away from the exact curve, so it may
# stray past the exact hull by some 1e-15 of the coordinates' size: the
# slack stays far above that and far below the gaps that save work.
_BOUND_SLACK = 1e-9
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
            if a1 == b2 and a2 == b1:
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


def _extreme(bounds, evaluate, highest=False, initial=np.inf):
    """Smallest value of evaluate(u) over the units u, or the largest with
    highest, and initial when no unit goes past it.

    bounds[u] bounds every value of unit u from below (from above with
    highest).  Units are visited from the most promising bound on, and the
    search stops at the first bound that misses the running extreme by
    more than _BOUND_SLACK of its size; a bound that is not finite never
    stops it.  A NaN value makes the result NaN, as np.min and np.max do.
    """
    sign = -1.0 if highest else 1.0
    keys = sign * np.asarray(bounds, dtype=float)
    keys[~np.isfinite(keys)] = -np.inf
    best = sign * initial
    for u in np.argsort(keys, kind="stable"):
        key = keys[u]
        if key - _BOUND_SLACK * max(1.0, abs(key)) > best:
            break
        value = sign * evaluate(u)
        if value != value:
            return value
        best = min(best, value)
    return sign * best


def _boxes(points):
    """(lo, hi) corners of each piece's control point box, from control
    points stacked along axis -2."""
    return points.min(axis=-2), points.max(axis=-2)


def _max_norm(points):
    """Largest control point norm of each piece."""
    return np.linalg.norm(points, axis=-1).max(axis=-1)


def _box_gap(lo_a, hi_a, lo_b, hi_b, radii):
    """Scaled distance between boxes [lo_a, hi_a] and [lo_b, hi_b]: the
    norm of the per-axis gap divided by the radii (last axis 3)."""
    gap = np.maximum(np.maximum(lo_a - hi_b, lo_b - hi_a), 0.0)
    return np.linalg.norm(gap / radii, axis=-1)


def check_layout(trajectories):
    """Raise ValueError unless the set has a robot and every robot has
    robot 0's piece durations and degree."""
    if not trajectories:
        raise ValueError("no trajectories to validate")
    first = trajectories[0]
    for r, traj in enumerate(trajectories):
        if traj.degree != first.degree or not np.array_equal(traj.durations, first.durations):
            raise ValueError(f"robot {r} does not share robot 0's piece durations and degree")


class _SampleGrid:
    """A trajectory set's common sample grid, evaluated one piece at a time.

    Every robot flies robot 0's piece durations at robot 0's degree, so one
    layout serves the whole set: the times come from _sample_times and the
    piece owning each time from _locate, as in evaluate_many, so every
    piece owns one contiguous window of samples.  All robots share each
    window's Bernstein basis, and a window's rows go through
    evaluate_many's einsum over the same control points, so every value
    equals the dense evaluation's bit for bit.  A set that fails
    check_layout raises ValueError.
    """

    def __init__(self, trajectories, sample_dt):
        check_layout(trajectories)
        first = trajectories[0]
        self.trajectories = trajectories
        self.degree = first.degree
        self.idx, local = first._locate(_sample_times(first.duration, sample_dt))
        self.s = local / first.durations[self.idx]
        self.starts = np.searchsorted(self.idx, np.arange(len(first.durations) + 1))
        # the pieces that own samples
        self.pieces = np.flatnonzero(np.diff(self.starts))
        self._basis = {}
        self._values = {}

    def values(self, r, k, order=0):
        """Robot r's order-th derivative at the samples piece k owns."""
        a, b = self.starts[k], self.starts[k + 1]
        if (k, order) not in self._basis:
            self._basis[k, order] = bernstein_basis(max(self.degree - order, 0), self.s[a:b])
        points = self.trajectories[r].control_points(order)
        # the samples depend on the window and the control points alone, so
        # pieces with equal derivatives (straight moves alike in direction
        # and duration) are evaluated once
        key = (k, order, points[k].tobytes())
        if key not in self._values:
            self._values[key] = np.einsum(
                "ji,jid->jd", self._basis[k, order], points[self.idx[a:b]]
            )
        return self._values[key]


def _position_extremes(trajectories, scenario, sample_dt, initial=(np.inf, np.inf, -np.inf)):
    """Minimum scaled pair distance, minimum scaled obstacle distance and
    largest workspace overrun over the common sample grid, each searched
    from its initial value (_extreme): from the defaults each is exact,
    and from the pass thresholds each is its threshold when it passes and
    exact when it fails.

    Each piece's control point box bounds its samples: the pair distance
    of robots i < j on piece k from below by the box of their control
    point differences, the obstacle distance by the gap between the
    piece's box and the obstacle's, and the overrun from above by the
    box's overrun.  A robot with a control point that is not finite has
    no bound and is sampled first.
    """
    grid = _SampleGrid(trajectories, sample_dt)
    radii = np.asarray(scenario.robot_ellipsoid.radii)
    pieces = grid.pieces
    # (robots, pieces that own samples, points, 3)
    hulls = np.stack([traj.control_points()[pieces] for traj in trajectories])
    hulls[~np.isfinite(hulls).all(axis=(1, 2, 3))] = np.nan
    # one unit per robot piece, robot by robot, with its position box
    units = [(r, k) for r in range(len(trajectories)) for k in pieces]
    lo, hi = (corner.reshape(-1, 3) for corner in _boxes(hulls))

    # one pair unit (i, j, k) per pair i < j, in order, and piece k
    qi, qj = np.triu_indices(len(trajectories), 1)
    pair_bounds = _box_gap(*_boxes(hulls[qi] - hulls[qj]), 0.0, 0.0, radii).ravel()

    scaled = {}

    def scaled_window(r, k):
        if (r, k) not in scaled:
            scaled[r, k] = grid.values(r, k) / radii
        return scaled[r, k]

    def pair_distance(u):
        q, k = divmod(u, len(pieces))
        left, right = scaled_window(qi[q], pieces[k]), scaled_window(qj[q], pieces[k])
        return np.linalg.norm(left - right, axis=1).min()

    pair = _extreme(pair_bounds, pair_distance, initial=initial[0])

    obstacle = initial[1]
    obstacles = [box.world_box(scenario.grid) for box in scenario.obstacle_boxes()]
    if obstacles:
        oradii = np.asarray(scenario.obstacle_ellipsoid.radii)
        olo = np.array([box[0] for box in obstacles])
        ohi = np.array([box[1] for box in obstacles])

        def obstacle_distance(u):
            r, k = units[u // len(obstacles)]
            box_lo, box_hi = obstacles[u % len(obstacles)]
            flat = grid.values(r, k)
            over = np.maximum(np.maximum(box_lo - flat, flat - box_hi), 0.0) / oradii
            return np.linalg.norm(over, axis=1).min()

        gap = _box_gap(lo[:, None], hi[:, None], olo[None], ohi[None], oradii)
        obstacle = _extreme(gap.ravel(), obstacle_distance, initial=initial[1])

    work_lo, work_hi = scenario.grid.workspace_box()

    def overrun_of(u):
        positions = grid.values(*units[u])
        return max((work_lo - positions).max(), (positions - work_hi).max())

    overrun = _extreme(
        np.maximum(work_lo - lo, hi - work_hi).max(axis=1),
        overrun_of,
        highest=True,
        initial=initial[2],
    )
    return float(pair), float(obstacle), float(overrun)


def _body_rate(thrust, tnorm, jerk, pointed):
    """Body angular rate at each sample: the jerk orthogonal to the thrust
    divided by the thrust magnitude where pointed, and 0 elsewhere."""
    tnorm_safe = np.where(pointed, tnorm, 1.0)
    unit = thrust / tnorm_safe[:, None]
    jerk_par = np.sum(jerk * unit, axis=1)[:, None] * unit
    return np.where(pointed, np.linalg.norm(jerk - jerk_par, axis=1) / tnorm_safe, 0.0)


def dynamics_metrics(trajectories, sample_dt=0.01, gravity=GRAVITY):
    """Peak flat-output dynamics over a common sample grid.

    Returns peak speed, acceleration, thrust (acceleration plus gravity,
    in m/s^2 per unit mass) and body angular rate.  gravity=0 gives the
    kinematic body rate, which obeys the exact 1/s law under temporal
    scaling; with gravity the constant hover term breaks exact scaling.

    Each peak is the largest sample, and every peak is NaN when any peak
    is.  A piece is sampled only while its bound can reach the running
    peak: speed, acceleration and thrust are at most the largest norm
    among the control points of the derivative (acceleration plus gravity
    for thrust), and the body rate at most the largest jerk control point
    norm over the distance from the origin to the box of the thrust
    control points.  A robot with a control point that is not finite has
    no bound and is sampled first.
    """
    grid = _SampleGrid(trajectories, sample_dt)
    g = np.array([0.0, 0.0, gravity])
    # one unit per robot piece, robot by robot, as in _position_extremes
    units = [(r, k) for r in range(len(trajectories)) for k in grid.pieces]
    vel, acc, jerk = (
        np.stack([traj.control_points(order)[grid.pieces] for traj in trajectories])
        for order in (1, 2, 3)
    )
    thrust = acc + g
    with np.errstate(divide="ignore", invalid="ignore"):
        bounds = {
            "speed": _max_norm(vel),
            "accel": _max_norm(acc),
            "thrust": _max_norm(thrust),
            "omega": _max_norm(jerk) / _box_gap(*_boxes(thrust), 0.0, 0.0, 1.0),
        }
    finite = np.all([np.isfinite(p).all(axis=(1, 2, 3)) for p in (vel, acc, jerk)], axis=0)
    bounds = {name: np.where(finite[:, None], b, np.nan) for name, b in bounds.items()}
    thrust_bound = bounds["thrust"].max(axis=1)

    thrusts = {}
    # each robot's largest thrust sampled so far
    seen = {}

    def thrust_at(r, k):
        if (r, k) not in thrusts:
            thrust = grid.values(r, k, 2) + g
            tnorm = np.linalg.norm(thrust, axis=1)
            thrusts[r, k] = thrust, tnorm
            seen[r] = max(seen.get(r, 0.0), tnorm.max())
        return thrusts[r, k]

    robot_thrust = {}

    def pointed(r, tnorm):
        # the body rate is undefined where the thrust vanishes (at rest
        # with gravity=0): thrust at the rounding level of the robot's
        # peak has no direction, and dividing jerk noise by it reports no
        # rotation.  The peak lies between the largest thrust sampled so
        # far and the robot's bound; only where a sample falls between
        # those two levels is the robot's whole thrust sampled.
        if r not in robot_thrust:
            top = thrust_bound[r] + _BOUND_SLACK * max(1.0, thrust_bound[r])
            sure = tnorm > 1e-9 * top
            if np.all(sure | (tnorm <= 1e-9 * seen[r])):
                return sure
            robot_thrust[r] = max(thrust_at(r, k)[1].max() for k in grid.pieces)
        return tnorm > 1e-9 * robot_thrust[r]

    def omega(r, k):
        thrust, tnorm = thrust_at(r, k)
        return _body_rate(thrust, tnorm, grid.values(r, k, 3), pointed(r, tnorm)).max()

    evaluate = {
        "speed": lambda r, k: np.linalg.norm(grid.values(r, k, 1), axis=1).max(),
        "accel": lambda r, k: np.linalg.norm(grid.values(r, k, 2), axis=1).max(),
        "thrust": lambda r, k: thrust_at(r, k)[1].max(),
        "omega": omega,
    }
    peak = {}
    for name, peak_of in evaluate.items():
        peak[name] = float(
            _extreme(
                bounds[name].ravel(),
                lambda u: peak_of(*units[u]),
                highest=True,
                initial=0.0,
            )
        )
    if any(np.isnan(value) for value in peak.values()):
        return dict.fromkeys(peak, np.nan)
    return peak


def smoothness_report(trajectories, continuity):
    """Endpoint rest and knot continuity violations, scaled relative to
    the largest derivative magnitude of the same order.

    A Bernstein curve starts at its first control point and ends at its
    last, so every endpoint and knot derivative is read off the control
    points of the derivative curves, with no curve evaluation.  A robot
    with a control point that is not finite is one problem, and its other
    checks are skipped: a NaN compares false with every tolerance.
    """
    problems = []
    for r, traj in enumerate(trajectories):
        if not np.isfinite(traj.points).all():
            problems.append(f"robot {r} has a control point that is not finite")
            continue
        heads, tails, scales = [], [], []
        for order in range(continuity + 1):
            pts = traj.control_points(order)
            heads.append(pts[:, 0])
            tails.append(pts[:, -1])
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
    """A verdict on a trajectory set and the numbers behind it, as given.
    validate_trajectories returns an _AuditReport, which computes the
    numbers it was not given on first read."""

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

    def to_json(self):
        """The report as validation.json holds it: sorted keys, indent 2."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path):
        with open(path, "w") as f:
            f.write(self.to_json())


class _AuditReport(ValidationReport):
    """validate_trajectories' report: ok and the problem lists as decided
    there, and the trajectories and scenario they were decided on.  The
    three position extremes (_position_extremes from its defaults) and the
    peaks (dynamics_metrics) are computed by the exact searches, each once,
    on first read, so a verdict that nothing reads further costs none of
    them.  The report keeps its inputs, not the searches' sample caches."""

    def __init__(
        self, ok, trajectories, scenario, smoothness_problems, endpoint_problems, sample_dt
    ):
        self.ok = ok
        self.smoothness_problems = smoothness_problems
        self.endpoint_problems = endpoint_problems
        self.sample_dt = sample_dt
        self._inputs = (list(trajectories), scenario)

    @cached_property
    def _extremes(self):
        return _position_extremes(*self._inputs, self.sample_dt)

    @cached_property
    def peaks(self):
        return dynamics_metrics(self._inputs[0], sample_dt=max(self.sample_dt, 1e-3))

    min_pair_clearance = property(lambda self: self._extremes[0])
    min_obstacle_clearance = property(lambda self: self._extremes[1])
    workspace_overrun = property(lambda self: self._extremes[2])


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
    ok runs each position search from its threshold, so only the pieces
    whose bound can fail are sampled, and it is the exact extremes'
    verdict.  The report's extremes and peaks come from the exact
    searches, on first read (_AuditReport).  Every check reads the
    derivative control points each trajectory keeps.
    """
    pair, obstacle, overrun = _position_extremes(
        trajectories, scenario, sample_dt, (2.0 - _PAIR_TOL, 1.0 - _OBSTACLE_TOL, _WORKSPACE_TOL)
    )
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
        pair >= 2.0 - _PAIR_TOL
        and obstacle >= 1.0 - _OBSTACLE_TOL
        and overrun <= _WORKSPACE_TOL
        and not smooth
        and not endpoint_problems
    )
    return _AuditReport(bool(ok), trajectories, scenario, smooth, endpoint_problems, sample_dt)
