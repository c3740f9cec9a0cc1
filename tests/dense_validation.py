"""Dense 1 ms reference for the validation report.

Every robot is sampled at every time of the common grid, and each extreme
is the plain minimum or maximum over all samples.  The package finds the
same extremes by bounding each piece from its control points first; this
module keeps the sampler that does not, as an independent cross-check.
"""

import numpy as np

from swarmplan.validate import (
    _OBSTACLE_TOL,
    _PAIR_TOL,
    _WORKSPACE_TOL,
    GRAVITY,
    ValidationReport,
    smoothness_report,
)


def sample_times(duration, sample_dt):
    count = max(2, int(round(duration / sample_dt)) + 1)
    return np.linspace(0.0, duration, count)


def sample_positions(trajectories, sample_dt=1e-3):
    """Stacked samples (robots, times, 3) on the common time grid."""
    duration = max(t.duration for t in trajectories)
    ts = sample_times(duration, sample_dt)
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
    """Peak speed, acceleration, thrust and body rate over every sample;
    every peak is NaN when any sample is."""
    duration = max(t.duration for t in trajectories)
    ts = sample_times(duration, sample_dt)
    peak = {"speed": 0.0, "accel": 0.0, "thrust": 0.0, "omega": 0.0}
    for traj in trajectories:
        vel = traj.evaluate_many(ts, 1)
        acc = traj.evaluate_many(ts, 2)
        jerk = traj.evaluate_many(ts, 3)
        if any(np.isnan(v).any() for v in (vel, acc, jerk)):
            return dict.fromkeys(peak, np.nan)
        thrust = acc + np.array([0.0, 0.0, gravity])
        tnorm = np.linalg.norm(thrust, axis=1)
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


def validate_trajectories(
    trajectories,
    scenario,
    expected_starts=None,
    expected_goals=None,
    sample_dt=1e-3,
):
    """The validation report with every extreme taken over all samples."""
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
