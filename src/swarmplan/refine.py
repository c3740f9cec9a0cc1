"""Iterative trajectory refinement around a synchronized waypoint plan.

Round zero gives every robot the straight-line rest-to-rest trajectory
along its plan segments, every piece on one fixed ramp whatever its
duration (fallback_trajectory).  Those share one velocity profile, so
the grid plan's safety margins carry over and the set always exists.
Every round builds safe corridors from the current curves' control
points (a straight line's lie on its plan segments) and re-optimizes
every robot inside its corridor.  The robots' smoothing programs are
independent (each sees only its own corridors), so one
optimize_trajectory call per round solves them together as one batched
interior point, in this process.  Each robot's program starts from the
free B-spline coefficients that refinement keeps beside its curve, never
fitted to a curve: those the solver returned with the optimum it flies
now (QPResult.c), whose curve lies in the new corridor, since the
corridor holds its control points (to rounding), so the robot's optimum
costs no more than that curve.  A robot still on its straight line, in
round zero or frozen since, starts from its minimum-cost spline through
its waypoints (waypoint_splines) instead: the straight line costs about
1e6 times round zero's optimum, and the spline reaches the same optimum
in fewer interior-point steps; its corridors are still built from the
straight line.  Each program carries only the corridor faces near its
start; a robot whose answer violates a face it left out is solved again
with it.  Each round logs how its programs stopped, their step range,
the faces they carried out of all slots and how many robots were solved
again.  Each robot's curve is its full program's optimum, the one it
gets when solved alone, within the solver's tolerance.

Failures degrade per robot instead of aborting, by one rule: a robot
without a full corridor (a pair or obstacle separator failed) or with an
infeasible program keeps the curve it flies now, the straight line in
round zero, and the coefficients its next program starts from (each is
logged).  Every pair is tried again in every round, and the other
robots' corridors are built against the kept curves.  A whole round is
discarded, ending refinement, if the resulting set does not validate or
costs more than the set it would replace by more than 1e-9 of that
set's cost, or of 1 where the cost is below 1 (a hovering team's is
about 0), far above the rounding noise of a round in which nothing
moved.  The result is usable after any round and only improves with
more of them.
"""

from __future__ import annotations

import csv
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import opt_engine
from .bezier_opt import fallback_trajectory, optimize_trajectory, waypoint_splines
from .corridor import build_corridors
from .validate import validate_trajectories

_RELATIVE_COST_STOP = 1e-3
# a round is rejected only when it raises the set cost by more than this,
# relative, or absolute below cost 1: handover_3's third round repeats its
# second, and rounding variants of the solver moved it by -2e-12 to
# +1.4e-12
_RELATIVE_COST_RISE = 1e-9


def _total_cost(costs):
    """The set cost: the robots' cost integrals summed in robot order."""
    return float(sum(costs))


@dataclass
class RefinementResult:
    trajectories: list
    validation: object
    rows: list = field(default_factory=list)

    @property
    def ok(self):
        return self.validation.ok


def write_report_csv(rows, path):
    fields = [
        "iteration", "cost", "peak_accel", "peak_omega", "wall_time_s", "fallback_count",
        "failed_count",
    ]
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in fields})


def _qp_summary(results, slots):
    """One line on a round's smoothing programs: how many stopped for each
    reason (failed: no curve came back), and of those that returned a
    curve the range of their interior-point steps, the corridor faces
    their last solves carried out of their slots (slots per robot), and
    how many were solved again with faces they had left out."""
    stops = Counter(
        "failed" if isinstance(out, opt_engine.SolverError) else out[2].stop for out in results
    )
    solved = [out[2] for out in results if not isinstance(out, opt_engine.SolverError)]
    line = f"{len(results)} QPs: " + ", ".join(f"{stops[stop]} {stop}" for stop in sorted(stops))
    if solved:
        steps = [r.iterations for r in solved]
        line += (
            f"; {min(steps)}-{max(steps)} interior-point steps; "
            f"{sum(r.faces for r in solved)} of {slots * len(solved)} corridor faces, "
            f"{sum(r.passes > 1 for r in solved)} solved again"
        )
    return line


def refine_trajectories(plan, scenario, iterations=None, log=None, on_accept=None):
    """Smooth, validated trajectories for a post-processed waypoint plan.

    plan segments and the trajectory pieces correspond one to one.
    Returns a RefinementResult whose trajectories always trace the plan
    endpoints; validation reports on the returned set.

    on_accept(iteration, trajectories) fires for each accepted iterate,
    so anytime consumers can use intermediate sets while later rounds
    keep improving.
    """
    if iterations is None:
        iterations = scenario.refine_iterations
    emit = log or (lambda msg: None)
    n = plan.num_robots
    durations = [plan.dt] * plan.num_segments
    starts = plan.waypoints[:, 0]
    goals = plan.waypoints[:, -1]
    degree = scenario.degree
    continuity = scenario.continuity
    weights = tuple(scenario.weights)

    straight = [
        fallback_trajectory(plan.waypoints[i], durations, degree, continuity)
        for i in range(n)
    ]
    best = list(straight)
    # each robot's cost integral: optimize_trajectory returns it with the curve
    costs = [t.cost(weights) for t in best]
    validation = validate_trajectories(
        best, scenario, expected_starts=starts, expected_goals=goals
    )
    rows = []
    best_cost = _total_cost(costs)
    emit(f"baseline: straight-line set, cost {best_cost:.6g}, ok={validation.ok}")
    if not validation.ok:
        # The grid plan's own margins should make this impossible; hand
        # back the evidence rather than trying to repair it here.
        return RefinementResult(best, validation, rows)

    # each robot's free B-spline coefficients, beside its curve: its
    # waypoint spline's until an accepted optimum replaces them
    coefficients = waypoint_splines(plan.waypoints, durations, degree, continuity, weights)
    for it in range(iterations):
        t0 = time.perf_counter()

        # each piece's control points hold the curve the robot flies now
        corridors = build_corridors(np.stack([t.points for t in best]), scenario)

        # a robot without a full corridor keeps the curve it flies now
        paired = {i for pair in corridors.failed_pairs for i in pair}
        for robots, reason in (
            (corridors.failed_robots, "an obstacle separator failed"),
            (paired, f"no margin plane for pairs {sorted(corridors.failed_pairs)}"),
        ):
            if robots:
                emit(
                    f"iteration {it}: robots {sorted(robots)} frozen on their "
                    f"previous curves: {reason}"
                )
        blocked = corridors.failed_robots | paired
        candidates = list(best)
        candidate_costs = list(costs)
        candidate_coefficients = coefficients.copy()
        free = [i for i in range(n) if i not in blocked]
        # the free robots' faces, each robot numbered by its place in free
        faces = np.isin(corridors.cells[:, 0], free)
        results = optimize_trajectory(
            starts[free],
            goals[free],
            durations,
            np.column_stack([np.searchsorted(free, corridors.cells[faces, 0]), corridors.cells[faces, 1]]),
            corridors.normals[faces],
            corridors.offsets[faces],
            degree,
            continuity,
            weights,
            coefficients[free],
        )
        emit(f"iteration {it}: {_qp_summary(results, corridors.slots * len(durations))}")
        # the programs hold their faces: the set (102 MB at 192 robots) is
        # not kept under the next round's build
        del corridors
        failed = 0
        for i, out in zip(free, results):
            if isinstance(out, opt_engine.SolverError):
                failed += 1
                emit(f"iteration {it}: robot {i} keeps previous curve ({out})")
            else:
                candidates[i], candidate_costs[i] = out[0], out[1]
                candidate_coefficients[i] = out[2].c

        candidate_validation = validate_trajectories(
            candidates, scenario, expected_starts=starts, expected_goals=goals
        )
        if not candidate_validation.ok:
            emit(f"iteration {it}: candidate set failed validation, keeping previous")
            break

        cost = _total_cost(candidate_costs)
        if cost - best_cost > _RELATIVE_COST_RISE * max(1.0, abs(best_cost)):
            emit(
                f"iteration {it}: candidate cost {cost:.6g} is above the "
                f"accepted {best_cost:.6g}, keeping previous"
            )
            break
        previous = best_cost
        best, costs, coefficients = candidates, candidate_costs, candidate_coefficients
        best_cost = cost
        validation = candidate_validation
        if on_accept is not None:
            on_accept(it, list(best))
        rows.append(
            {
                "iteration": it,
                "cost": cost,
                "peak_accel": validation.peaks["accel"],
                "peak_omega": validation.peaks["omega"],
                "wall_time_s": time.perf_counter() - t0,
                "fallback_count": sum(1 for i in range(n) if best[i] is straight[i]),
                # robots whose smoothing program failed this round
                "failed_count": failed,
            }
        )
        emit(f"iteration {it}: cost {cost:.6g}")
        if it and abs(previous - cost) / max(1.0, abs(previous)) < _RELATIVE_COST_STOP:
            break

    return RefinementResult(best, validation, rows)
