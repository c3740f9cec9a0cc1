"""Command-line front end: plan a scenario end to end, query the
exhaustive grid oracle, or re-validate exported trajectories.

Exit codes: 0 success, 1 validation failure (artifacts are still
written), 2 infeasible or invalid input (a bad scenario, or a file that
cannot be read or written), 3 solver budget exceeded.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import logging
import math
import os
import sys

import numpy as np

from . import opt_engine
from .bezier_opt import PiecewiseBezierTrajectory
from .discrete_planner import DiscreteInfeasibleError, solve_discrete
from .refine import refine_trajectories, write_report_csv
from .scenario import ScenarioSpec
from .validate import (
    OracleBudgetError,
    check_layout,
    dynamics_metrics,
    mapf_oracle,
    validate_trajectories,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3

# rows per second of flight in the sampled export
SAMPLE_RATE = 100.0

log = logging.getLogger("swarmplan")


def _setup_logging():
    level = os.environ.get("SWARMPLAN_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        level=levels.get(level, logging.ERROR),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


@functools.cache
def _keep_freed_memory():
    """Keep the megabytes of numpy temporaries that each interior-point and
    GJK step frees on the process's heap, set once per process through
    glibc's mallopt, so that refinement reuses them instead of handing them
    back to the system and faulting them in again every round (about 25k
    minor faults per plan of scenarios/wall_windows_8.json).  A no-op where
    the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    # M_TRIM_THRESHOLD (-1): a free leaves up to 256 MB at the top of the
    # heap; M_MMAP_THRESHOLD (-3): blocks below 32 MB, glibc's largest
    # threshold, come from the heap, not from mmap
    mallopt(-1, 256 << 20)
    mallopt(-3, 32 << 20)


def _finite_positive(text):
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite positive number")
    return value


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a nonnegative integer")
    return value


def _time_column(duration):
    """The sample times of a curve of this duration, and each row's text
    of the t column."""
    count = max(2, int(round(duration * SAMPLE_RATE)) + 1)
    ts = np.linspace(0.0, duration, count)
    return ts, ["%.17g," % t for t in ts.tolist()]


def _write_samples(traj, path, time_column):
    """Write traj's samples at the times of time_column, a _time_column of
    its duration, which the robots of one plan share."""
    ts, column = time_column
    rows = np.column_stack([traj.evaluate_many(ts), traj.evaluate_many(ts, 1), traj.evaluate_many(ts, 2)])
    line = "%.17g," * 8 + "%.17g\n"
    with open(path, "w", newline="") as f:
        f.write("t,x,y,z,vx,vy,vz,ax,ay,az\n")
        f.writelines(t + line % tuple(row) for t, row in zip(column, rows.tolist()))


def cmd_plan(args):
    scenario = ScenarioSpec.load(args.scenario)
    log.info("planning %d robots on %s grid", scenario.num_robots, scenario.grid.dims)
    plan = solve_discrete(scenario).postprocessed()
    log.info("grid plan: %d segments of %.3gs", plan.num_segments, plan.dt)

    result = refine_trajectories(
        plan, scenario, iterations=args.iterations, log=log.info
    )
    trajectories = result.trajectories
    validation = result.validation

    if args.scale_to_accel_limit is not None:
        limit = args.scale_to_accel_limit
        scaled = False
        # the 1/s^2 law is exact on the curve but the peak is measured on a
        # sample grid that moves with the dilation, so iterate to the limit
        # at the same resolution the validation report uses
        for _ in range(8):
            peaks = dynamics_metrics(trajectories, sample_dt=1e-3)
            if peaks["accel"] <= limit:
                break
            s = math.sqrt(peaks["accel"] / limit)
            log.info("scaling durations by %.6g to meet accel limit", s)
            trajectories = [t.scaled(s) for t in trajectories]
            scaled = True
        if scaled:
            validation = validate_trajectories(
                trajectories,
                scenario,
                expected_starts=plan.waypoints[:, 0],
                expected_goals=plan.waypoints[:, -1],
            )

    out = args.out
    os.makedirs(os.path.join(out, "trajectories"), exist_ok=True)
    os.makedirs(os.path.join(out, "samples"), exist_ok=True)
    plan.save(os.path.join(out, "discrete_plan.json"))
    # every robot shares robot 0's piece durations, so one t column serves all
    time_column = _time_column(trajectories[0].duration)
    for i, traj in enumerate(trajectories):
        traj.save_csv(os.path.join(out, "trajectories", f"robot_{i:03d}.csv"))
        _write_samples(traj, os.path.join(out, "samples", f"robot_{i:03d}.csv"), time_column)
    write_report_csv(result.rows, os.path.join(out, "refine_report.csv"))
    validation.save(os.path.join(out, "validation.json"))

    print(
        f"planned {scenario.num_robots} robots: {plan.num_segments} segments, "
        f"{len(result.rows)} refinement iterations, "
        f"min pair clearance {validation.min_pair_clearance:.6f}, "
        f"validation {'ok' if validation.ok else 'FAILED'}"
    )
    return EXIT_OK if validation.ok else EXIT_VALIDATION


def cmd_oracle(args):
    scenario = ScenarioSpec.load(args.scenario)
    steps, configs = mapf_oracle(scenario)
    print(f"optimal makespan: {steps}")
    # configurations are unlabeled sets, so print them per step instead of
    # pretending any fixed robot identity threads through them
    for t, cfg in enumerate(configs):
        print(f"t={t}: " + " ".join(str(c) for c in cfg))
    return EXIT_OK


def _match_endpoints(points, cells, grid, label):
    """Bijectively match trajectory endpoints to grid cell centers."""
    centers = np.array([grid.cell_center(c) for c in cells])
    taken = np.zeros(len(cells), dtype=bool)
    matched = np.zeros_like(centers)
    for i, p in enumerate(points):
        d = np.linalg.norm(centers - p, axis=1)
        d[taken] = np.inf
        j = int(np.argmin(d))
        if d[j] > 1e-3:
            raise ValueError(
                f"trajectory {i} {label} {p} matches no unused {label} cell"
            )
        taken[j] = True
        matched[i] = centers[j]
    return matched


def cmd_validate(args):
    scenario = ScenarioSpec.load(args.scenario)
    names = sorted(
        n for n in os.listdir(args.trajectories) if n.endswith(".csv")
    )
    if len(names) != scenario.num_robots:
        print(
            f"expected {scenario.num_robots} trajectory files, found {len(names)}",
            file=sys.stderr,
        )
        return EXIT_VALIDATION
    trajectories = [
        PiecewiseBezierTrajectory.load_csv(os.path.join(args.trajectories, n))
        for n in names
    ]
    try:
        check_layout(trajectories)
        starts = _match_endpoints(
            np.array([t.evaluate(0.0) for t in trajectories]),
            scenario.starts,
            scenario.grid,
            "start",
        )
        goals = _match_endpoints(
            np.array([t.evaluate(t.duration) for t in trajectories]),
            scenario.goals,
            scenario.grid,
            "goal",
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    report = validate_trajectories(
        trajectories,
        scenario,
        expected_starts=starts,
        expected_goals=goals,
        sample_dt=args.sample_dt,
    )
    print(report.to_json(), end="")
    return EXIT_OK if report.ok else EXIT_VALIDATION


def build_parser():
    parser = argparse.ArgumentParser(
        prog="swarmplan",
        description="Collision-free smooth trajectory planning for quadrotor teams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="plan a scenario end to end")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--iterations", type=_nonnegative_int, default=None, help="refinement budget")
    p.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; each refinement round solves its robots' programs as one batch in this process")
    p.add_argument(
        "--scale-to-accel-limit",
        type=_finite_positive,
        default=None,
        metavar="A",
        help="dilate time so peak acceleration is at most A m/s^2",
    )
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("oracle", help="exhaustive optimal grid plan (small inputs)")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("validate", help="re-check exported trajectory CSVs")
    p.add_argument("--scenario", required=True)
    p.add_argument("--trajectories", required=True, help="directory of robot CSVs")
    p.add_argument("--sample-dt", type=_finite_positive, default=1e-3)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None):
    _setup_logging()
    _keep_freed_memory()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DiscreteInfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (opt_engine.ILPBudgetExceededError, OracleBudgetError) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except opt_engine.SolverError as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
