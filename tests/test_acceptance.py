"""Acceptance suite: one test per promised planner property.

Run with -v to get a pass/fail line per criterion.  The expensive
artifacts (a 200-instance randomized grid corpus and the bundled
8-robot wall scenario) are built once per module and shared.

Expected values never come from the code under test: grid plans are
checked against an exhaustive search, solver outputs against
enumeration or recomputed optimality residuals, and geometric claims
against direct sampling.
"""

import itertools
import math
import os
import re
import time

import numpy as np
import pytest

from compare_artifacts import artifact_differences
from test_bezier import face_list, finite_difference, full_programs, quadrature_cost
from test_opt_engine import (
    assert_kkt,
    flow_reference,
    ilp_reference,
    random_feasible_qp,
)

from swarmplan.bezier_opt import PiecewiseBezierTrajectory
from swarmplan.cli import main as cli_main
from swarmplan.discrete_planner import (
    DiscreteInfeasibleError,
    EnvironmentGraph,
    TimeExpandedGraph,
    check_discrete_rules,
    lower_bound_makespan,
    solve_discrete,
)
from swarmplan.geometry import ConvexPolyhedron
from swarmplan.opt_engine import (
    BinaryILP,
    FlowNetwork,
    ILPInfeasibleError,
    max_flow,
    solve_ilp,
    solve_qp,
)
from swarmplan.refine import refine_trajectories
from swarmplan.scenario import GridSpec, ScenarioSpec
from swarmplan.validate import dynamics_metrics, mapf_oracle

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
WEIGHTS = (0.0, 1.0, 0.0, 1.0)

GRID_OPTIONS = [(3, 3, 1), (4, 3, 1), (4, 4, 1), (3, 3, 2), (4, 3, 2), (4, 4, 2)]


def random_grid_instance(rng):
    """Random small instance valid for any vertical radius up to 0.3.

    Starts occupy distinct vertical columns (so do goals), which keeps
    the resting configurations separated even under the tall ellipsoid.
    """
    dims = GRID_OPTIONS[int(rng.integers(len(GRID_OPTIONS)))]
    n = int(rng.integers(1, 4))
    cols = [(x, y) for x in range(dims[0]) for y in range(dims[1])]

    def config():
        picks = rng.choice(len(cols), size=n, replace=False)
        return [cols[i] + (int(rng.integers(dims[2])),) for i in picks]

    starts, goals = config(), config()
    used = set(starts) | set(goals)
    free = [
        c
        for c in itertools.product(*(range(d) for d in dims))
        if c not in used
    ]
    k = min(int(rng.integers(0, 5)), len(free))
    obstacles = [free[i] for i in rng.choice(len(free), size=k, replace=False)]
    return dims, starts, goals, obstacles


@pytest.fixture(scope="module")
def corpus():
    """200 randomized instances: 100 layouts, each at r_z 0.2 and 0.3."""
    rng = np.random.default_rng(2024)
    records = []
    t0 = time.perf_counter()
    for _ in range(100):
        dims, starts, goals, obstacles = random_grid_instance(rng)
        for r_z in (0.2, 0.3):
            sc = ScenarioSpec(
                grid=GridSpec(dims=dims, cell_size=0.5),
                starts=starts,
                goals=goals,
                obstacles=obstacles,
                radii=(0.12, 0.12, r_z),
            )
            try:
                plan = solve_discrete(sc)
            except DiscreteInfeasibleError:
                plan = None
            try:
                oracle_k = mapf_oracle(sc)[0]
            except ValueError as exc:
                assert "no synchronized plan" in str(exc)
                oracle_k = None
            records.append(
                {
                    "scenario": sc,
                    "plan": plan,
                    "K": None if plan is None else plan.num_segments,
                    "oracle_K": oracle_k,
                }
            )
    return records, time.perf_counter() - t0


def random_team_scenario(rng):
    cols = [(x, y) for x in range(5) for y in range(5)]
    sp = rng.choice(len(cols), size=6, replace=False)
    gp = rng.choice(len(cols), size=6, replace=False)
    starts = [cols[i] + (int(rng.integers(2)),) for i in sp]
    goals = [cols[i] + (int(rng.integers(2)),) for i in gp]
    used = set(starts) | set(goals)
    free = [
        c for c in itertools.product(range(5), range(5), range(2)) if c not in used
    ]
    k = int(rng.integers(0, 4))
    obstacles = [free[i] for i in rng.choice(len(free), size=k, replace=False)]
    return ScenarioSpec(
        grid=GridSpec(dims=(5, 5, 2), cell_size=0.5),
        starts=starts,
        goals=goals,
        obstacles=obstacles,
    )


def run_pipeline(scenario, iterations):
    """Plan, refine, and capture every accepted refinement iterate."""
    t0 = time.perf_counter()
    plan = solve_discrete(scenario).postprocessed()
    iterates = []
    log = []
    result = refine_trajectories(
        plan,
        scenario,
        iterations=iterations,
        log=log.append,
        on_accept=lambda it, trajs: iterates.append(trajs),
    )
    return {
        "scenario": scenario,
        "plan": plan,
        "result": result,
        "iterates": iterates,
        "log": log,
        "elapsed": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def wall_run():
    sc = ScenarioSpec.load(os.path.join(SCENARIO_DIR, "wall_windows_8.json"))
    return run_pipeline(sc, iterations=6)


@pytest.fixture(scope="module")
def team_runs():
    rng = np.random.default_rng(7)
    runs = []
    attempts = 0
    while len(runs) < 20:
        attempts += 1
        assert attempts < 200, "random team scenarios should mostly be solvable"
        sc = random_team_scenario(rng)
        try:
            runs.append(run_pipeline(sc, iterations=2))
        except DiscreteInfeasibleError:
            continue
    return runs


def dense_positions(trajectories, sample_dt=1e-3):
    duration = max(t.duration for t in trajectories)
    count = max(2, int(round(duration / sample_dt)) + 1)
    ts = np.linspace(0.0, duration, count)
    return np.stack([t.evaluate_many(ts) for t in trajectories])


def min_pair_metric(positions, radii):
    scaled = positions / np.asarray(radii)
    best = np.inf
    for i in range(len(scaled)):
        for j in range(i + 1, len(scaled)):
            d = np.linalg.norm(scaled[i] - scaled[j], axis=1)
            best = min(best, float(d.min()))
    return best


def min_obstacle_metric(positions, scenario):
    if not scenario.obstacles:
        return np.inf
    radii = np.asarray(scenario.obstacle_ellipsoid.radii)
    flat = positions.reshape(-1, 3)
    best = np.inf
    half = 0.5 * scenario.grid.cell_size
    for cell in scenario.obstacles:
        center = scenario.grid.cell_center(cell)
        lo, hi = center - half, center + half
        over = np.maximum(np.maximum(lo - flat, flat - hi), 0.0) / radii
        best = min(best, float(np.linalg.norm(over, axis=1).min()))
    return best


def test_01_grid_makespan_matches_exhaustive_oracle(corpus):
    records, elapsed = corpus
    assert len(records) >= 200
    assert elapsed < 600.0
    feasible = 0
    for rec in records:
        if rec["oracle_K"] is None:
            assert rec["K"] is None
            continue
        feasible += 1
        assert rec["K"] == rec["oracle_K"]
        assert check_discrete_rules(rec["plan"].cell_paths, rec["scenario"]) == []
    assert feasible >= 100


def test_02_one_step_shorter_horizon_routes_fewer_robots(corpus):
    records, _ = corpus
    checked = 0
    for rec in records:
        if rec["K"] in (None, 0):
            continue
        sc = rec["scenario"]
        graph = TimeExpandedGraph(sc, EnvironmentGraph(sc), rec["K"] - 1)
        try:
            result = solve_ilp(graph.binary_program())
            assert int(round(result.objective)) < sc.num_robots
        except ILPInfeasibleError:
            pass
        checked += 1
    assert checked >= 100


def test_03_flow_lower_bound_sound_and_tight_without_downwash(corpus):
    records, _ = corpus
    for rec in records:
        if rec["K"] is None:
            continue
        sc = rec["scenario"]
        lb = lower_bound_makespan(sc)
        assert lb <= rec["K"]
        if sc.radii[2] < sc.grid.cell_size / 2:
            assert lb == rec["K"]


def test_04_accepted_iterates_keep_separation_at_dense_samples(wall_run, team_runs):
    for run in [wall_run] + team_runs:
        sc = run["scenario"]
        assert run["result"].ok
        assert run["iterates"]
        for trajectories in run["iterates"]:
            positions = dense_positions(trajectories)
            assert min_pair_metric(positions, sc.radii) >= 2.0 - 1e-6
            assert min_obstacle_metric(positions, sc) >= 1.0 - 1e-6


def test_05_curves_are_c4_at_knots_and_rest_at_endpoints(wall_run):
    for traj in wall_run["result"].trajectories:
        for order in range(1, 5):
            assert np.linalg.norm(traj.evaluate(0.0, order)) <= 1e-6
            assert np.linalg.norm(traj.evaluate(traj.duration, order)) <= 1e-6
        for k in range(len(traj.pieces) - 1):
            left, right = traj.pieces[k], traj.pieces[k + 1]
            for order in range(5):
                a = left.evaluate(left.duration, order=order)
                b = right.evaluate(0.0, order=order)
                scale = max(
                    1.0, float(np.linalg.norm(a)), float(np.linalg.norm(b))
                )
                assert np.linalg.norm(a - b) <= 1e-6 * scale


def test_06_qp_objective_equals_cost_integral():
    rng = np.random.default_rng(11)
    for case in range(50):
        pieces = int(rng.integers(2, 6))
        durations = list(rng.uniform(0.4, 1.2, size=pieces))
        start = rng.uniform(-1.0, 1.0, size=3)
        goal = rng.uniform(-1.0, 1.0, size=3)
        if case % 2:
            corridors = [ConvexPolyhedron() for _ in range(pieces)]
        else:
            lo = np.minimum(start, goal) - 0.8
            hi = np.maximum(start, goal) + 0.8
            a = np.vstack([np.eye(3), -np.eye(3)])
            b = np.concatenate([hi, -lo])
            corridors = [ConvexPolyhedron(a, b) for _ in range(pieces)]
        (traj, objective, _), = full_programs(
            [start], [goal], durations, *face_list([corridors]), 9, 4, WEIGHTS
        )
        assert objective > 0
        assert objective == pytest.approx(quadrature_cost(traj, WEIGHTS), rel=1e-6)


def test_07_refinement_lowers_peak_acceleration_until_costs_settle(wall_run):
    rows = wall_run["result"].rows
    assert rows
    assert rows[-1]["peak_accel"] <= rows[0]["peak_accel"] + 1e-9
    if len(rows) < 6:
        assert len(rows) >= 2
        a, b = rows[-2]["cost"], rows[-1]["cost"]
        assert abs(a - b) / max(1.0, abs(a)) < 1e-3


def test_08_time_dilation_scales_acceleration_and_body_rate(wall_run):
    trajectories = wall_run["result"].trajectories
    base = dynamics_metrics(trajectories, sample_dt=0.01, gravity=0.0)
    dilated = dynamics_metrics(
        [t.scaled(2.0) for t in trajectories], sample_dt=0.02, gravity=0.0
    )
    assert dilated["accel"] == pytest.approx(base["accel"] / 4.0, rel=1e-6)
    assert dilated["omega"] == pytest.approx(base["omega"] / 2.0, rel=1e-6)


def test_09_solvers_match_reference_oracles():
    rng = np.random.default_rng(23)
    for _ in range(100):
        qp = random_feasible_qp(rng)
        res = solve_qp(qp, eps_abs=1e-8, eps_rel=1e-8)
        assert_kkt(qp, res, eps_abs=1e-8, eps_rel=1e-8)
        hx = qp.H @ res.x
        aty = np.zeros(qp.n)
        m_eq = qp.A_eq.shape[0]
        if m_eq:
            aty += qp.A_eq.T @ res.duals[:m_eq]
        if qp.A_in.shape[0]:
            aty += qp.A_in.T @ res.duals[m_eq:]
        stationarity = float(np.abs(hx + qp.g + aty).max())
        feas = 0.0
        if m_eq:
            feas = float(np.abs(qp.A_eq @ res.x - qp.b_eq).max())
        if qp.A_in.shape[0]:
            feas = max(feas, float((qp.A_in @ res.x - qp.b_in).max()))
        assert max(stationarity, feas) <= 1e-6

    rng = np.random.default_rng(29)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        c = rng.integers(-5, 6, size=n).astype(float)
        m_in = int(rng.integers(0, 4))
        A_in = rng.integers(-2, 3, size=(m_in, n)).astype(float)
        b_in = rng.integers(0, 4, size=m_in).astype(float)
        use_eq = rng.random() < 0.4
        A_eq = rng.integers(0, 2, size=(1, n)).astype(float) if use_eq else None
        b_eq = np.array([float(rng.integers(0, 3))]) if use_eq else None
        ilp = BinaryILP(c, A_eq, b_eq, A_in, b_in)
        ref = ilp_reference(ilp)
        if ref is None:
            with pytest.raises(ILPInfeasibleError):
                solve_ilp(ilp)
        else:
            assert solve_ilp(ilp).objective == pytest.approx(ref, abs=1e-9)

    rng = np.random.default_rng(31)
    for _ in range(100):
        nv = int(rng.integers(4, 8))
        num_edges = int(rng.integers(3, 11))
        edges = []
        while len(edges) < num_edges:
            t, h = rng.integers(0, nv, size=2)
            if t != h:
                edges.append((int(t), int(h)))
        net = FlowNetwork(nv, edges, 0, nv - 1)
        assert max_flow(net) == flow_reference(net)


def test_10_bernstein_partition_hull_and_derivative_properties():
    # partition of unity straight off the basis definition
    for d in range(1, 10):
        s = np.linspace(0.0, 1.0, 201)
        total = sum(
            math.comb(d, i) * s**i * (1.0 - s) ** (d - i) for i in range(d + 1)
        )
        assert np.abs(total - 1.0).max() <= 1e-12

    rng = np.random.default_rng(41)
    for _ in range(1000):
        d = int(rng.integers(2, 10))
        pts = rng.normal(size=(d + 1, 3))
        duration = float(rng.uniform(0.2, 2.0))
        piece = PiecewiseBezierTrajectory([duration], [pts])
        ts = np.linspace(0.0, duration, 40)
        vals = piece.evaluate_many(ts)
        # constant curves reproduce their value: unity through the evaluator
        flat = PiecewiseBezierTrajectory([duration], [np.tile(pts[0], (d + 1, 1))])
        assert np.abs(flat.evaluate_many(ts) - pts[0]).max() <= 1e-12
        # support containment in every direction bounds the hull
        dirs = rng.normal(size=(12, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        assert ((vals @ dirs.T).max(axis=0) <= (pts @ dirs.T).max(axis=0) + 1e-9).all()

    rng = np.random.default_rng(43)
    for _ in range(50):
        d = int(rng.integers(4, 10))
        piece = PiecewiseBezierTrajectory([1.0], [rng.normal(size=(d + 1, 3))])
        for order in (1, 2, 3, 4):
            for t in (0.3, 0.5, 0.8):
                exact = piece.evaluate(t, order=order)
                approx = finite_difference(piece, t, order)
                scale = max(1.0, float(np.abs(exact).max()))
                assert np.abs(exact - approx).max() <= 1e-4 * scale


def test_11_planning_artifacts_are_byte_reproducible(tmp_path):
    scenario = os.path.join(SCENARIO_DIR, "handover_3.json")
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli_main(["plan", "--scenario", scenario, "--out", str(out)])
        assert code == 0
        outs.append(out)

    # wall time is the one honest nondeterminism; the comparison masks it
    assert artifact_differences(outs[0], outs[1]) == []


def test_12_bundled_scenario_completes_within_budget(wall_run):
    assert wall_run["result"].ok
    assert wall_run["elapsed"] < 300.0


def test_13_wall_round_zero_cost_reaches_reference(wall_run):
    # 19672.696126809213 is the round-0 cost an independent solver (ADMM with
    # an active-set polish) reaches on this scenario.  The smoothing QPs are
    # flat enough that a solver stopping early lands measurably above it.
    rows = wall_run["result"].rows
    assert rows[0]["iteration"] == 0
    assert rows[0]["cost"] <= 19672.696126809213 * (1 + 1e-6)


def test_14_wall_refines_every_robot(wall_run):
    # a failed pair or obstacle separator freezes its robots on their
    # previous curves for the round; on the bundled scenario every
    # separator solves, so every robot is re-optimized in every round
    assert all(row["fallback_count"] == 0 for row in wall_run["result"].rows)
    assert not [msg for msg in wall_run["log"] if "frozen" in msg or "keeps" in msg]
    iterates = wall_run["iterates"]
    assert len(iterates) >= 2
    for before, after in zip(iterates, iterates[1:]):
        for robot, (old, new) in enumerate(zip(before, after)):
            changed = any(
                not np.array_equal(p.points, q.points) for p, q in zip(old.pieces, new.pieces)
            )
            assert changed, f"robot {robot} kept its curve"


def test_15_each_round_logs_how_its_qps_stopped(wall_run):
    # one line per round, before its cost line: every program closes its
    # duality gap, and the line gives the range of interior-point steps,
    # the corridor faces the programs carried out of their 24 pieces' 20
    # slots each, and how many robots were solved again with faces they
    # had left out
    log = wall_run["log"]
    for row in wall_run["result"].rows:
        it = row["iteration"]
        (line,) = [msg for msg in log if msg.startswith(f"iteration {it}: 8 QPs")]
        match = re.fullmatch(
            rf"iteration {it}: 8 QPs: 8 converged; (\d+)-(\d+) interior-point steps; "
            r"(\d+) of (\d+) corridor faces, (\d+) solved again",
            line,
        )
        assert match, line
        low, high, faces, slots, again = map(int, match.groups())
        assert 0 < low <= high < 60
        assert slots == 8 * 24 * 20 and 0 < faces < slots / 2
        assert 0 <= again <= 8
        assert log.index(line) < log.index(f"iteration {it}: cost {row['cost']:.6g}")


def test_wall_rounds_carry_their_pinned_faces(wall_run):
    # the lazy face selection, pinned: the faces each round carried and the
    # robots it solved again, as they were with every slot held densely
    lines = [msg for msg in wall_run["log"] if " QPs: " in msg]
    tails = [re.search(r"; (\d+ of \d+ corridor faces, \d+ solved again)$", m).group(1) for m in lines]
    assert tails == [
        f"{faces} of 3840 corridor faces, 0 solved again"
        for faces in (1561, 1303, 1257, 1257, 1264, 1263)
    ]
