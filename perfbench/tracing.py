"""Per-layer tracing by wrapping swarmplan's functions at module boundaries.

The program itself is not instrumented.  Each wrapper replaces a module
attribute under the name its caller looks it up by, so the spans show the
calls that caller actually makes.  A span records its name, start, end,
parent span and scenario; a layer's self time is its spans' duration minus
the part covered by their child spans.

Spans are kept in memory and written out when the run ends.  Work done in
worker processes (the smoothing QPs under `--jobs` > 1) is not seen: only
spans of the parent process are recorded.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict

from swarmplan import cli, corridor, discrete_planner, opt_engine, refine, validate
from swarmplan.scenario import ScenarioSpec


def _qp_attrs(args, kwargs, result):
    qp = args[0] if args else kwargs["qp"]
    return {
        "rows": int(qp.A_eq.shape[0] + qp.A_in.shape[0]),
        "iterations": int(result.iterations),
        "polished": bool(result.polished),
    }


def _ilp_attrs(args, kwargs, result):
    return {"nodes": int(result.nodes)}


def _separator_attrs(args, kwargs, result):
    ok = result[3]
    return {"instances": int(ok.size), "failed": int((~ok).sum())}


def _corridor_attrs(args, kwargs, result):
    polys = [p for per_robot in result.polyhedra for p in per_robot]
    return {
        "failed_robots": len(result.failed_robots),
        "failed_pairs": len(result.failed_pairs),
        "polyhedra": len(polys),
        "faces": sum(p.num_faces for p in polys),
    }


def _refine_attrs(args, kwargs, result):
    return {"round_s": [float(row["wall_time_s"]) for row in result.rows]}


# (module or class, attribute as the caller binds it, span name, attribute
# reader).  The span name's first part is the layer the callee belongs to.
WRAPS = (
    (ScenarioSpec, "load", "scenario.load", None),
    (cli, "solve_discrete", "discrete_planner.solve_discrete", None),
    (discrete_planner, "solve_discrete", "discrete_planner.solve_discrete", None),
    (discrete_planner, "lower_bound_makespan", "discrete_planner.lower_bound_makespan", None),
    (discrete_planner, "TimeExpandedGraph", "discrete_planner.TimeExpandedGraph", None),
    (opt_engine, "max_flow", "opt_engine.max_flow", None),
    (opt_engine, "solve_ilp", "opt_engine.solve_ilp", _ilp_attrs),
    (cli, "refine_trajectories", "refine.refine_trajectories", _refine_attrs),
    (refine, "build_corridors", "corridor.build_corridors", _corridor_attrs),
    (corridor, "svm_separate_batch", "corridor.svm_separate_batch", _separator_attrs),
    (corridor, "prune_faces", "corridor.prune_faces", None),
    (refine, "optimize_trajectory", "bezier_opt.optimize_trajectory", None),
    (opt_engine, "solve_qp", "opt_engine.solve_qp", _qp_attrs),
    (opt_engine, "solve_qp_batch", "opt_engine.solve_qp_batch", None),
    (refine, "validate_trajectories", "validate.validate_trajectories", None),
    (validate, "smoothness_report", "validate.smoothness_report", None),
    (validate, "dynamics_metrics", "validate.dynamics_metrics", None),
)

# root span of one timed pipeline, per workload kind
ROOTS = {"plan": "cli.plan", "grid": "discrete_planner.grid_plan"}
# root span of the harness making the workload's first scenario, before the loop
FIRST_ITEM = "bench.first_item"


class Tracer:
    """Records spans while a `span` block is open; passes calls through otherwise."""

    def __init__(self):
        self.spans = []
        self.installed = set()
        self._stack = []
        self._scenario = None
        self._recording = False

    def install(self):
        """Wrap every function in WRAPS that still exists; return the names missing."""
        missing = []
        for module, attr, name, reader in WRAPS:
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module.__name__}.{attr}")
                continue
            wrapper = self._wrapper(original, name, reader)
            # original is already bound, so a class must not bind it again
            setattr(module, attr, staticmethod(wrapper) if isinstance(module, type) else wrapper)
            self.installed.add(name)
        return missing

    def _wrapper(self, original, name, reader):
        def traced(*args, **kwargs):
            if not self._recording:
                return original(*args, **kwargs)
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if reader is not None:
                span.update(reader(args, kwargs, result))
            return result

        return traced

    def _open(self, name):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "scenario": self._scenario,
        }
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, scenario):
        """Record name as a root span, and every wrapped call made inside it."""
        self._scenario = scenario
        self._recording = True
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)
            self._recording = False


def span_cost(calls=20000):
    """Seconds one recorded span adds to a call, measured on a wrapped no-op."""

    def noop():
        return None

    probe = Tracer()
    wrapped = probe._wrapper(noop, "probe", None)
    with probe.span("probe", None):
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    return max(0.0, traced - (time.perf_counter() - t0)) / calls


def _duration(span):
    return span["end"] - span["start"]


def analyse(spans, installed, root_name):
    """Per-layer metrics, per planned scenario, from the recorded spans.

    Returns (metrics, summary): metrics maps a per-layer metric name to
    {"value", "unit"}; summary holds each layer's self time and the traced
    plan time they add up to.  A metric whose wrapped function no longer
    exists is left out.
    """
    children = defaultdict(float)
    root_of = {}
    for s in spans:
        root_of[s["id"]] = s["id"] if s["parent"] is None else root_of[s["parent"]]
        if s["parent"] is not None:
            children[s["parent"]] += _duration(s)
    roots = {s["id"] for s in spans if s["parent"] is None and s["name"] == root_name}
    plans = max(1, len(roots))
    in_plan = defaultdict(list)
    for s in spans:
        if root_of[s["id"]] in roots:
            s["self"] = _duration(s) - children[s["id"]]
            in_plan[s["name"]].append(s)

    def time_s(name):
        return sum(_duration(s) for s in in_plan[name]) / plans

    def calls(name):
        return len(in_plan[name]) / plans

    def total(name, key):
        return sum(s.get(key, 0) for s in in_plan[name])

    def self_s(name):
        return sum(s["self"] for s in in_plan[name]) / plans

    def errors(name):
        return sum(1 for s in in_plan[name] if "error" in s)

    qps = in_plan["opt_engine.solve_qp"]
    first_rounds = [r for s in in_plan["refine.refine_trajectories"] for r in s.get("round_s", [])[:1]]
    later = [r for s in in_plan["refine.refine_trajectories"] for r in s.get("round_s", [])[1:]]
    separators = total("corridor.svm_separate_batch", "instances")
    polyhedra = total("corridor.build_corridors", "polyhedra")
    # the program's scenario loads inside the timed pipeline; grid16 loads
    # none there, so its figure is the load made while building its scenario
    loads = [_duration(s) for s in in_plan["scenario.load"]] or [
        _duration(s) for s in spans
        if s["name"] == "scenario.load" and spans[root_of[s["id"]]]["name"] == FIRST_ITEM
    ]

    table = (
        ("scenario.load_s", "s", ("scenario.load",), lambda: statistics.median(loads) if loads else 0.0),
        ("discrete_planner.solve_s", "s", ("discrete_planner.solve_discrete",), lambda: time_s("discrete_planner.solve_discrete")),
        ("discrete_planner.lower_bound_s", "s", ("discrete_planner.lower_bound_makespan",), lambda: time_s("discrete_planner.lower_bound_makespan")),
        ("discrete_planner.graph_build_s", "s", ("discrete_planner.TimeExpandedGraph",), lambda: time_s("discrete_planner.TimeExpandedGraph")),
        ("discrete_planner.graph_builds", "count", ("discrete_planner.TimeExpandedGraph",), lambda: calls("discrete_planner.TimeExpandedGraph")),
        ("discrete_planner.maxflow_s", "s", ("opt_engine.max_flow",), lambda: time_s("opt_engine.max_flow")),
        ("discrete_planner.maxflow_calls", "count", ("opt_engine.max_flow",), lambda: calls("opt_engine.max_flow")),
        ("discrete_planner.ilp_s", "s", ("opt_engine.solve_ilp",), lambda: time_s("opt_engine.solve_ilp")),
        ("discrete_planner.ilp_calls", "count", ("opt_engine.solve_ilp",), lambda: calls("opt_engine.solve_ilp")),
        ("discrete_planner.ilp_nodes", "count", ("opt_engine.solve_ilp",), lambda: total("opt_engine.solve_ilp", "nodes") / plans),
        ("discrete_planner.ilp_infeasible_k", "count", ("opt_engine.solve_ilp",), lambda: errors("opt_engine.solve_ilp") / plans),
        ("corridor.build_s", "s", ("corridor.build_corridors",), lambda: time_s("corridor.build_corridors")),
        ("corridor.builds", "count", ("corridor.build_corridors",), lambda: calls("corridor.build_corridors")),
        ("corridor.separator_s", "s", ("corridor.svm_separate_batch",), lambda: time_s("corridor.svm_separate_batch")),
        ("corridor.separator_instances", "count", ("corridor.svm_separate_batch",), lambda: separators / plans),
        ("corridor.separator_failed", "count", ("corridor.svm_separate_batch",), lambda: total("corridor.svm_separate_batch", "failed") / plans),
        # 0 when no separator ran
        ("corridor.separator_ok_frac", "ratio", ("corridor.svm_separate_batch",), lambda: (separators - total("corridor.svm_separate_batch", "failed")) / max(1, separators)),
        ("corridor.failed_robots", "count", ("corridor.build_corridors",), lambda: total("corridor.build_corridors", "failed_robots") / plans),
        ("corridor.failed_pairs", "count", ("corridor.build_corridors",), lambda: total("corridor.build_corridors", "failed_pairs") / plans),
        ("corridor.faces_mean", "count", ("corridor.build_corridors",), lambda: total("corridor.build_corridors", "faces") / max(1, polyhedra)),
        ("corridor.prune_s", "s", ("corridor.prune_faces",), lambda: time_s("corridor.prune_faces")),
        ("bezier_opt.optimize_s", "s", ("bezier_opt.optimize_trajectory",), lambda: time_s("bezier_opt.optimize_trajectory")),
        ("bezier_opt.solves", "count", ("bezier_opt.optimize_trajectory",), lambda: calls("bezier_opt.optimize_trajectory")),
        ("bezier_opt.failures", "count", ("bezier_opt.optimize_trajectory",), lambda: errors("bezier_opt.optimize_trajectory") / plans),
        ("bezier_opt.solve_max_s", "s", ("bezier_opt.optimize_trajectory",), lambda: max((_duration(s) for s in in_plan["bezier_opt.optimize_trajectory"]), default=0.0)),
        ("bezier_opt.rows_mean", "count", ("opt_engine.solve_qp",), lambda: sum(s["rows"] for s in qps if "rows" in s) / max(1, len(qps))),
        ("opt_engine.qp_s", "s", ("opt_engine.solve_qp",), lambda: time_s("opt_engine.solve_qp")),
        ("opt_engine.qp_calls", "count", ("opt_engine.solve_qp",), lambda: calls("opt_engine.solve_qp")),
        ("opt_engine.qp_iterations", "count", ("opt_engine.solve_qp",), lambda: total("opt_engine.solve_qp", "iterations") / plans),
        ("opt_engine.qp_polished", "count", ("opt_engine.solve_qp",), lambda: total("opt_engine.solve_qp", "polished") / plans),
        ("opt_engine.qp_batch_s", "s", ("opt_engine.solve_qp_batch",), lambda: time_s("opt_engine.solve_qp_batch")),
        ("refine.refine_s", "s", ("refine.refine_trajectories",), lambda: time_s("refine.refine_trajectories")),
        ("refine.rounds", "count", ("refine.refine_trajectories",), lambda: (len(first_rounds) + len(later)) / plans),
        ("refine.round0_s", "s", ("refine.refine_trajectories",), lambda: sum(first_rounds) / max(1, len(first_rounds))),
        ("refine.round_s_median", "s", ("refine.refine_trajectories",), lambda: statistics.median(later) if later else 0.0),
        ("refine.self_s", "s", ("refine.refine_trajectories",), lambda: self_s("refine.refine_trajectories")),
        ("validate.validate_s", "s", ("validate.validate_trajectories",), lambda: time_s("validate.validate_trajectories")),
        ("validate.calls", "count", ("validate.validate_trajectories",), lambda: calls("validate.validate_trajectories")),
        ("validate.smoothness_s", "s", ("validate.smoothness_report",), lambda: time_s("validate.smoothness_report")),
        ("validate.dynamics_s", "s", ("validate.dynamics_metrics",), lambda: time_s("validate.dynamics_metrics")),
        # the plan command's own time outside the discrete stage and refinement
        ("cli.export_s", "s", (), lambda: self_s("cli.plan")),
    )
    metrics = {
        name: {"value": float(value()), "unit": unit}
        for name, unit, needs, value in table
        if all(n in installed for n in needs)
    }

    layers = defaultdict(float)
    for name, group in in_plan.items():
        layers[name.split(".")[0]] += sum(s["self"] for s in group) / plans
    recorded = sum(len(group) for group in in_plan.values()) / plans
    summary = {
        "plans": len(roots),
        "spans_per_plan": recorded,
        # the share of plan_s_mean that recording spans itself costs
        "wrapper_cost_s": recorded * span_cost(),
        "plan_s_mean": sum(_duration(s) for s in spans if s["id"] in roots) / plans,
        "layer_self_s": dict(sorted(layers.items())),
        "layer_self_sum_s": sum(layers.values()),
    }
    return metrics, summary
