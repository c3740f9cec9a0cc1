"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload wall8 --seed 1 --seconds 10 --trace 0

Workloads: wall8, grid16 (listed in BENCHMARK.json), teams6 and smoke
(see README.md).  The run plans scenarios in a closed loop until the
planning time adds up to --seconds (always at least one scenario), checks
every result outside the timed region, and prints one line per metric,
then the run metadata, then a JSON object as the last line of output:
the end-to-end metrics with --trace 0, or the per-layer metrics of a
traced run with --trace 1.  A traced run also writes its spans to
.perfbench_out/<workload>.trace.json.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 5

# the end-to-end metrics the last line carries, as listed in BENCHMARK.json;
# the others are printed but are not defined on every workload, and
# plan_s_tail equals plan_s whenever a run has fewer than eleven samples
END_TO_END = ("setup_s", "plan_s", "makespan_steps", "peak_rss_mb")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload, seed):
    """Median wall time from launching a fresh interpreter to its first planner call."""
    probe = Path(__file__).with_name("setup_probe.py")
    workdir = OUT / "work" / f"{workload}-setup"
    times = []
    for _ in range(SETUP_RUNS):
        launched = time.time()
        done = subprocess.run(
            [sys.executable, str(probe), workload, str(seed), str(workdir)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.split()[-1]) - launched)
    return statistics.median(times)


def tail(values):
    """The highest sample with at least ten samples above it (the largest if
    there are fewer than eleven)."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def openblas_threads():
    """Threads each loaded OpenBLAS library will use, read from the library."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return {}
    threads = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                threads[Path(path).name] = getter()
                break
    return threads


def run_metadata(workload, jobs, seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "swarmplan").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
        "blas_thread_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "jobs": jobs,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def end_to_end(samples, setup_s):
    plan = [s.plan_s for s in samples]
    # quality figures count each distinct scenario once, however often it ran
    last = {s.key: s for s in samples}.values()
    first_safe = [s.first_safe_s for s in samples if s.first_safe_s is not None]
    refined = [s for s in last if s.peak_accel is not None]
    robot_rounds = sum(s.robot_rounds for s in samples)
    makespans = [s.makespan for s in last]
    metrics = {
        "setup_s": (setup_s, "s"),
        "plan_s": (statistics.median(plan), "s"),
        "plan_s_tail": (tail(plan), "s"),
        "first_safe_s": (statistics.median(first_safe) if first_safe else None, "s"),
        "makespan_steps": (sum(makespans) if None not in makespans else None, "steps"),
        "final_cost": (sum(s.final_cost for s in refined) if refined else None, "cost"),
        "peak_accel": (statistics.mean(s.peak_accel for s in refined) if refined else None, "m/s2"),
        "kept_frac": (sum(s.kept_rounds for s in samples) / robot_rounds if robot_rounds else None, "ratio"),
        "failed_frac": (sum(1 for s in samples if s.problems) / len(samples), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "swarmplan" / "__init__.py").is_file():
        print(f"no swarmplan sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    setup_s = measure_setup(workload.name, args.seed)
    workdir = OUT / "work" / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    tracer = tracing.Tracer() if args.trace else None
    capture = workloads.RefineCapture()
    if workload.kind == "plan":
        capture.install()
    missing = tracer.install() if tracer else []

    def timed(name, key):
        return tracer.span(name, key) if tracer else contextlib.nullcontext()

    with timed(tracing.FIRST_ITEM, None):
        stream = workload.scenarios(args.seed, workdir / "scenarios")
        item = next(stream)
    samples = []
    measured = 0.0
    while not samples or measured < args.seconds:
        if samples:
            item = next(stream)
        root = timed(tracing.ROOTS[workload.kind], item.key)
        if workload.kind == "plan":
            outdir = workdir / "plan"
            shutil.rmtree(outdir, ignore_errors=True)
            sample = workloads.run_plan(workload, item, outdir, capture, root)
        else:
            sample = workloads.run_grid(workload, item, root)
        measured += sample.plan_s
        samples.append(sample)

    metrics = end_to_end(samples, setup_s)
    meta = run_metadata(workload.name, workloads.cli_jobs(workload), args.seed)
    OUT.mkdir(exist_ok=True)
    print(f"# workload {workload.name}: {len(samples)} scenario(s) planned, seed {args.seed}, "
          f"trace {args.trace}")
    for name, m in metrics.items():
        shown = "n/a (no refinement iterate in this workload)" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:<16} {shown} {m['unit']}")
    failed = 0
    for s in samples:
        failed += bool(s.problems)
        for problem in s.problems:
            print(f"FAILED {s.key}: {problem}")
        if s.frozen:
            print(f"note {s.key}: robots {s.frozen} kept their previous curve in every "
                  f"round after round 0")
    print("# meta " + json.dumps(meta, sort_keys=True))

    record = {"meta": meta, "metrics": metrics, "plan_s_samples": [s.plan_s for s in samples],
              "problems": {s.key: s.problems for s in samples if s.problems}}
    if tracer is None:
        (OUT / f"{workload.name}.json").write_text(json.dumps(record, indent=1) + "\n")
        result = {name: metrics[name] for name in END_TO_END}
    else:
        result, summary = tracing.analyse(
            tracer.spans, tracer.installed, tracing.ROOTS[workload.kind])
        untraced = OUT / f"{workload.name}.json"
        if untraced.is_file():
            reference = json.loads(untraced.read_text())["metrics"]["plan_s"]["value"]
            summary["untraced_plan_s"] = reference
            summary["overhead_s"] = metrics["plan_s"]["value"] - reference
        summary["traced_plan_s"] = metrics["plan_s"]["value"]
        summary["unwrapped"] = missing
        if meta["jobs"] not in (None, 1):
            summary["note"] = "jobs > 1: the QP spans run in worker processes and are not recorded"
        for name, m in result.items():
            print(f"{name:<34} {m['value']:.6g} {m['unit']}")
        print("# trace " + json.dumps(summary, sort_keys=True))
        record.update(summary=summary, per_layer=result, spans=tracer.spans)
        (OUT / f"{workload.name}.trace.json").write_text(json.dumps(record) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
