"""Run workloads over several seeds and summarise every metric.

    python3 perfbench/collect.py --workloads wall8 grid16 --runs 10
    python3 perfbench/collect.py --workloads wall8 grid16 --runs 10 --record "label"

Runs run.py untraced once per seed (seeds first-seed, first-seed + 1, ...), one run at
a time, and prints for each workload and metric the median, the quartiles
as statistics.quantiles(values, n=4) gives them, and the spread
(q3 - q1) / median.  --record appends the summary as one point to
perfbench/trajectory.json.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = done.stdout.splitlines()
    meta = json.loads(next(line for line in lines if line.startswith("# meta "))[len("# meta "):])
    return json.loads(lines[-1]), meta


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--record", metavar="LABEL", help="append the summary to trajectory.json")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    point = {"label": args.record, "date": datetime.date.today().isoformat(),
             "run_seconds": seconds, "workloads": {}}
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, meta = run_once(workload, seed, seconds)
            results.append(result)
            values = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", file=sys.stderr)
        units = {k: m["unit"] for k, m in results[0]["metrics"].items()}
        summary = {
            name: dict(summarise([r["metrics"][name]["value"] for r in results]), unit=unit)
            for name, unit in units.items()
        }
        for name, s in summary.items():
            print(f"{workload:<8} {name:<34} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {s['unit']}")
        point["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "meta": {k: meta[k] for k in ("commit", "source_sha256", "nproc", "python", "numpy",
                                          "scipy", "blas", "blas_threads", "jobs")},
            "metrics": summary,
        }
    print(json.dumps(point, indent=1))
    if args.record:
        path = HERE / "trajectory.json"
        trajectory = json.loads(path.read_text()) if path.is_file() else []
        trajectory.append(point)
        path.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
