"""Set-up probe: in a fresh interpreter, import the planner and build the
first scenario of a workload, then print the wall clock.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>

run.py launches it several times and reports the median time from launch
to the printed clock as setup_s.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports swarmplan.cli and every layer it calls)

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    next(workloads.WORKLOADS[name].scenarios(seed, workdir))
    print(repr(time.time()))
