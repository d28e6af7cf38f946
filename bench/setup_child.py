"""Time one cold set-up of a workload in this fresh process.

    python3 bench/setup_child.py WORKLOAD SEED DIRECTORY

Imports mfmckit from src/, then generates the workload's inputs for
SEED and writes them to DIRECTORY, and prints the seconds the two took
together.  No module mfmckit needs is loaded before the timed import,
so a new or heavier import shows in the time.  run.py starts this
several times in a run and reports the median as setup_s.
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main():
    workload, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(BENCH.parent / "src"))
    t = time.perf_counter()
    import mfmckit.cli  # noqa: F401
    imported = time.perf_counter() - t
    import workloads as wl  # from this directory, not timed
    t = time.perf_counter()
    wl.write_inputs(wl.jobs_for(workload, seed), directory, seed)
    print(imported + time.perf_counter() - t)


if __name__ == "__main__":
    main()
