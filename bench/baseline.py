"""Run every workload and record the baseline.

    python3 bench/baseline.py

Runs each workload RUNS times with --trace 0, on seeds 1..RUNS, and
once with --trace 1 on seed 1, each run in a fresh process started
from the checkout root and measuring run_seconds of BENCHMARK.json.  Prints every metric by name with its unit and writes
bench/baseline.json: per workload, the median and quartiles of each
end-to-end metric, the traced run's per-layer metrics, the seeds, and
the machine fingerprint.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402

RUNS = 10


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                 + proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_declared():
    """BENCHMARK.json must declare exactly the metrics run.py prints."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    printed = dict(run.END_TO_END)
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    printed_layers = {name: unit for name, unit, _ in run.PER_LAYER}
    printed_layers["trace.overhead_s"] = "s"
    if declared != printed or layers != printed_layers:
        sys.exit("BENCHMARK.json and run.py declare different metrics")
    if [w["name"] for w in spec["workloads"]] != list(wl.WORKLOADS):
        sys.exit("BENCHMARK.json and workloads.py list different workloads")
    return spec


def main():
    seconds = check_declared()["run_seconds"]
    seeds = list(range(1, RUNS + 1))
    out = {
        "machine": {"platform": platform.platform(), "nproc": os.cpu_count(),
                    "python": platform.python_version()},
        "seconds": seconds, "seeds": seeds, "trace_seed": seeds[0],
        "workloads": {},
    }
    for workload in wl.WORKLOADS:
        results = [run_once(workload, s, seconds, 0) for s in seeds]
        traced = run_once(workload, seeds[0], seconds, 1)
        entry = {"attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "end_to_end": {}, "per_layer": traced["metrics"]}
        print(f"{workload}: {entry['attempted']} jobs, {entry['failed']} failed, "
              f"error_rate {entry['failed'] / entry['attempted']:g}")
        for name, unit in run.END_TO_END:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            entry["end_to_end"][name] = {"unit": unit, "median": med, "q1": q1,
                                         "q3": q3, "values": values}
            print(f"  {name} {med:.6g} {unit} (quartiles {q1:.6g}..{q3:.6g}, "
                  f"{len(values)} runs)")
        for name, m in traced["metrics"].items():
            print(f"  {name} {m['value']:.6g} {m['unit']} (traced)")
        out["workloads"][workload] = entry
    path = BENCH / "baseline.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
