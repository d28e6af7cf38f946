"""Record the stdout digest of every job for the default seed.

    python3 bench/record_digests.py

Runs one pass of each workload at seeds 1 and 2, which between them
write every fixed input in both dialects, checks every output with the
workload's own checks, and writes bench/digests.json.  run.py compares
each job's first output with the digest recorded under the same job key.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads as wl

SEEDS = (1, 2)


def main():
    sys.path.insert(0, str(run.SRC))
    digests = {}
    for workload in wl.WORKLOADS:
        for seed in SEEDS:
            workdir = run.OUT / f"digests-{workload}-{seed}"
            try:
                _, cli, jobs, argvs = run.setup(workload, seed, workdir)
                checker = run.Checker({})
                results, _ = run.run_pass(cli, jobs, argvs)
                checker.check_pass(jobs, results)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if checker.failures:
                sys.exit(f"{workload} seed {seed}: " + "; ".join(checker.failures))
            for job, (_, _, out, _) in zip(jobs, results):
                digests[f"{job.check}/{job.key}"] = wl.digest(out)
            print(f"{workload} seed {seed}: {len(jobs)} jobs recorded", flush=True)
    path = run.BENCH / "digests.json"
    path.write_text(json.dumps({"seeds": list(SEEDS), "digests": digests},
                               indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {path}")


if __name__ == "__main__":
    main()
