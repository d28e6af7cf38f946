"""Benchmark of the mfmckit command line, one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; mfmckit is imported from
``src/``.  Each job is one call of ``mfmckit.cli.main`` on generated
input files, one at a time (a closed loop with one client).  Passes
over the job list repeat until ``--seconds`` have been measured, and
every job's output is checked.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off.  With ``--trace 1`` the run alternates untraced and traced
passes and reports per-layer numbers from the traced ones; the spans of
the last traced pass are written to ``.bench_out/``.  See README.md in
this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402
from tracing import LAYERS, REPEAT_TARGETS, Tracer  # noqa: E402

SETUP_SAMPLES = 11
MIN_PASSES = 2

# (name, unit) of the end-to-end metrics, printed with --trace 0
END_TO_END = (
    ("wall_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

# (name, unit, value from a traced pass summary), printed with --trace 1.
# Per-layer metrics have no bound, so a 0 is allowed: it marks a layer
# or function the workload does not reach (no ideals run on scan).


def _calls(f):
    return lambda s: s["functions"].get(f, {}).get("calls", 0)


def _self(f):
    return lambda s: s["functions"].get(f, {}).get("self_s", 0.0)


def _repeat(f):
    return lambda s: s["functions"].get(f, {}).get("repeat", 0.0)


def _count(k):
    return lambda s: s["counts"].get(k, 0)


PER_LAYER = tuple(
    [(f"layer.{layer}.share", "%", (lambda s, l=layer: s["layers"][l]["share"]))
     for layer in LAYERS]
    + [(f"{f}.calls", "count", _calls(f)) for f in (
        "ideals.symbolic_power", "ideals.closure_power", "ideals.ordinary_power",
        "cones.qa_vertices_direct", "cones.support_hyperplanes",
        "cones.facet_normals", "linalg.solve_square", "linalg.det", "linalg.rank",
        "clutters.minor", "clutters.minimal_vertex_covers",
        "clutters.matching_number", "hilbert.hilbert_basis",
        "hilbert.semigroup_member")]
    + [(f"{f}.repeat", "ratio", _repeat(f)) for f in REPEAT_TARGETS]
    + [(k, "count", _count(k)) for k in (
        "ideals.box_points", "ideals.gens_out", "cones.qa.systems",
        "clutters.cover_masks", "hilbert.basis_size",
        "decisions.tdi.vectors_checked")]
    + [("ideals.gen_yield", "ratio", _count("ideals.gen_yield")),
       ("cones.qa.vertex_yield", "ratio", _count("cones.qa.vertex_yield"))]
    + [(f"{f}.self_s", "s", _self(f)) for f in (
        "ideals.symbolic_power", "ideals.closure_power", "ideals.ordinary_power",
        "ideals.minimalize",
        "cones.qa_vertices_direct", "cones.support_hyperplanes",
        "cones.facet_normals", "cones.rees_cone",
        "linalg.solve_square", "linalg.det", "linalg.rank",
        "clutters.packing_property", "clutters.minor",
        "clutters.minimal_vertex_covers", "clutters.matching_number",
        "clutters.enumerate_clutters",
        "hilbert.hilbert_basis", "hilbert.semigroup_member",
        "hilbert.smith_invariants",
        "decisions.decide_mfmc", "decisions.ntf_check",
        "decisions.integrality_equivalences", "decisions.tdi_bounded_check",
        "decisions.conjecture_scan",
        "reporting.parse_input", "reporting.analyze", "reporting.powers_table",
        "cli.main")]
    + [("reporting.render.self_s", "s", lambda s: s["render_self_s"])]
)


class SetupError(Exception):
    pass


def import_package():
    """Import mfmckit from this checkout's src/."""
    try:
        cli = importlib.import_module("mfmckit.cli")
    except ImportError as e:
        raise SetupError(f"cannot import mfmckit from {SRC}: {e}") from None
    pkg = sys.modules["mfmckit"]
    if Path(pkg.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"mfmckit was imported from {pkg.__file__}, not {SRC}")
    return pkg, cli


def setup(workload, seed, workdir):
    """Import plus input generation and writing: (package, cli module,
    jobs, argv per job)."""
    pkg, cli = import_package()
    jobs = wl.jobs_for(workload, seed)
    return pkg, cli, jobs, wl.write_inputs(jobs, workdir, seed)


# ------------------------------------------------------------ machine speed
#
# On a shared 2-core x86-64 VM (Linux 6.18, Python 3.11) the same code
# ran at two speeds about 1.6x apart, switching every few seconds and
# for minutes at a time; process CPU time slowed just as much as wall
# time.  So every time is scaled by a calibration round run next to
# it: a reported second is a second on a machine where one round takes
# CAL_REF_S.


def calibration_round():
    """Fixed pure-Python work of the library's own kind: exact
    elimination over Fractions, then building sets and tuples."""
    n = 6
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n + 1)]
         for i in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    d = {}
    for s in itertools.combinations(range(10), 3):
        d[frozenset(s)] = tuple(sorted(x * 3 % 7 for x in s))
    return len(d)


CAL_REF_S = 0.001


def calibrate():
    """Seconds one calibration round takes now."""
    t = time.perf_counter()
    calibration_round()
    return time.perf_counter() - t


def scaled(seconds, before, after):
    """Seconds at the speed of the calibration rounds either side."""
    return seconds * 2 * CAL_REF_S / (before + after)


def time_setup(workload, seed, workdir):
    """One cold set-up, in a fresh process that imports mfmckit and
    writes the inputs and times both itself, scaled by calibration."""
    before = calibrate()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_child.py"), workload, str(seed),
             str(workdir / "setup")],
            capture_output=True, text=True, timeout=120, check=True)
    except subprocess.CalledProcessError as e:
        raise SetupError(f"set-up process failed:\n{e.stderr}") from None
    return scaled(float(proc.stdout), before, calibrate())


class SetupTimer:
    """Times SETUP_SAMPLES cold set-ups: one before the first pass, the
    others after passes at even intervals over the run, so that the
    median does not rest on one moment of the machine."""

    def __init__(self, workload, seed, workdir, seconds):
        self.args = (workload, seed, workdir)
        self.times = [time_setup(*self.args)]
        self.start = time.perf_counter()
        self.interval = seconds / SETUP_SAMPLES

    def sample(self):
        """Set up once more if the next one is due."""
        due = self.start + len(self.times) * self.interval
        if len(self.times) < SETUP_SAMPLES and time.perf_counter() >= due:
            self.times.append(time_setup(*self.args))


def run_pass(cli, jobs, argvs, tracer=None):
    """One pass over the job list: [(scaled seconds, exit code, stdout,
    error)], and the pass's measured wall time.  A calibration round
    runs before each job and after the last; each job's time is scaled
    by the mean of the rounds on either side of it."""
    results = []
    wall = 0.0
    cal = calibrate()
    for k, job in enumerate(jobs):
        if tracer is not None:
            tracer.current_job = k
        buf = io.StringIO()
        err = rc = None
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argvs[job.key])
        except Exception as e:  # a job that raises counts as failed
            err = e
        elapsed = time.perf_counter() - t
        after = calibrate()
        wall += elapsed
        results.append((scaled(elapsed, cal, after), rc, buf.getvalue(), err))
        cal = after
    return results, wall


class Checker:
    """Checks each job's output: the first output of a job against the
    recorded digest and the workload's own checks, later ones against
    the first byte for byte."""

    def __init__(self, digests):
        self.digests = digests
        self.first = {}
        self.attempted = 0
        self.failures = []

    def check_pass(self, jobs, results):
        earlier = {}
        for job, (_, rc, out, err) in zip(jobs, results):
            self.attempted += 1
            problem = self._problem(job, rc, out, err, earlier)
            earlier[job.key] = out
            if problem:
                self.failures.append(f"{job.key}: {problem}")

    def _problem(self, job, rc, out, err, earlier):
        if err is not None:
            return f"raised {type(err).__name__}: {err}"
        if rc != 0:
            return f"exit code {rc}"
        if job.key in self.first:
            return None if out == self.first[job.key] else "output changed between passes"
        self.first[job.key] = out
        want = self.digests.get(f"{job.check}/{job.key}")
        if want is not None and wl.digest(out) != want:
            return "stdout differs from the recorded digest"
        try:
            wl.CHECKS[job.check](job, out, earlier)
        except (wl.CheckFailed, ValueError, KeyError, TypeError, IndexError) as e:
            return f"check failed: {type(e).__name__}: {e}"
        return None


def load_digests():
    path = BENCH / "digests.json"
    return json.loads(path.read_text())["digests"] if path.exists() else {}


def measure(cli, jobs, argvs, checker, seconds, setups):
    """Untraced passes, at least MIN_PASSES, until the next one would
    overrun the budget; returns each job's scaled times, one per pass,
    and the measured wall time of each pass."""
    deadline = time.perf_counter() + seconds
    times = [[] for _ in jobs]
    walls = []
    while True:
        results, wall = run_pass(cli, jobs, argvs)
        checker.check_pass(jobs, results)
        setups.sample()
        for k, r in enumerate(results):
            times[k].append(r[0])
        walls.append(wall)
        left = deadline - time.perf_counter()
        if len(walls) >= MIN_PASSES and statistics.median(walls) > left:
            return times, walls


def measure_traced(pkg, cli, jobs, argvs, checker, seconds, spans_path):
    """Alternate untraced and traced passes; returns the scaled
    untraced and traced pass times and one summary per traced pass."""
    deadline = time.perf_counter() + seconds
    tracer = Tracer(pkg)
    plain, traced, summaries = [], [], []
    while True:
        results, wall = run_pass(cli, jobs, argvs)
        checker.check_pass(jobs, results)
        plain.append(sum(r[0] for r in results))
        tracer.reset()
        tracer.install()
        try:
            results, traced_wall = run_pass(cli, jobs, argvs, tracer)
        finally:
            tracer.uninstall()
        checker.check_pass(jobs, results)
        traced.append(sum(r[0] for r in results))
        summaries.append(tracer.summary(scale=traced[-1] / traced_wall))
        left = deadline - time.perf_counter()
        if wall + traced_wall > left:
            break
    tracer.write_spans(spans_path, [j.key for j in jobs])
    return plain, traced, summaries, tracer


def print_layer_report(summary, tracer, jobs):
    """The full per-function table of one traced pass."""
    print("function                                    calls      self_s  repeat")
    for f, v in sorted(summary["functions"].items(), key=lambda kv: -kv[1]["self_s"]):
        rep = f"{v['repeat']:7.2f}" if "repeat" in v else ""
        print(f"{f:40s} {v['calls']:9d} {v['self_s']:11.4f} {rep}")
    print("layer       self_s   share")
    for layer, v in summary["layers"].items():
        print(f"{layer:10s} {v['self_s']:8.3f} {v['share']:6.1f}%")
    print(f"reporting.render.self_s {summary['render_self_s']:.4f} s")
    for k, v in sorted(summary["counts"].items()):
        print(f"{k} {v}")
    print("calls per job of the functions the compute-once refactor targets:")
    for k, job in enumerate(jobs):
        per = tracer.job_calls.get(k)
        if per:
            print(f"  {job.key}: " + ", ".join(
                f"{f.split('.')[1]} {per[f]}" for f in REPEAT_TARGETS))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{os.getpid()}"
    try:
        pkg, cli, jobs, argvs = setup(args.workload, args.seed, workdir)
        checker = Checker(load_digests())
        if args.trace:
            plain, traced, summaries, tracer = measure_traced(
                pkg, cli, jobs, argvs, checker, args.seconds,
                OUT / f"spans-{args.workload}.bin")
        else:
            setups = SetupTimer(args.workload, args.seed, workdir, args.seconds)
            times, walls = measure(cli, jobs, argvs, checker, args.seconds, setups)
    except SetupError as e:
        print(f"setup failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in checker.failures:
        print(f"FAILED {line}")
    failed = len(checker.failures)
    print(f"workload {args.workload}, seed {args.seed}: {checker.attempted} jobs "
          f"attempted, {failed} failed, error_rate {failed / checker.attempted:g}")
    metrics = {}
    if args.trace:
        print_layer_report(summaries[-1], tracer, jobs)
        for name, unit, get in PER_LAYER:
            metrics[name] = {"value": statistics.median(get(s) for s in summaries),
                             "unit": unit}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(plain), "unit": "s"}
        print(f"untraced passes {' '.join(f'{w:.3f}' for w in plain)} s, "
              f"traced passes {' '.join(f'{w:.3f}' for w in traced)} s; "
              f"spans of the last traced pass: {summaries[-1]['spans']}")
    else:
        # A job's time is the median of its scaled times over the passes;
        # wall_s is the sum of these, and the percentiles are over jobs.
        typical = sorted(statistics.median(t) for t in times)
        values = {
            "wall_s": sum(typical),
            "job_p50_ms": 1000.0 * statistics.median(typical),
            "job_p90_ms": 1000.0 * (statistics.quantiles(typical, n=10, method="inclusive")[8]
                                    if len(typical) > 1 else typical[0]),
            "setup_s": statistics.median(setups.times),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(f"{len(walls)} passes of {len(jobs)} jobs, measured pass wall "
              + " ".join(f"{w:.3f}" for w in walls) + " s; times below are scaled "
              f"by calibration; job_p50_ms and job_p90_ms are over the {len(jobs)} "
              f"per-job medians; setup_s is the median of {len(setups.times)} "
              "cold set-ups")
        slow = sorted(zip(map(statistics.median, times), jobs), key=lambda x: -x[0])
        print("slowest jobs (ms): " + ", ".join(
            f"{j.key} {1000 * t:.1f}" for t, j in slow[:6]))
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": checker.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
