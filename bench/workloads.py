"""Workload inputs, job lists and output checks for the mfmckit benchmark.

Everything here is independent of mfmckit: the inputs are written as
files in the two input dialects (integer block and edge list), and the
checks re-derive the facts they test with their own small brute-force
code, so a wrong answer from the library cannot also fool its check.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

DIALECTS = ("block", "edges")

# vertices are 0-based index tuples; files name them x1..xn
TRIANGLE = ((0, 1), (1, 2), (0, 2))
Q6 = ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5))
REFERENCE = ((0, 4), (1, 3), (2, 3, 4), (0, 1, 2))
FANO = ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6),
        (2, 4, 5))


def cycle(n):
    return tuple((i, (i + 1) % n) for i in range(n))


def circulant(n, k):
    """C_n^k: the n windows of k consecutive vertices around an n-cycle."""
    return tuple(tuple(sorted((i + j) % n for j in range(k))) for i in range(n))


def complete(n):
    return tuple(itertools.combinations(range(n), 2))


def vertex_count(edges):
    return 1 + max(v for e in edges for v in e)


# ------------------------------------------------------------ dialects


def block_text(edges, rng):
    """Integer-block dialect: edge count, vertex count, 0/1 rows, mode 3."""
    n = vertex_count(edges)
    rows = [" ".join("1" if v in e else "0" for v in range(n)) for e in edges]
    rng.shuffle(rows)
    return "\n".join([str(len(edges)), str(n)] + rows + ["3"]) + "\n"


def edges_text(edges, rng):
    """Edge-list dialect, with line and vertex order shuffled (the parser
    sorts both, so the order does not change the parsed clutter)."""
    lines = []
    for e in edges:
        names = [f"x{v + 1}" for v in e]
        rng.shuffle(names)
        lines.append("edge " + " ".join(names))
    rng.shuffle(lines)
    return "# generated benchmark input\n" + "\n".join(lines) + "\n"


def input_text(edges, dialect, rng):
    return block_text(edges, rng) if dialect == "block" else edges_text(edges, rng)


# ------------------------------------------------------------ random inputs


def random_clutter(rng, n, q):
    """A clutter with exactly q edges that together cover all n vertices.

    Every vertex is covered so the two dialects describe the same
    clutter (the edge list cannot name an isolated vertex)."""
    pool = [frozenset(s) for r in range(1, n + 1)
            for s in itertools.combinations(range(n), r)]
    for _ in range(10_000):
        rng.shuffle(pool)
        chosen = []
        for cand in pool:
            if all(not (cand <= e or e <= cand) for e in chosen):
                chosen.append(cand)
                if len(chosen) == q:
                    break
        if len(chosen) == q and set().union(*chosen) == set(range(n)):
            return tuple(sorted(tuple(sorted(e)) for e in chosen))
    raise ValueError(f"no clutter with {n} vertices and {q} edges found")


# (vertices, edges, jobs) of mfmc-random: 100 jobs on 2-7 vertices and
# 1-10 edges, none longer than ~0.2 s, so a run times each job ~10
# times and its median time is steady.  The shapes are fixed and only the
# edges come from the seed.  The 20 jobs on (5, 6), a shape of steady
# cost, sit just below the four costliest jobs, so job_p90_ms (the 10th
# costliest job) falls inside that group and moves little between seeds.
MFMC_SHAPES = (
    (2, 1, 3), (2, 2, 4), (3, 1, 2), (3, 2, 4), (3, 3, 5),
    (4, 1, 2), (4, 2, 4), (4, 3, 6), (4, 4, 8), (4, 5, 10),
    (5, 3, 4), (5, 4, 8), (5, 5, 10), (5, 6, 20),
    (5, 7, 1), (5, 8, 1), (5, 9, 1), (5, 10, 1),
    (6, 2, 3), (7, 1, 3),
)


def mfmc_shapes():
    """The (n, q) of each job, interleaved in a fixed order."""
    shapes = [(n, q) for n, q, count in MFMC_SHAPES for _ in range(count)]
    random.Random("mfmc-shapes").shuffle(shapes)
    return shapes


def random_graph(rng, n, m):
    """A connected graph on n vertices with m edges: a random spanning
    tree plus m - n + 1 random further edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    others = [e for e in itertools.combinations(range(n), 2) if e not in edges]
    rng.shuffle(others)
    edges.update(others[:m - n + 1])
    return tuple(sorted(edges))


# ------------------------------------------------------------ jobs


@dataclass(frozen=True)
class Job:
    """One CLI call: argv (with {input} for the input file), the input it
    reads, and the check applied to its stdout."""

    key: str
    argv: tuple
    edges: tuple = None
    dialect: str = None
    check: str = None


ANALYZE_ARGS = ("analyze", "{input}", "--format", "json", "--imax", "3",
                "--tdi-bound", "2")
MFMC_ARGS = ("mfmc", "{input}", "--format", "json", "--imax", "2")
# The 4 x 4 scan (0.3 s) rather than the 5 x 3 one (975 clutters, ~7 s):
# a run has room for only four 7 s calls, and the machine's speed
# changes within a call that long, which the calibration rounds on
# either side of it (run.py) cannot see.
SCAN_ARGS = ("scan", "--max-vertices", "4", "--max-edges", "4",
             "--format", "json")

# C6 and K3,3 are left out for the same reason: each is one 5-7 s call.
CORPUS = (
    ("triangle", TRIANGLE),
    ("q6", Q6),
    ("reference", REFERENCE),
    ("c5", cycle(5)),
)

# C13 and C14 also set job_p90_ms: with them, the two jobs it falls
# between are fixed ones (C12 and C_11^3, ~140 ms), above the seeded
# graphs, whose cost ranges over 2-3x with the seed.
REES_FIXED = (
    tuple((f"c{n}", cycle(n)) for n in range(9, 15))
    + tuple((f"circ{n}_3", circulant(n, 3)) for n in range(9, 13))
    + tuple((f"k{n}", complete(n)) for n in range(5, 8))
    + (("fano", FANO),)
)

# (vertices, edges) of the seeded random graphs in rees-cones.  They
# stay cheap next to the fixed part (under ~0.12 s each), so the seed
# barely moves a pass.
REES_RANDOM_SHAPES = ((9, 10), (10, 11), (11, 12))


def jobs_for(workload, seed):
    """The job list of one pass; the same seed gives the same jobs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "analyze-corpus":
        # each seed writes three inputs in each dialect
        return [Job(f"{name}.{DIALECTS[(k + seed) % 2]}", ANALYZE_ARGS, edges,
                    DIALECTS[(k + seed) % 2], "analyze")
                for k, (name, edges) in enumerate(CORPUS)]
    if workload == "mfmc-random":
        return [Job(f"seed{seed}/r{k:03d}", MFMC_ARGS, random_clutter(rng, n, q),
                    DIALECTS[k % 2], "mfmc")
                for k, (n, q) in enumerate(mfmc_shapes())]
    if workload == "scan":
        return [Job("scan-4x4", SCAN_ARGS, check="scan")]
    if workload == "rees-cones":
        inputs = [(name, edges, DIALECTS[(k + seed) % 2])
                  for k, (name, edges) in enumerate(REES_FIXED)]
        inputs += [(f"seed{seed}/g{n}_{m}", random_graph(rng, n, m), DIALECTS[k % 2])
                   for k, (n, m) in enumerate(REES_RANDOM_SHAPES)]
        jobs = []
        for name, edges, dialect in inputs:
            for cmd in ("facets", "hilbert"):
                jobs.append(Job(f"{name}.{cmd}", (cmd, "{input}"), edges,
                                dialect, cmd))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("analyze-corpus", "mfmc-random", "scan", "rees-cones")


def write_inputs(jobs, directory, seed):
    """Write each job's input file; returns {job key: argv list}."""
    rng = random.Random(f"dialect-text:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    argvs = {}
    for k, job in enumerate(jobs):
        path = None
        if job.edges is not None:
            path = directory / f"in{k:03d}.txt"
            path.write_text(input_text(job.edges, job.dialect, rng), encoding="utf-8")
        argvs[job.key] = [str(path) if a == "{input}" else a for a in job.argv]
    return argvs


# ------------------------------------------------------------ checks


class CheckFailed(Exception):
    pass


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def min_cover_size(n, edges):
    masks = [sum(1 << v for v in e) for e in edges]
    return min(bin(m).count("1") for m in range(1 << n)
               if all(m & e for e in masks))


def max_matching_size(edges):
    best = 0
    for r in range(1, len(edges) + 1):
        if any(all(not (set(a) & set(b)) for a, b in itertools.combinations(f, 2))
               for f in itertools.combinations(edges, r)):
            best = r
        else:
            break
    return best


def minimal_covers(n, edges):
    masks = [sum(1 << v for v in e) for e in edges]
    covers = [m for m in range(1 << n) if all(m & e for e in masks)]
    return [m for m in covers
            if not any(c != m and c & m == c for c in covers)]


def minor_edges(edges, zeros, ones):
    """Edges of the minor, or None when it is the unit or zero ideal."""
    kept = [set(e) - set(ones) for e in edges if not set(e) & set(zeros)]
    if not kept or any(not e for e in kept):
        return None
    return [e for e in kept if not any(f < e for f in kept)]


def koenig_holds(edges):
    verts = sorted({v for e in edges for v in e})
    pos = {v: i for i, v in enumerate(verts)}
    relabeled = sorted({tuple(sorted(pos[v] for v in e)) for e in edges})
    return min_cover_size(len(verts), relabeled) == max_matching_size(relabeled)


def in_ordinary_power(a, edges, i):
    return any(all(sum(v in e for e in combo) <= a[v] for v in range(len(a)))
               for combo in itertools.combinations_with_replacement(edges, i))


def check_vertices(edges, n, vertices):
    require(vertices, "no vertices reported")
    for x in vertices:
        require(len(x) == n and all(v >= 0 for v in x), f"vertex {x} not >= 0")
        require(all(sum(x[v] for v in e) >= 1 for e in edges),
                f"vertex {x} violates x.A >= 1")


def check_facets(edges, n, facets, basis):
    """Every returned facet is valid on every cone generator and tight on
    n independent ones; every basis element lies in every facet's
    half-space; the unit vectors belong to a non-empty basis."""
    units = [tuple(int(i == j) for j in range(n + 1)) for i in range(n)]
    gens = units + [tuple(int(v in e) for v in range(n)) + (1,) for e in edges]
    for f in facets:
        require(len(f) == n + 1, f"facet {f} has the wrong length")
        tight = [g for g in gens if sum(a * b for a, b in zip(f, g)) == 0]
        require(all(sum(a * b for a, b in zip(f, g)) >= 0 for g in gens),
                f"facet {f} cuts off a generator")
        require(rank(tight) == n, f"facet {f} is not a facet")
    for z in basis:
        require(all(sum(a * b for a, b in zip(f, z)) >= 0 for f in facets),
                f"basis element {z} violates a facet")
    for u in units if basis else ():
        require(u in basis, f"unit vector {u} missing from the Hilbert basis")


def rank(rows):
    """Rank of an integer matrix by fraction-free elimination."""
    m = [list(r) for r in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        for i in range(r + 1, len(m)):
            x = m[i][c]
            if x:
                row = [p * a - x * b for a, b in zip(m[i], m[r])]
                g = gcd(*row)
                m[i] = [a // g for a in row] if g > 1 else row
        r += 1
    return r


KNOWN_VERDICTS = {
    "triangle": {"mfmc": False, "integral": False},
    "q6": {"mfmc": False, "integral": True, "normal": False},
    "reference": {"mfmc": True},
    "c5": {"mfmc": False},
}


def check_analyze(job, out, earlier):
    data = json.loads(out)
    name = job.key.split(".")[0]
    edges = job.edges
    n = vertex_count(edges)
    v = data["verdict"]
    for k, want in KNOWN_VERDICTS[name].items():
        require(v[k] == want, f"{name}: {k} is {v[k]}, expected {want}")
    if name == "triangle":
        require(v["witnesses"]["integral"] == ["1/2", "1/2", "1/2"],
                "triangle: fractional vertex is not 1/2,1/2,1/2")
    require(v["mfmc"] == (v["integral"] and v["normal"]), "mfmc != integral and normal")
    require(v["i_max_checked"] == 3, "i_max_checked != 3")
    require(data["input"]["source_format"] ==
            {"block": "normaliz", "edges": "native"}[job.dialect],
            "source format does not match the dialect written")
    vertices = [tuple(Fraction(s) for s in x) for x in data["vertices"]]
    check_vertices(edges, n, vertices)
    require(v["integral"] == all(x.denominator == 1 for vv in vertices for x in vv),
            "integral verdict disagrees with the vertex list")
    sh = data["support_hyperplanes"]
    facets = [tuple(int(i == j) for j in range(n + 1)) for i in sh["coordinate_indices"]]
    facets += [tuple(f) for f in sh["vertex_normals"]]
    check_facets(edges, n, facets, [tuple(z) for z in data["hilbert_basis"]])
    require([r["i"] for r in data["powers"]] == [1, 2, 3], "powers rows are not 1..3")
    tdi = data["tdi"]
    require(tdi["bound"] == 2 and tdi["checked"] >= 1, "tdi scan examined nothing")


def check_mfmc(job, out, earlier):
    v = json.loads(out)
    edges = job.edges
    n = vertex_count(edges)
    w = v["witnesses"]
    require(v["mfmc"] == (v["integral"] and v["normal"]), "mfmc != integral and normal")
    require(v["i_max_checked"] == 2, "i_max_checked != 2")
    require(set(w) == {k for k in ("normal", "integral", "koenig", "packing",
                                   "torsion_free", "ntf") if not v[k]},
            "witnesses do not match the failed properties")
    require(v["koenig"] == koenig_holds(edges), "koenig verdict is wrong")
    if not v["koenig"]:
        require([w["koenig"]["covering"], w["koenig"]["matching"]] ==
                [min_cover_size(n, edges), max_matching_size(edges)],
                "koenig witness numbers are wrong")
    if v["packing"]:
        require(v["koenig"], "packing without koenig")
    else:
        spec = w["packing"]
        m = minor_edges(edges, spec["zeros"], spec["ones"])
        require(m is not None and not koenig_holds(m), "packing witness is no bad minor")
    if v["mfmc"]:
        require(v["packing"], "mfmc without the packing property")
    if not v["integral"]:
        x = tuple(Fraction(s) for s in w["integral"])
        check_vertices(edges, n, [x])
        require(any(c.denominator != 1 for c in x), "integral witness is integral")
    if not v["ntf"]:
        i, a = w["ntf"]["i"], w["ntf"]["monomial"]
        require(all(sum(a[u] for u in range(n) if c >> u & 1) >= i
                    for c in minimal_covers(n, edges)),
                "ntf witness is not in the symbolic power")
        require(not in_ordinary_power(a, edges, i), "ntf witness is in the ordinary power")


# the totals acceptance criterion 8 of the test suite pins for this scan
SCAN_TOTALS = {"total": 119, "packing_true": 75, "uniform_tested": 34}


def check_scan(job, out, earlier):
    r = json.loads(out)
    for k, want in SCAN_TOTALS.items():
        require(r[k] == want, f"scan {k} is {r[k]}, expected {want}")
    require(not r["reduced_counterexamples"] and not r["torsion_counterexamples"],
            "scan reports counterexamples")
    require(r["reduced_confirmed"] == r["packing_true"], "scan: not every packing clutter confirmed")


def _block_rows(out, header):
    lines = out.strip().splitlines()
    require(lines[0].endswith(header), f"missing '{header}' header")
    count = int(lines[0].split()[0])
    rows = [tuple(int(x) for x in ln.split()) for ln in lines[1:]]
    require(len(rows) == count, "row count differs from header")
    return rows


def check_facets_job(job, out, earlier):
    n = vertex_count(job.edges)
    rows = _block_rows(out, "support hyperplanes: ")
    check_facets(job.edges, n, rows, [])


def check_hilbert_job(job, out, earlier):
    """The basis is checked against the facets the facets job of the
    same input printed earlier in the pass."""
    n = vertex_count(job.edges)
    basis = _block_rows(out, "generators of integral closure of Rees algebra: ")
    facets = _block_rows(earlier[job.key.replace(".hilbert", ".facets")],
                         "support hyperplanes: ")
    for z in basis:
        require(len(z) == n + 1 and min(z) >= 0, f"basis element {z} is not in N^(n+1)")
    check_facets(job.edges, n, facets, basis)
    for e in job.edges:
        # every lifted edge lies in the semigroup, so some degree-one
        # basis element lies below it
        g = tuple(int(v in e) for v in range(n)) + (1,)
        require(any(z[-1] == 1 and all(a <= b for a, b in zip(z, g)) for z in basis),
                f"no degree-one basis element below lifted edge {e}")


CHECKS = {
    "analyze": check_analyze,
    "mfmc": check_mfmc,
    "scan": check_scan,
    "facets": check_facets_job,
    "hilbert": check_hilbert_job,
}
