"""Brute-force reference implementations used to pin expected values.

Everything here favors obviousness over speed and shares no code with
the package: rational Gaussian elimination instead of fraction-free
pivoting, subset enumeration instead of double description, cofactor
determinants instead of integer reduction.  The one exception is the
placing triangulation, which recomputes every hull from scratch with
the package's facet_normals instead of reading the incremental pass.
The recursive searches are the package's earlier forms of its search
loops, kept to pin the loops' output order and node counts;
slack_closure is the closure route the Hilbert basis replaced, and
unseeded_dd_steps is the double description pass before its orthant
start, kept to pin every step of the seeded pass.  full_power_ntf_check
is the ntf check before it stopped at the witness: it builds both
powers with the package's public power functions and compares them.
Desk-scale inputs only.
"""

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

from mfmckit.clutters import ExponentMatrix, clutter_from_edges
from mfmckit.cones import RationalCone, facet_normals, support_hyperplanes
from mfmckit.decisions import NtfResult
from mfmckit.errors import SizeLimit
from mfmckit.ideals import membership, ordinary_power, symbolic_power


# ---------------------------------------------------------------- rationals


def frac_eliminate(rows):
    """Row echelon form over Fraction; returns (echelon, pivot columns)."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def frac_rank(rows):
    return len(frac_eliminate(rows)[1]) if rows else 0


def frac_det(rows):
    n = len(rows)
    m = [[Fraction(x) for x in r] for r in rows]
    sign = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    out = Fraction(sign)
    for i in range(n):
        out *= m[i][i]
    return out


def frac_solve(rows, rhs):
    """Solve a square system; None when singular."""
    n = len(rows)
    aug = [[Fraction(x) for x in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    ech, pivots = frac_eliminate(aug)
    if len(pivots) < n or any(p >= n for p in pivots):
        return None
    sol = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        sol[c] = ech[r][n]
    return tuple(sol)


def nullspace_normal(rows, dim):
    """A non-zero integer vector orthogonal to all rows; None unless the
    nullspace is exactly one-dimensional."""
    ech, pivots = frac_eliminate([list(r) for r in rows])
    free = [c for c in range(dim) if c not in pivots]
    if len(free) != 1:
        return None
    f = free[0]
    vec = [Fraction(0)] * dim
    vec[f] = Fraction(1)
    for r, c in enumerate(pivots):
        vec[c] = -ech[r][f]
    mult = 1
    for x in vec:
        mult = mult * x.denominator // gcd(mult, x.denominator)
    ints = [int(x * mult) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


# ---------------------------------------------------------------- cones


def brute_facets(generators, dim):
    """Irreducible facet normals of a full-dimensional pointed cone,
    found by testing the hyperplane through every (dim-1)-subset of
    generators.  Valid because each facet is spanned by generators."""
    out = set()
    for sub in itertools.combinations(generators, dim - 1):
        if frac_rank(list(sub)) != dim - 1:
            continue
        normal = nullspace_normal(sub, dim)
        if normal is None:
            continue
        dots = [sum(a * b for a, b in zip(normal, g)) for g in generators]
        if all(d >= 0 for d in dots):
            out.add(normal)
        elif all(d <= 0 for d in dots):
            out.add(tuple(-x for x in normal))
    return out


def unseeded_dd_steps(constraints, dim, cap=100_000):
    """cones._dd_steps as it was before its orthant start, with cap for
    RAY_CAP: the pass begins from the whole space, lineality basis the
    unit vectors and no rays, and computes every step, unit-vector
    constraints included, by dot products."""
    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    def primitive(v):
        g = gcd(*v)
        return tuple(x // g for x in v)

    lin = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays = []  # [vector, zero-set bitmask]
    for idx, c in enumerate(constraints):
        bit = 1 << idx
        hit = next((j for j, l in enumerate(lin) if dot(l, c)), None)
        if hit is not None:
            l0 = lin[hit]
            p0 = dot(l0, c)
            if p0 < 0:
                l0, p0 = tuple(-x for x in l0), -p0
            new_lin = []
            for j, l in enumerate(lin):
                if j == hit:
                    continue
                pl = dot(l, c)
                if pl:
                    l = primitive(tuple(p0 * a - pl * b for a, b in zip(l, l0)))
                new_lin.append(l)
            new_rays = []
            for vec, z in rays:
                pr = dot(vec, c)
                if pr:
                    vec = primitive(tuple(p0 * a - pr * b for a, b in zip(vec, l0)))
                new_rays.append([vec, z | bit])
            new_rays.append([l0, bit - 1])
            lin, rays = new_lin, new_rays
            raised, neg = True, ()
        else:
            pos, zero, neg = [], [], []
            for ray in rays:
                p = dot(ray[0], c)
                if p > 0:
                    pos.append((ray, p))
                elif p < 0:
                    neg.append((ray, p))
                else:
                    zero.append(ray)
            survivors = [ray for ray, _ in pos]
            rank = dim - len(lin)
            for ray in zero:
                ray[1] |= bit
                survivors.append(ray)
            for rp, pp in pos:
                for rn, pn in neg:
                    meet = rp[1] & rn[1]
                    if meet.bit_count() < rank - 2:
                        continue
                    blocked = any(
                        r is not rp and r is not rn and (r[1] & meet) == meet
                        for r in rays
                    )
                    if blocked:
                        continue
                    w = primitive(tuple(pp * b - pn * a for a, b in zip(rp[0], rn[0])))
                    survivors.append([w, meet | bit])
                    if len(survivors) > cap:
                        raise SizeLimit("double description", len(survivors), cap)
            rays, raised = survivors, False
        if len(rays) > cap:
            raise SizeLimit("double description", len(rays), cap)
        yield raised, neg, rays, lin


def basic_solution_vertices(n, columns):
    """Vertices of {x >= 0 : <c, x> >= 1 for every column c}: every
    n-subset of the n unit rows (right-hand side 0) and the column rows
    (right-hand side 1) is solved, and the feasible unique solutions kept."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)] + list(columns)
    rhs = [0] * n + [1] * len(columns)
    found = set()
    for sub in itertools.combinations(range(len(rows)), n):
        x = frac_solve([rows[i] for i in sub], [rhs[i] for i in sub])
        if x is not None and min(x, default=0) >= 0 and all(
                sum(a * b for a, b in zip(c, x)) >= 1 for c in columns):
            found.add(x)
    return tuple(sorted(found))


def vertex_to_facet_normal(vertex):
    """Primitive (alpha', -b) normal of the Rees-cone facet attached to a
    rational vertex alpha'/b of Q(A): b is the lcm of the denominators."""
    b = lcm(*(Fraction(x).denominator for x in vertex))
    return tuple(int(x * b) for x in vertex) + (-b,)


def placing_triangulation(gens, dim):
    """Simplices (generator tuples) of the placing triangulation in list
    order: a generator raising the rank joins every simplex; any other
    is joined to each (dim-1)-face of a simplex lying on a facet of the
    processed prefix that it sees."""
    simplices, processed = [()], []
    for g in gens:
        if frac_rank(processed + [g]) > frac_rank(processed):
            simplices = [s + (g,) for s in simplices]
        elif frac_rank(processed) != dim:
            raise ValueError("placing step inside a proper subspace")
        else:
            faces = set()
            for f in facet_normals(RationalCone(dim, tuple(processed))):
                if sum(a * b for a, b in zip(g, f)) < 0:
                    for s in simplices:
                        tight = tuple(
                            t for t in s if sum(a * b for a, b in zip(t, f)) == 0)
                        if len(tight) == dim - 1:
                            faces.add(tight)
            simplices += [face + (g,) for face in faces]
        processed.append(g)
    return simplices


def parallelepiped_points(simplex):
    """Non-zero lattice points p = sum t_j w_j, 0 <= t_j < 1, of the
    half-open parallelepiped of a full-rank simplex: every integer point
    of its bounding box whose rational coordinates t = W^-1 p lie in
    [0, 1), tested as 0 <= L t < L over the lcm L of W^-1's denominators."""
    dim = len(simplex)
    rows = [[w[i] for w in simplex] for i in range(dim)]
    inverse = list(zip(*(frac_solve(rows, [int(i == k) for i in range(dim)])
                         for k in range(dim))))
    den = lcm(*(x.denominator for r in inverse for x in r))
    scaled = [[int(x * den) for x in r] for r in inverse]
    # x_i > the sum of the negative entries and < the sum of the positive ones
    box = [range(sum(min(x, 0) for x in r) + any(x < 0 for x in r),
                 sum(max(x, 0) for x in r) + (not any(x > 0 for x in r)))
           for r in rows]
    return {p for p in itertools.product(*box) if any(p) and all(
        0 <= sum(a * x for a, x in zip(r, p)) < den for r in scaled)}


# ---------------------------------------------------------------- covers


def covering_subsets(n, edges):
    for size in range(n + 1):
        for sub in itertools.combinations(range(n), size):
            s = set(sub)
            if all(s & set(e) for e in edges):
                yield s


def brute_minimal_covers(n, edges):
    covers = []
    for s in covering_subsets(n, edges):
        if all(any(not (set(e) & (s - {v})) for e in edges) for v in s):
            covers.append(tuple(sorted(s)))
    return sorted(covers)


def brute_alpha0(n, edges):
    return min(len(s) for s in covering_subsets(n, edges))


def brute_beta1(edges):
    best = 0
    for size in range(1, len(edges) + 1):
        for sub in itertools.combinations(edges, size):
            flat = [v for e in sub for v in e]
            if len(flat) == len(set(flat)):
                best = max(best, size)
    return best


def brute_minor(c, zeros, ones):
    """c with the edges meeting zeros deleted and ones shrunk out of the
    rest, built by clutter_from_edges over the surviving vertices; None
    for the zero ideal (no edge left) or the unit ideal (an empty edge)."""
    kept = [set(e) - set(ones) for e in c.edges if not set(e) & set(zeros)]
    if not kept or not all(kept):
        return None
    survivors = [v for v in range(c.n) if v not in zeros and v not in ones]
    minimal = [e for i, e in enumerate(kept)
               if e not in kept[:i] and not any(f < e for f in kept)]
    return clutter_from_edges(len(survivors),
                              [[survivors.index(v) for v in e] for e in minimal],
                              [c.labels[v] for v in survivors])


def brute_antichains(n, max_edges):
    """Every family of 1..max_edges pairwise-incomparable non-empty
    subsets touching all n vertices."""
    pool = [frozenset(s) for r in range(1, n + 1)
            for s in itertools.combinations(range(n), r)]
    found = []
    for count in range(1, max_edges + 1):
        for fam in itertools.combinations(pool, count):
            if any(a < b or b < a for a, b in itertools.combinations(fam, 2)):
                continue
            if set().union(*fam) != set(range(n)):
                continue
            found.append(tuple(sorted(tuple(sorted(e)) for e in fam)))
    return sorted(found)


def combination_clutters(max_vertices, max_edges):
    """Every clutter on 1..max_vertices vertices with at most max_edges
    edges, by filtering all itertools.combinations of non-empty subsets:
    the order enumerate_clutters keeps, without its cap."""
    for n in range(1, max_vertices + 1):
        subsets = [tuple(e) for k in range(1, n + 1)
                   for e in itertools.combinations(range(n), k)]
        for count in range(1, min(max_edges, len(subsets)) + 1):
            for family in itertools.combinations(subsets, count):
                sets = [set(e) for e in family]
                if any(a <= b for a, b in itertools.permutations(sets, 2)):
                    continue
                if set().union(*sets) != set(range(n)):
                    continue
                yield clutter_from_edges(n, family)


def brute_canonical_form(c):
    """n and the least sorted tuple of edge bitmasks over all n! vertex
    relabellings: equal exactly for isomorphic clutters."""
    return c.n, min(tuple(sorted(sum(1 << p[v] for v in e) for e in c.edges))
                    for p in itertools.permutations(range(c.n)))


def relabelled(c, rng):
    """A copy of c with its vertices relabelled by a random permutation."""
    p = list(range(c.n))
    rng.shuffle(p)
    return clutter_from_edges(c.n, [[p[v] for v in e] for e in c.edges])


# ---------------------------------------------------------------- monoids


def monoid_member(a, b, cols):
    """Whether (a, b) = sum of b lifted columns plus non-negative slack:
    exists mu in N^q with sum(mu) == b and sum mu_j v_j <= a."""
    if b == 0:
        return all(x >= 0 for x in a)
    if any(x < 0 for x in a):
        return False

    def rec(j, left, room):
        if left == 0:
            return True
        if j == len(cols):
            return False
        v = cols[j]
        top = left
        for i, vi in enumerate(v):
            if vi:
                top = min(top, room[i] // vi)
        for k in range(top, -1, -1):
            nxt = [r - k * vi for r, vi in zip(room, v)]
            if rec(j + 1, left - k, nxt):
                return True
        return False

    return rec(0, b, list(a))


def pth_power_closure_member(a, i, cols, p_max):
    """Membership in the closure of the i-th power by the finite part of
    its power test: some p <= p_max with p*a in the p*i-fold sumset."""
    return any(
        monoid_member(tuple(p * x for x in a), p * i, cols)
        for p in range(1, p_max + 1)
    )


def decomposes(target, elements):
    """Whether target is an N-combination of the given integer vectors."""
    elems = [e for e in elements if any(e)]

    def rec(rest, start):
        if not any(rest):
            return True
        for k in range(start, len(elems)):
            e = elems[k]
            if all(r >= x for r, x in zip(rest, e)):
                if rec(tuple(r - x for r, x in zip(rest, e)), k):
                    return True
        return False

    return rec(tuple(target), 0)


# ---------------------------------------------------------------- searches


def recursive_minimal_solutions(rows, n, bound, stage, cap, out=None):
    """The minimal points of {a in {0..bound}^n : <alpha, a> >= r for every
    row (alpha, r)}, alpha >= 0, in lexicographic order, by a slack search:
    linalg._plane_points's depth-first tree over general rows, as a
    recursion with cap for SEARCH_CAP, one call per node.  a is minimal
    exactly when each a_k > 0 is critical: some row with alpha_k > 0 has
    slack below alpha_k.  The points go to out, when given, as they are
    found, so a caller that catches the SizeLimit reads the points found
    before the cap."""
    touch = [[(j, alpha[k]) for j, (alpha, _) in enumerate(rows) if alpha[k]]
             for k in range(n)]
    tight = [[(j, alpha[k], s) for j, (alpha, r) in enumerate(rows)
              if (s := bound * sum(alpha[k + 1:])) < r] for k in range(n)]
    slack = [-r for _, r in rows]
    a, out, nodes = [0] * n, [] if out is None else out, 0

    def critical(placed):
        return all(any(slack[j] < w for j, w in col) for col in placed)

    def visit(k, placed):
        nonlocal nodes
        nodes += 1
        if nodes > cap:
            raise SizeLimit(stage, nodes, cap)
        if all(s >= 0 for s in slack):  # every row met: a later a_k > 0 is not critical
            out.append(tuple(a))
            return
        v = 0
        for j, w, s in tight[k]:
            if -slack[j] - s > v * w:
                if not w:
                    return
                v = -((slack[j] + s) // w)
        if v > bound:
            return
        col = touch[k]
        a[k] = v
        for j, w in col:
            slack[j] += w * v
        if k == n - 1:
            if critical(placed):
                out.append(tuple(a))
        else:
            inner = placed + [col] if v else placed
            while critical(inner):
                visit(k + 1, inner)
                if v == bound:
                    break
                v = a[k] = v + 1
                inner = placed + [col]
                for j, w in col:
                    slack[j] += w
        for j, w in col:
            slack[j] -= w * v
        a[k] = 0

    visit(0, [])
    return tuple(out)


def slack_closure(m, i, cap=2_000_000):
    """The generators of the integral closure of I^i by the slack search
    over the Rees cone's vertex normals: a vertex normal (alpha', -b) asks
    <alpha', a> >= i b, and minimal generators are bounded by i times the
    largest entry."""
    rows = [(f[:-1], -f[-1] * i) for f in support_hyperplanes(m).vertex_normals]
    return recursive_minimal_solutions(rows, m.n, i * m.max_entry(),
                                       "closure power enumeration", cap)


def search_outcome(search, *args):
    """What search(*args) returns, or its SizeLimit message."""
    try:
        return search(*args)
    except SizeLimit as e:
        return str(e)


def recursive_disjoint_edges(masks, target, cap):
    """clutters._disjoint_edges as a recursion, with cap for MATCHING_CAP."""
    best = nodes = 0

    def rec(i, used, count):
        nonlocal best, nodes
        nodes += 1
        if nodes > cap:
            raise SizeLimit("matching search", nodes, cap)
        best = max(best, count)
        if best >= target or i == len(masks) or count + len(masks) - i <= best:
            return
        if not (masks[i] & used):
            rec(i + 1, used | masks[i], count + 1)
        rec(i + 1, used, count)

    rec(0, 0, 0)
    return best


# ---------------------------------------------------------------- ideals


def full_power_ntf_check(c, i_max):
    """decisions.ntf_check by building I^i and I^(i) in full for each
    2 <= i <= i_max: the least generator of I^(i) outside I^i is the
    witness."""
    for i in range(2, i_max + 1):
        ordinary = ordinary_power(c.matrix, i)
        witness = next((g for g in symbolic_power(c, i).gens
                        if not membership(g, ordinary)), None)
        if witness is not None:
            return NtfResult(False, i, witness)
    return NtfResult(True)


def minimalize(vectors):
    """Minimal elements by pairwise dominance over every vector: the
    quadratic reference for the library's degree-ordered minimalize."""
    vs = sorted(set(map(tuple, vectors)))
    out = []
    for v in vs:
        if not any(w != v and all(a <= b for a, b in zip(w, v)) for w in vs):
            out.append(v)
    return tuple(out)


# ---------------------------------------------------------------- smith


def snf_by_minors(rows):
    """Invariant factors via determinantal divisors: the k-th divisor is
    the gcd of all k x k minors, and factors are successive quotients."""
    m, w = len(rows), len(rows[0])
    prev = 1
    out = []
    for k in range(1, min(m, w) + 1):
        g = 0
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(w), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                d = frac_det(sub)
                g = gcd(g, abs(int(d)))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


# ---------------------------------------------------------------- duality gap


def tdi_rational_max(cols, alpha):
    """Exact optimum of max{<1,y> : y >= 0, sum_j y_j v_j <= alpha} by
    enumerating basic solutions of the (bounded) feasible region."""
    q = len(cols)
    n = len(alpha)
    # constraint rows in y-space: q non-negativity rows, n packing rows
    rows = [[Fraction(1) if j == k else Fraction(0) for j in range(q)]
            for k in range(q)]
    rhs = [Fraction(0)] * q
    for i in range(n):
        rows.append([Fraction(cols[j][i]) for j in range(q)])
        rhs.append(Fraction(alpha[i]))

    def feasible(y):
        if any(v < 0 for v in y):
            return False
        for i in range(n):
            if sum(y[j] * cols[j][i] for j in range(q)) > alpha[i]:
                return False
        return True

    best = Fraction(0)
    for tight in itertools.combinations(range(q + n), q):
        sys_rows = [rows[t] for t in tight]
        sys_rhs = [rhs[t] for t in tight]
        y = frac_solve(sys_rows, sys_rhs)
        if y is not None and feasible(y):
            best = max(best, sum(y))
    return best


def tuple_keyed_tdi_scan(cols, vertex_normals, vertices, bound):
    """The bounded TDI scan with its optimum table keyed by demand tuples,
    as the package ran it before indexing the box: (checked, None) when
    {0..bound}^n has no gap, else (checked, (alpha, rational value,
    integral value)) at the first gap in lexicographic order.  A gap is
    <(alpha, top), f> > 0 on every vertex normal f = (alpha', -b)."""
    best = {}
    demands = itertools.product(range(bound + 1), repeat=len(cols[0]))
    for checked, alpha in enumerate(demands, start=1):
        top = 0
        for v in cols:
            if all(x <= y for x, y in zip(v, alpha)):
                top = max(top, best[tuple(x - y for x, y in zip(alpha, v))] + 1)
        best[alpha] = top
        if all(sum(x * y for x, y in zip(alpha + (top,), f)) > 0 for f in vertex_normals):
            rational = min(sum(x * y for x, y in zip(alpha, v)) for v in vertices)
            return checked, (alpha, rational, top)
    return checked, None


def tdi_integral_max(cols, alpha):
    top = max(alpha) if alpha else 0
    best = 0
    for y in itertools.product(range(top + 1), repeat=len(cols)):
        ok = all(
            sum(yj * cols[j][i] for j, yj in enumerate(y)) <= alpha[i]
            for i in range(len(alpha))
        )
        if ok:
            best = max(best, sum(y))
    return best


# ---------------------------------------------------------------- instances


def random_clutters(count=100, seed=20260815, max_n=6, max_q=8):
    """Deterministic pseudo-random antichains for the cross-validation
    suites; vertex set compacted to the vertices actually used."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, max_n)
        q = rng.randint(1, max_q)
        pool = [frozenset(s) for r in range(1, n + 1)
                for s in itertools.combinations(range(n), r)]
        rng.shuffle(pool)
        chosen = []
        for cand in pool:
            if len(chosen) == q:
                break
            if all(not (cand <= e or e <= cand) for e in chosen):
                chosen.append(cand)
        used = sorted({v for e in chosen for v in e})
        remap = {v: i for i, v in enumerate(used)}
        out.append(clutter_from_edges(
            len(used), [sorted(remap[v] for v in e) for e in chosen]))
    return out


def random_exponent_matrices(count=150, seed=20261018, max_n=4, max_q=4,
                             max_entry=3):
    """Deterministic pseudo-random general (not 0/1) exponent matrices:
    distinct non-zero columns, none dominating another, some entry > 1."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, max_n)
        cols = {tuple(rng.randint(0, max_entry) for _ in range(n))
                for _ in range(rng.randint(1, max_q))}
        if all(x <= 1 for c in cols for x in c) or not all(map(any, cols)):
            continue
        if any(all(x <= y for x, y in zip(a, b))
               for a, b in itertools.permutations(cols, 2)):
            continue
        out.append(ExponentMatrix(tuple(sorted(cols))))
    return out
