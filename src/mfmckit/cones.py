"""Rational polyhedral cones: dualization, Rees cones, covering polyhedra.

The double description pass keeps an explicit lineality basis, so the
dual of a lower-dimensional cone is representable (as +/- ray pairs).
Rays carry bitmask zero-sets over the processed constraints; adjacency
uses the standard combinatorial test, after a count of the shared zeros
against the rank.  The pass runs as a step
generator, so the placing triangulation reads each insertion step off
the same pass that yields the facets.  It starts from the orthant: a
leading run of distinct unit-vector constraints leaves a state known in
advance, which is built directly rather than by dot products, and the
yielded lists of those steps are the state after the whole run.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, gcd, lcm
from operator import index, le

from .errors import ClassificationError, Record, SizeLimit, ZeroCone
from .linalg import _scaled_solve, dot, primitive

QA_ENUM_CAP = 1_000_000
RAY_CAP = 100_000
_ZERO = Fraction(0)


class RationalCone(Record):
    """Finitely generated cone in Z^dim; facets attached once computed."""

    dim: int
    generators: tuple
    facets: tuple = None

    def __post_init__(self):
        gens = []
        for g in self.generators:
            g = tuple(map(index, g))
            if len(g) != self.dim:
                raise ValueError(f"generator {g} has wrong dimension")
            if any(g):
                gens.append(primitive(g))
        object.__setattr__(self, "generators", tuple(sorted(set(gens))))
        if self.facets is not None:
            object.__setattr__(
                self, "facets", tuple(sorted(set(map(tuple, self.facets))))
            )


def _insertion_order(vectors):
    return sorted(vectors, key=lambda v: (sum(v), v))


def _dd_steps(constraints, dim):
    """Insert the constraints one at a time into the double description
    of {y : <y, c> >= 0}.  After each one, yield whether it raised the
    span of those so far, the ([vector, zero-set], <vector, c>) pairs of
    the rays it cut off, and the current [vector, zero-set] rays and
    lineality basis (live lists).  RAY_CAP bounds the rays, checked as
    each new ray is made and after each step.

    The pass starts from the orthant.  Each of a leading run of k
    distinct unit vectors e_a raises the span, and together they leave
    the rays e_a in insertion order, each zero on the other k
    constraints, and the other unit vectors, in index order, as the
    lineality basis.  Those lists are built directly, without dot
    products, and yielded for each of the k steps, so during the prefix
    the yielded lists are already the post-prefix ones."""
    units = [(0,) * i + (1,) + (0,) * (dim - 1 - i) for i in range(dim)]
    axis = {u: i for i, u in enumerate(units)}
    prefix = {}  # axis -> position of its unit constraint
    for c in constraints:
        a = axis.get(c)
        if a is None or a in prefix or len(prefix) == RAY_CAP:
            break
        prefix[a] = len(prefix)
    k = len(prefix)
    rays = [[units[a], ((1 << k) - 1) ^ (1 << i)] for a, i in prefix.items()]
    lin = [u for a, u in enumerate(units) if a not in prefix]
    for _ in range(k):
        yield True, (), rays, lin
    for idx, c in enumerate(constraints[k:], k):
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
                    # adjacent rays span a 2-face, where rank - 2 independent
                    # constraints are tight; rank is that of the constraints so far
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
                    if len(survivors) > RAY_CAP:
                        raise SizeLimit("double description", len(survivors), RAY_CAP)
            rays, raised = survivors, False
        if len(rays) > RAY_CAP:
            raise SizeLimit("double description", len(rays), RAY_CAP)
        yield raised, neg, rays, lin


def _dual_rays(constraints, dim):
    """Extreme rays and lineality basis of {y : <y, c> >= 0 for all c},
    for a non-empty constraint list."""
    for _, _, rays, lin in _dd_steps(constraints, dim):
        pass
    return [v for v, _ in rays], list(lin)


def dualize(cone: RationalCone) -> RationalCone:
    """Dual cone {y : <y, g> >= 0 for all generators g}.

    For a full-dimensional cone the dual is pointed and its generators
    are exactly the primitive facet normals of the input.  Lineality of
    the dual (input not full-dimensional) is returned as +/- ray pairs.
    """
    if not cone.generators:
        raise ZeroCone("cannot dualize a cone without non-zero generators")
    rays, lin = _dual_rays(_insertion_order(cone.generators), cone.dim)
    gens = list(rays)
    for l in lin:
        gens.append(l)
        gens.append(tuple(-x for x in l))
    return RationalCone(cone.dim, tuple(gens))


def facet_normals(cone: RationalCone):
    """Irreducible facet normals of a full-dimensional cone."""
    if not cone.generators:
        raise ZeroCone("cannot compute facets of a cone without generators")
    rays, lin = _dual_rays(_insertion_order(cone.generators), cone.dim)
    if lin:
        raise ClassificationError(
            "cone is not full-dimensional; facet normals are undetermined"
        )
    return tuple(sorted(rays))


def attach_facets(cone: RationalCone) -> RationalCone:
    return RationalCone(cone.dim, cone.generators, facet_normals(cone))


def cone_member(point, cone: RationalCone) -> bool:
    """Exact membership test against computed facets."""
    if cone.facets is None:
        raise ValueError("cone facets have not been computed")
    return all(dot(point, f) >= 0 for f in cone.facets)


class ReesCone(Record):
    """Cone over the unit vectors and the lifted generators (v_j, 1)."""

    base: "ExponentMatrix"
    cone: RationalCone
    coordinate_facet_indices: frozenset


def rees_cone(m) -> ReesCone:
    """The Rees cone of an ExponentMatrix.  Its generators, the unit
    vectors and the distinct columns lifted to (v, 1), are primitive and
    distinct already, so they are only sorted."""
    n = m.n
    gens = [tuple(int(i == j) for j in range(n + 1)) for i in range(n)]
    gens += [c + (1,) for c in m.columns]
    axes = {i for i in range(n) if any(c[i] == 0 for c in m.columns)}
    axes.add(n)
    cone = RationalCone._trusted(n + 1, tuple(sorted(gens)), None)
    return ReesCone(m, cone, frozenset(axes))


def _scaled_key(points):
    """Order key for the points x/d, given as integer tuples (d, *x) with
    d > 0: x * (L // d), L the lcm of the denominators, in integers."""
    scale = lcm(*(d for d, *_ in points))
    return lambda p: tuple([x * (scale // p[0]) for x in p[1:]])


def _fractions(d, *x) -> tuple:
    return tuple(Fraction(v, d) if v else _ZERO for v in x)  # zeros share one Fraction


def _sorted_fractions(points) -> tuple:
    """The points (d, *x) of _scaled_key as sorted tuples of Fractions."""
    points = list(points)
    return tuple(_fractions(*p) for p in sorted(points, key=_scaled_key(points)))


class FacetClassification(Record):
    """Facets of a Rees cone split into coordinate and vertex families."""

    dim: int
    coordinate_indices: tuple
    vertex_normals: tuple

    def unit_rows(self):
        return tuple(
            tuple(int(j == i) for j in range(self.dim))
            for i in self.coordinate_indices
        )

    def all_rows(self):
        return tuple(sorted(self.unit_rows() + self.vertex_normals))

    def qa_vertices(self):
        """Recover the covering-polyhedron vertices alpha'/b, sorted."""
        return _sorted_fractions((-f[-1], *f[:-1]) for f in self.vertex_normals)

    def least_fractional_vertex(self):
        """The first fractional entry of qa_vertices(), or None: a primitive
        normal (alpha', -b) gives a fractional alpha'/b exactly when b > 1."""
        points = [(-f[-1], *f[:-1]) for f in self.vertex_normals if f[-1] < -1]
        return _fractions(*min(points, key=_scaled_key(points))) if points else None


def classify_facets(rc: ReesCone, normals) -> FacetClassification:
    """The facet normals of the Rees cone rc, classified.

    Coordinate facets are unit vectors whose index set must match the
    axes where some generator vanishes (plus the lifted axis); every
    other facet must have negative last coordinate and non-negative
    leading block.
    """
    dim = rc.cone.dim
    units, vertex = set(), []
    for f in normals:
        nz = [i for i, x in enumerate(f) if x]
        if len(nz) == 1 and f[nz[0]] == 1:
            units.add(nz[0])
        elif f[-1] < 0:
            if any(x < 0 for x in f[:-1]):
                raise ClassificationError(f"vertex facet {f} has a negative entry")
            vertex.append(f)
        else:
            raise ClassificationError(f"facet {f} fits neither family")
    if units != set(rc.coordinate_facet_indices):
        raise ClassificationError(
            f"coordinate facets {sorted(units)} do not match axes "
            f"{sorted(rc.coordinate_facet_indices)}"
        )
    return FacetClassification(dim, tuple(sorted(units)), tuple(sorted(vertex)))


def support_hyperplanes(m) -> FacetClassification:
    """Facet normals of the Rees cone of m, classified."""
    rc = rees_cone(m)
    return classify_facets(rc, facet_normals(rc.cone))


class QAPolyhedron(Record):
    """Vertex set of {x >= 0 : x A >= 1}."""

    matrix: "ExponentMatrix"
    vertices: tuple


def qa_vertices_direct(m) -> QAPolyhedron:
    """Vertices by basic-feasible-solution enumeration, each sought at its
    own support.

    A vertex x with support T makes the unit rows off T tight, and k = |T|
    independent edge rows S, so A[S, T] x_T = 1.  As x_T > 0, a restricted
    row c|_T lying above another is strictly larger there, so never tight.
    So each support keeps only its distinct minimal restricted rows (for a
    clutter, the edges of the minor contracting every vertex off T); each k
    of them is solved as a k x k integer system, d x_T by a fraction-free
    elimination, and a solution is a vertex when x_T > 0 and it meets every
    minimal row, hence every row.  A support missing some column's support
    is skipped unsolved: that column pairs to 0 < 1 with every point zero
    off T.  Independent of the Rees-cone route by construction.
    """
    n, q = m.n, m.q
    if (total := comb(n + q, n)) > QA_ENUM_CAP:
        raise SizeLimit("vertex enumeration", total, QA_ENUM_CAP)
    cols = m.columns
    found = set()
    for k in range(min(n, q) + 1):
        for t in itertools.combinations(range(n), k):
            sub = dict.fromkeys(tuple(c[i] for i in t) for c in cols)
            if not all(map(any, sub)):
                continue
            rows = [r for r in sub if not any(o != r and all(map(le, o, r)) for o in sub)]
            for s in itertools.combinations(rows, k):
                solved = _scaled_solve([[*r, 1] for r in s])
                if solved is None:
                    continue
                d, x = solved
                x = [row[0] for row in x]
                if d < 0:
                    d, x = -d, [-v for v in x]
                if min(x, default=1) > 0 and all(dot(c, x) >= d for c in rows):
                    # the point as its primitive (d, d x), one key per vertex
                    g = gcd(d, *x)
                    point = [0] * n
                    for i, v in zip(t, x):
                        point[i] = v // g
                    found.add((d // g, *point))
    return QAPolyhedron(m, _sorted_fractions(found))


def qa_vertices_via_rees(m) -> QAPolyhedron:
    """Vertices read off the vertex facets of the Rees cone."""
    return QAPolyhedron(m, support_hyperplanes(m).qa_vertices())


def is_integral_qa(m, vertices=None):
    """(True, None) when all covering-polyhedron vertices are integral,
    else (False, lexicographically least fractional vertex), read off the
    vertex normals, or found in m's sorted vertex set vertices if given."""
    v = (support_hyperplanes(m).least_fractional_vertex() if vertices is None else
         next((v for v in vertices if any(x.denominator != 1 for x in v)), None))
    return v is None, v
