"""Hilbert bases of Rees cones, semigroup membership, normality, torsion.

The basis is computed by a placing triangulation of the generator list,
lattice-point enumeration inside each fundamental parallelepiped, and a
global irreducibility reduction against the facet description.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cones import RationalCone, _insertion_order, facet_normals, rees_cone
from .errors import InconsistencyError, SizeLimit
from .linalg import det, dot, rank, smith_invariant_factors, solve_square

DET_CAP = 10 ** 6


def _placing_triangulation(gens, dim):
    """Simplicial subcones covering cone(gens), inserting in list order.

    A generator raising the linear span joins every current simplex; a
    generator outside the current cone is joined to the boundary faces
    it sees.  Interior generators add nothing.
    """
    simplices = []
    processed = []
    rk = 0
    for g in gens:
        if not processed:
            processed.append(g)
            simplices = [(g,)]
            rk = 1
            continue
        new_rk = rank(processed + [g])
        if new_rk > rk:
            simplices = [s + (g,) for s in simplices]
            processed.append(g)
            rk = new_rk
            continue
        if rk != dim:
            raise ValueError("placing step inside a proper subspace")
        hull = facet_normals(RationalCone(dim, tuple(processed)))
        visible = [f for f in hull if dot(g, f) < 0]
        if visible:
            faces = set()
            for f in visible:
                for s in simplices:
                    tight = tuple(t for t in s if dot(t, f) == 0)
                    if len(tight) == dim - 1:
                        faces.add(tight)
            simplices.extend(face + (g,) for face in faces)
        processed.append(g)
    return simplices


def _parallelepiped_points(simplex, dim, det_cap):
    """Non-zero lattice points of {sum t_i w_i : 0 <= t_i < 1}."""
    rows = [tuple(w[i] for w in simplex) for i in range(dim)]
    volume = abs(det(rows))
    if volume > det_cap:
        raise SizeLimit("parallelepiped enumeration", volume, det_cap)
    if volume == 1:
        return []
    units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    inverse_cols = [solve_square(rows, u) for u in units]
    zero = (Fraction(0),) * dim
    group = {zero}
    frontier = [zero]
    while frontier:
        t = frontier.pop()
        for col in inverse_cols:
            t2 = tuple((a + b) % 1 for a, b in zip(t, col))
            if t2 not in group:
                group.add(t2)
                frontier.append(t2)
    if len(group) != volume:
        raise InconsistencyError(
            f"parallelepiped group has order {len(group)}, expected {volume}")
    points = []
    for t in group:
        if t == zero:
            continue
        p = []
        for i in range(dim):
            x = sum(tj * w[i] for tj, w in zip(t, simplex))
            if x.denominator != 1:
                raise InconsistencyError(f"parallelepiped point coordinate {x}")
            p.append(int(x))
        points.append(tuple(p))
    return points


def hilbert_basis(m, det_cap: int = DET_CAP):
    """Minimal generating set of the lattice points of the Rees cone."""
    rc = rees_cone(m)
    dim = rc.cone.dim
    gens = _insertion_order(rc.cone.generators)
    facets = facet_normals(rc.cone)
    candidates = set(gens)
    for s in _placing_triangulation(gens, dim):
        if len(s) == dim:
            candidates.update(_parallelepiped_points(s, dim, det_cap))

    def member(p):
        return all(x >= 0 for x in p) and all(dot(p, f) >= 0 for f in facets)

    cands = sorted(candidates, key=lambda v: (sum(v), v))
    basis = []
    for c in cands:
        reducible = False
        for a in cands:
            if a == c:
                continue
            diff = tuple(x - y for x, y in zip(c, a))
            if any(diff) and member(diff):
                reducible = True
                break
        if not reducible:
            basis.append(c)
    return tuple(sorted(basis))


def semigroup_member(m, z) -> bool:
    """Whether z = (a, b) is a natural-number combination of the unit
    vectors and the lifted generators: some mu in N^q with sum mu = b
    and sum mu_j v_j <= a componentwise."""
    a, b = z[:-1], z[-1]
    if b < 0 or any(x < 0 for x in a):
        return False
    cols = m.columns

    def rec(j, left, room):
        if left == 0:
            return True
        if j == len(cols):
            return False
        v = cols[j]
        top = left
        for vi, ri in zip(v, room):
            if vi:
                top = min(top, ri // vi)
        for k in range(top, -1, -1):
            nxt = tuple(r - k * vi for r, vi in zip(room, v)) if k else room
            if rec(j + 1, left - k, nxt):
                return True
        return False

    return rec(0, b, tuple(a))


def is_normal(m, basis=None):
    """(True, None) when every Hilbert basis element is reachable by the
    generators, else (False, lexicographically least failing element).
    basis, when given, is m's sorted Hilbert basis, already computed."""
    for z in basis or hilbert_basis(m):
        if not semigroup_member(m, z):
            return False, z
    return True, None


@dataclass(frozen=True)
class SmithInvariants:
    factors: tuple
    rank: int
    torsion_free: bool


def smith_invariants(m) -> SmithInvariants:
    """Invariant factors of the lifted generator matrix [(v_j, 1)]."""
    rows = [m.row(i) for i in range(m.n)]
    rows.append((1,) * m.q)
    factors = smith_invariant_factors(rows)
    return SmithInvariants(factors, len(factors), all(f == 1 for f in factors))
