"""Hilbert bases of Rees cones, semigroup membership, normality, torsion.

The basis is computed by a placing triangulation of the generator list,
integer lattice-point enumeration inside the fundamental parallelepiped
of each simplex of volume > 1, and an irreducibility reduction by
heights over the coordinates and the facets; with no such simplex the
basis is the generator set, unreduced.  The
triangulation, each simplex's volume and the facets come from one double
description pass: each insertion step names the facets the new
generator sees, the generators on each and the generator's pairing
with each facet normal, and basis_and_facets returns the facets with
the basis.  R[It] is normal exactly when each lifted basis element is
a lifted column; semigroup membership stays as the independent check.
"""

from __future__ import annotations

from operator import ge

from .cones import _dd_steps, _insertion_order, rees_cone
from .errors import InconsistencyError, Record, SizeLimit
from .linalg import _exact_div, _scaled_solve, dot, smith_invariant_factors

DET_CAP = 10 ** 6
SIMPLEX_CAP = 10 ** 6


def _placing_triangulation(gens, dim):
    """Simplicial subcones covering cone(gens), inserting in list order,
    as {bitmask over positions in gens: volume}, and the cone's facet
    normals, read off one double description pass.

    A generator raising the linear span joins every current simplex.
    Otherwise the facets it cuts off are the ones it sees, each zero set
    holding the generators on that facet, and it joins every (dim-1)-face
    F of a simplex F + w lying on one of them.  Interior generators cut
    nothing off.  det(F + x) is linear in x and vanishes on span F, the
    facet's hyperplane, so a facet ray v with <v, g> = p gives the new
    simplex the volume vol(F + w) * -p / <v, w>.  Volumes are |det|
    relative to the first full simplex.
    """
    volumes = {0: 1}
    for idx, (raised, cut, rays, lin) in enumerate(_dd_steps(gens, dim)):
        bit = 1 << idx
        if raised:
            volumes = {s | bit: vol for s, vol in volumes.items()}
        elif lin:
            raise InconsistencyError("placing step inside a proper subspace")
        else:
            grown = {}
            for (v, z), p in cut:
                for s, vol in volumes.items():
                    if (s & z).bit_count() == dim - 1:
                        w = gens[(s & ~z).bit_length() - 1]
                        grown[(s & z) | bit] = _exact_div(vol * -p, dot(v, w))
            volumes.update(grown)
            if len(volumes) > SIMPLEX_CAP:
                raise SizeLimit("placing triangulation", len(volumes), SIMPLEX_CAP)
    return volumes, tuple(sorted(v for v, _ in rays))


def _parallelepiped_points(simplex, volume):
    """Non-zero lattice points of {sum t_i w_i : 0 <= t_i < 1}, for a
    simplex of the given volume |det|.

    One fraction-free elimination of [W | I] and an integer back
    substitution give d W^-1, d = |det W|.  The points are W u / d for
    the classes u / d of Z^dim / W Z^dim, closed over integer tuples mod
    d from the columns of d W^-1."""
    if volume > DET_CAP:
        raise SizeLimit("parallelepiped enumeration", volume, DET_CAP)
    dim = len(simplex)
    a = [[w[i] for w in simplex] + [int(i == j) for j in range(dim)]
         for i in range(dim)]
    solved = _scaled_solve(a)
    if solved is None:
        raise InconsistencyError("singular simplex in the triangulation")
    det, inv = solved
    d = abs(det)
    # the columns of det W^-1 and of d W^-1 = +-det W^-1 generate one group
    cols = [tuple(x % d for x in col) for col in zip(*inv)]
    zero = (0,) * dim
    group = {zero}
    frontier = [zero]
    while frontier:
        t = frontier.pop()
        for col in cols:
            t2 = tuple((x + y) % d for x, y in zip(t, col))
            if t2 not in group:
                group.add(t2)
                frontier.append(t2)
    if len(group) != volume:
        raise InconsistencyError(
            f"parallelepiped group has order {len(group)}, expected {volume}")
    group.discard(zero)
    points = []
    for u in group:
        p = []
        for i in range(dim):
            num = sum(uj * w[i] for uj, w in zip(u, simplex))
            x, r = divmod(num, d)
            if r:
                raise InconsistencyError(f"parallelepiped point coordinate {num}/{d}")
            p.append(x)
        points.append(tuple(p))
    return points


def basis_and_facets(rc):
    """Minimal generating set of the lattice points of the Rees cone rc,
    and rc's facet normals, both from one placing pass.

    The reduction runs only when some simplex has volume > 1.  Otherwise
    every lattice point is an N-combination of one simplex's generators,
    and none of those splits: e_i has coordinate sum 1, and (v_j, 1) =
    (a, 0) + (v_j - a, 1), a != 0, needs some v_k <= v_j - a < v_j, which
    the antichain of columns rules out."""
    dim = rc.cone.dim
    gens = _insertion_order(rc.cone.generators)
    # the first full simplex, the n unit vectors and one lifted generator
    # (v, 1), is unimodular, so the relative volumes are the |det|s; a
    # unimodular simplex has no parallelepiped points
    volumes, facets = _placing_triangulation(gens, dim)
    if max(volumes.values()) == 1:
        return rc.cone.generators, facets
    candidates = set(gens)
    for s, volume in volumes.items():
        if volume > 1:
            members = [g for i, g in enumerate(gens) if s >> i & 1]
            candidates.update(_parallelepiped_points(members, volume))

    # c - b lies in the cone exactly when c's heights over the coordinates
    # and the facets dominate b's; a non-zero c - b in the cone has a
    # smaller degree than c, so each candidate needs testing only against
    # the basis elements kept so far
    basis, heights = [], []
    for c in sorted(candidates, key=lambda v: (sum(v), v)):
        hc = c + tuple(dot(c, f) for f in facets)
        if not any(all(map(ge, hc, hb)) for hb in heights):
            basis.append(c)
            heights.append(hc)
    return tuple(sorted(basis)), facets


def hilbert_basis(m):
    """Minimal generating set of the lattice points of the Rees cone."""
    return basis_and_facets(rees_cone(m))[0]


def semigroup_member(m, z) -> bool:
    """Whether z = (a, b) is a natural-number combination of the unit
    vectors and the lifted generators: some mu in N^q with sum mu = b
    and sum mu_j v_j <= a componentwise."""
    a, b = z[:-1], z[-1]
    if b < 0 or any(x < 0 for x in a):
        return False
    cols = m.columns
    # pending nodes (next column, generators left, room); larger multiples first
    stack = [(0, b, tuple(a))]
    while stack:
        j, left, room = stack.pop()
        if not left:
            return True
        if j < len(cols):
            v = cols[j]
            top = left
            for vi, ri in zip(v, room):
                if vi:
                    top = min(top, ri // vi)
            stack.extend((j + 1, left - k, tuple(r - k * vi for r, vi in zip(room, v)))
                         for k in range(top + 1))
    return False


def is_normal(m, basis=None):
    """(True, None) when the Hilbert basis is the generator set, else
    (False, least basis element that is not a generator): an irreducible
    sum of generators is a generator, so semigroup_member, the oracle,
    fails exactly there.  basis, when given, is m's sorted Hilbert basis;
    its elements of lift 0 are the unit vectors, so no Rees cone is built."""
    lifted = {c + (1,) for c in m.columns}
    return next(((False, z) for z in basis or hilbert_basis(m) if z[-1] and z not in lifted),
                (True, None))


class SmithInvariants(Record):
    factors: tuple
    rank: int
    torsion_free: bool


def smith_invariants(m) -> SmithInvariants:
    """Invariant factors of the lifted generator matrix [(v_j, 1)]."""
    rows = list(zip(*m.columns))
    rows.append((1,) * m.q)
    factors = smith_invariant_factors(rows)
    return SmithInvariants(factors, len(factors), all(f == 1 for f in factors))
