"""Ordinary, symbolic and integral-closure powers of monomial ideals.

Monomials are exponent tuples; an ideal is its minimal generator set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .clutters import Clutter, minimal_vertex_covers
from .cones import support_hyperplanes
from .errors import NotSquareFree, SizeLimit
from .linalg import dot

ORDINARY_CAP = 500_000
BOX_CAP = 2_000_000


def minimalize(vectors):
    """Drop duplicates and every vector dominating another one.

    A vector strictly below v has smaller total degree, so visiting by
    degree compares each vector only against the minimal ones kept."""
    kept = []
    for v in sorted(set(map(tuple, vectors)), key=sum):
        if not any(all(a <= b for a, b in zip(w, v)) for w in kept):
            kept.append(v)
    return tuple(sorted(kept))


def _minimal_points(bound: int, n: int, member) -> tuple:
    """Minimal points of an up-closed set of N^n inside {0..bound}^n.

    Such a point a is minimal exactly when no a - e_k is in the set.
    itertools.product runs in lexicographic order, so every a - e_k is
    scanned before a; the flags record the member points seen so far,
    indexed by scan position (a - e_k sits strides[k] places back).
    The result is sorted."""
    side = bound + 1
    strides = [side ** (n - 1 - k) for k in range(n)]
    inside = bytearray(side ** n)
    out = []
    for pos, a in enumerate(itertools.product(range(side), repeat=n)):
        if member(a):
            inside[pos] = 1
            if not any(x and inside[pos - s] for x, s in zip(a, strides)):
                out.append(a)
    return tuple(out)


@dataclass(frozen=True)
class MonomialIdealGens:
    """Canonical minimal generating set of a monomial ideal."""

    gens: tuple

    def __post_init__(self):
        object.__setattr__(self, "gens", minimalize(self.gens))

    def __len__(self):
        return len(self.gens)


def membership(a, ideal: MonomialIdealGens) -> bool:
    """Whether x^a lies in the ideal: some generator divides it."""
    return any(all(g <= x for g, x in zip(gen, a)) for gen in ideal.gens)


def ideal_equal(left: MonomialIdealGens, right: MonomialIdealGens) -> bool:
    return left.gens == right.gens


def ordinary_power(m, i: int, cap: int = ORDINARY_CAP) -> MonomialIdealGens:
    """I^i: minimalized i-fold sums of the generator columns."""
    if i < 1:
        raise ValueError("power must be >= 1")
    total = comb(m.q + i - 1, i)
    if total > cap:
        raise SizeLimit("ordinary power enumeration", total, cap)
    sums = []
    for combo in itertools.combinations_with_replacement(m.columns, i):
        sums.append(tuple(map(sum, zip(*combo))))
    return MonomialIdealGens(tuple(sums))


def _as_clutter(source) -> Clutter:
    if isinstance(source, Clutter):
        return source
    if not source.is_zero_one():
        raise NotSquareFree("symbolic powers need a square-free (0/1) ideal")
    return Clutter(source)


def symbolic_power(source, i: int, covers=None, cap: int = BOX_CAP) -> MonomialIdealGens:
    """I^(i): minimal exponent vectors whose weight on every minimal
    vertex cover (covers, when given, already computed) is at least i.
    Entries of minimal generators never exceed i, so the (i+1)^n grid is
    exhaustive, and the set is closed upwards, so its minimal points are
    found locally."""
    if i < 1:
        raise ValueError("power must be >= 1")
    c = _as_clutter(source)
    covers = minimal_vertex_covers(c) if covers is None else covers
    n = c.n
    total = (i + 1) ** n
    if total > cap:
        raise SizeLimit("symbolic power enumeration", total, cap)
    return MonomialIdealGens(_minimal_points(
        i, n, lambda a: all(sum(a[v] for v in cover) >= i for cover in covers)))


def closure_power(m, i: int, facets=None, cap: int = BOX_CAP) -> MonomialIdealGens:
    """Integral closure of I^i: lattice points a with (a, i) in the Rees
    cone, minimalized.  Minimal generators are bounded by i * max entry,
    so the box scan is exhaustive.  The vertex normals are non-negative
    on the x-part (every e_k lies in the cone), so the set is closed
    upwards and its minimal points are found locally."""
    if i < 1:
        raise ValueError("power must be >= 1")
    if facets is None:
        facets = support_hyperplanes(m)
    bound = i * m.max_entry()
    total = (bound + 1) ** m.n
    if total > cap:
        raise SizeLimit("closure power enumeration", total, cap)
    normals = [(f[:-1], -f[-1] * i) for f in facets.vertex_normals]
    return MonomialIdealGens(_minimal_points(
        bound, m.n, lambda a: all(dot(alpha, a) >= rhs for alpha, rhs in normals)))
