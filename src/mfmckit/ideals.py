"""Ordinary, symbolic and integral-closure powers of monomial ideals.

Monomials are exponent tuples; an ideal is its minimal generator set.
Ordinary powers are minimalized column sums.  The symbolic powers come
from the 0/1 minimal-point search linalg._plane_points, with the minimal
covers as rows, and I^(i) also as a stream of its sorted generators,
searched as it is read; the closure powers are the minimal sums of
Hilbert basis elements of the Rees cone whose lifts add up to i.
"""

from __future__ import annotations

import itertools
from math import comb
from operator import add, le

from .clutters import Clutter, minimal_vertex_covers
from .errors import NotSquareFree, Record, SizeLimit
from .hilbert import hilbert_basis, is_normal
from .linalg import _plane_points

ORDINARY_CAP = 500_000


def minimalize(vectors):
    """Drop duplicates and every vector dominating another one.

    A vector strictly below v has smaller total degree, so visiting by
    degree compares each vector only against the minimal ones kept."""
    kept = []
    for v in sorted(set(map(tuple, vectors)), key=sum):
        if not any(all(map(le, w, v)) for w in kept):
            kept.append(v)
    return tuple(sorted(kept))


class MonomialIdealGens(Record):
    """Canonical minimal generating set of a monomial ideal."""

    gens: tuple

    def __post_init__(self):
        object.__setattr__(self, "gens", minimalize(self.gens))

    def __len__(self):
        return len(self.gens)


def membership(a, ideal: MonomialIdealGens) -> bool:
    """Whether x^a lies in the ideal: some generator divides it."""
    return any(all(map(le, gen, a)) for gen in ideal.gens)


def ideal_equal(left: MonomialIdealGens, right: MonomialIdealGens) -> bool:
    return left.gens == right.gens


def _column_sums(m, i: int) -> set:
    """The distinct sums of the C(q+i-1, i) i-fold choices of generator columns."""
    if (total := comb(m.q + i - 1, i)) > ORDINARY_CAP:
        raise SizeLimit("ordinary power enumeration", total, ORDINARY_CAP)
    return {tuple(map(sum, zip(*combo)))
            for combo in itertools.combinations_with_replacement(m.columns, i)}


def ordinary_power(m, i: int) -> MonomialIdealGens:
    """I^i: minimalized i-fold sums of the generator columns."""
    if i < 1:
        raise ValueError("power must be >= 1")
    return MonomialIdealGens(_column_sums(m, i))


def _as_clutter(source) -> Clutter:
    if isinstance(source, Clutter):
        return source
    if not source.is_zero_one():
        raise NotSquareFree("clutter facts and symbolic powers need a square-free (0/1) ideal")
    return Clutter(source)


def symbolic_power(source, i: int, covers=None) -> MonomialIdealGens:
    """I^(i): minimal exponent vectors whose weight on every minimal
    vertex cover (covers, when given, already computed) is at least i.
    Entries of minimal generators never exceed i."""
    if i < 1:
        raise ValueError("power must be >= 1")
    c = _as_clutter(source)
    covers = minimal_vertex_covers(c) if covers is None else covers
    # a list first: tuple() of a generator grows and shrinks the tuple in place,
    # which raised the peak RSS of long analyze runs by about 1 MiB
    return MonomialIdealGens._trusted(tuple([*_symbolic_points(c, i, covers)]))


def _symbolic_points(c: Clutter, i: int, covers):
    """The generators of I^(i) in sorted order, as a stream: the search
    runs only as far as they are read."""
    return _plane_points(covers, c.n, i, "symbolic power enumeration")


def closure_power(m, i: int, basis=None) -> MonomialIdealGens:
    """Integral closure of I^i: the x-parts a of the lattice points (a, i)
    of the Rees cone, minimalized; basis, when given, is m's sorted
    Hilbert basis.  Those points are the N-sums of basis elements whose
    lifts add up to i, the elements of lift 0 being the unit vectors.  A
    sum with a non-minimal part is not minimal, so level t keeps the
    minimal s + e over the elements e of lift l and s of level t - l.
    When the basis is the generator set, R[It] is normal: the closure is
    I^i."""
    if i < 1:
        raise ValueError("power must be >= 1")
    basis = basis or hilbert_basis(m)
    if is_normal(m, basis)[0]:
        return ordinary_power(m, i)
    lifted = [z for z in basis if z[-1]]
    sums, count = [((0,) * m.n,)], 0
    for t in range(1, i + 1):
        steps = [(z[:-1], sums[t - z[-1]]) for z in lifted if z[-1] <= t]
        count += sum(len(level) for _, level in steps)
        if count > ORDINARY_CAP:
            raise SizeLimit("closure power enumeration", count, ORDINARY_CAP)
        sums.append(minimalize([tuple(map(add, s, e)) for e, level in steps for s in level]))
    return MonomialIdealGens._trusted(sums[i])
