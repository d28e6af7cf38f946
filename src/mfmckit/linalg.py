"""Exact integer linear algebra on small dense matrices,
and the minimal integer points of a system of 0/1 rows whose right-hand
side is the box bound: _plane_points keeps bitmasks of rows by weight.

Everything works over Python ints; no fractions, no floats.
"""

from __future__ import annotations

from itertools import chain
from math import gcd
from operator import mul

from .errors import InconsistencyError, SizeLimit

SEARCH_CAP = 2_000_000


def dot(u, v) -> int:
    return sum(map(mul, u, v))


def primitive(v):
    """Divide an integer vector by the gcd of its entries (direction kept)."""
    g = gcd(*v)
    if g == 1:
        return tuple(v)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in v)


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise InconsistencyError(f"non-exact division {a} / {b}")
    return q


def _bareiss(a) -> bool:
    """Fraction-free forward elimination of the n x n block of a, in place
    (columns past n ride along); False if singular."""
    n = len(a)
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            return False
        a[k], a[p] = a[p], a[k]
        ak = a[k]
        piv = ak[k]
        cols = range(k + 1, len(ak))
        for i in range(k + 1, n):
            ai = a[i]
            f = ai[k]
            for j in cols:
                ai[j], r = divmod(piv * ai[j] - f * ak[j], prev)
                if r:  # raises, naming the operands
                    _exact_div(ai[j] * prev + r, prev)
            ai[k] = 0
        prev = piv
    return True


def _scaled_solve(a):
    """Solve W X = B for an augmented integer matrix a = [W | B], W square,
    in integers: (d, rows of d X) with d = +-det W, or None when W is
    singular.  One fraction-free elimination, then an integer back
    substitution, d x_i = (d b_i - ...) / a_ii, exact by Cramer's rule;
    a is overwritten."""
    n = len(a)
    if not _bareiss(a):
        return None
    d = a[-1][n - 1] if n else 1
    x = [None] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        acc = [d * v for v in row[n:]]
        for j in range(i + 1, n):
            if row[j]:
                acc = [v - row[j] * y for v, y in zip(acc, x[j])]
        x[i] = [_exact_div(v, row[i]) for v in acc]
    return d, x


def smith_invariant_factors(rows):
    """Invariant factors d_1 | d_2 | ... of an integer matrix.

    A unit pivot, taken first, is a factor 1 once row operations clear its
    column, as column operations then change only its row.  Otherwise
    reduce the row and column of a least non-zero entry by it; a remainder
    is a smaller pivot, and a lone pivot dividing every entry is the next
    factor, or a row it does not divide is added to its own.  A factor's
    row and column go.  Zero factors are not reported: the rank is the
    number of factors returned."""
    a = [list(r) for r in rows]
    factors = []
    while any(map(any, a)):
        p = (next((u for row in a for u in (1, -1) if u in row), None)
             or min(filter(None, chain.from_iterable(a)), key=abs))
        pivot = next(row for row in a if p in row)
        j = pivot.index(p)
        while True:
            for row in a:
                if row is not pivot and row[j]:
                    q = row[j] // p
                    row[:] = [x - q * y for x, y in zip(row, pivot)]
            if abs(p) > 1:
                for c, x in enumerate(pivot):
                    if c != j and x:
                        q = x // p
                        for row in a:
                            row[c] -= q * row[j]
                if any(row[j] for row in a if row is not pivot) or sum(map(bool, pivot)) > 1:
                    break
                bad = next((row for row in a if any(x % p for x in row)), None)
                if bad:
                    pivot[:] = [x + y for x, y in zip(pivot, bad)]
                    continue
            factors.append(abs(p))
            a = [row for row in a if row is not pivot]
            for row in a:
                del row[j]
            break
    return tuple(factors)


def _plane_points(supports, n: int, r: int, stage: str):
    """Yield the minimal points of {a in {0..r}^n : sum of a_k over k in s
    is at least r for every support s}, the supports sorted index tuples,
    in lexicographic order.

    Depth first over the coordinates, as a loop.  a is minimal exactly
    when each a_k > 0 is critical: some row holding k has weight r.
    Weights only grow, so a branch, and the loop over larger a_k, stops
    once an earlier positive coordinate cannot be critical or a row is out
    of reach; the last coordinate takes its least feasible value, and once
    every row is met the rest are 0.  SEARCH_CAP counts the nodes as they
    are visited, fewer than the box's points.

    The rows are bits, and planes[t] holds the rows of weight >= t for
    t = 0..r+1, weights saturating at r + 1.  Setting a_k = v adds the rows
    holding k of weight >= t - v to planes[t], top plane first; the least
    a_k lifts the rows whose last coordinate is k into planes[r - a_k]; and
    a placed coordinate is critical while it holds a row outside planes[r + 1].
    The planes are saved when a_k leaves 0 and restored when it returns."""
    top = r + 1
    every = (1 << len(supports)) - 1  # empty rows too: never met for r > 0
    holds, last, full = [0] * n, [0] * n, every
    for j, s in enumerate(supports):
        bit = 1 << j
        for k in s:
            holds[k] |= bit
        if s:
            last[s[-1]] |= bit
        elif r:  # never met: it leaves planes[0], so the first node finds no a_0
            last[0] |= bit
            full ^= bit
    planes, down = [full] + [0] * top, range(top, 0, -1)
    # placed: holds[k] of the positive a_k; saved: the planes before each left 0
    a, placed, saved, nodes, k, back = [0] * n, [], [], 0, 0, False

    def critical(free):
        """Whether each placed coordinate holds a row of the mask free."""
        for col in placed:
            if not col & free:
                return False
        return True

    # ok: whether the placed coordinates are critical.  A step down is taken
    # only when they are, and a coordinate can stop being critical only when
    # planes[top] grows, so they are checked again only then
    while k >= 0:
        col = holds[k]
        if back:  # the branches below a_k are done: try a_k + 1
            v = a[k]
            ok = v < r
            if ok:
                if not v:
                    saved.append(planes[:])
                    placed.append(col)
                a[k] = v + 1
                before = planes[top]
                for t in down:
                    planes[t] |= col & planes[t - 1]
                if planes[top] != before:
                    ok = critical(~planes[top])
                elif not v:  # only the newly placed coordinate is unchecked
                    ok = col & ~before
        else:
            nodes += 1
            if nodes > SEARCH_CAP:
                raise SizeLimit(stage, nodes, SEARCH_CAP)
            if planes[r] == every:  # every row met: a later a_k > 0 is not critical
                yield tuple(a)
                k, back = k - 1, True
                continue
            need, v = last[k], 0  # the least a_k that meets the rows ending at k
            while v <= r and need & ~planes[r - v]:
                v += 1
            if v > r:
                k, back = k - 1, True
                continue
            if k == n - 1:  # a leaf: only the rows a_k lifts to the top plane matter
                rise = v and col & planes[top - v] & ~planes[top]
                if not rise or critical(~(planes[top] | rise)):
                    a[k] = v
                    yield tuple(a)  # v > 0 is critical, since v - 1 leaves a row unmet
                    a[k] = 0
                k, back = k - 1, True
                continue
            ok = True
            if v:
                a[k] = v
                saved.append(planes[:])
                placed.append(col)
                before = planes[top]
                for t in range(top, v, -1):
                    planes[t] |= col & planes[t - v]
                for t in range(v, 0, -1):  # planes[0] holds every row of col
                    planes[t] |= col
                free = ~planes[top]
                ok = critical(free) if planes[top] != before else col & free
        if ok:
            k, back = k + 1, False
            continue
        if a[k]:
            planes[:] = saved.pop()
            placed.pop()
            a[k] = 0
        k, back = k - 1, True
