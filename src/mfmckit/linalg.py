"""Exact integer and rational linear algebra on small dense matrices.

Everything works over Python ints and fractions.Fraction; no floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InconsistencyError


def dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def primitive(v):
    """Divide an integer vector by the gcd of its entries (direction kept)."""
    g = 0
    for x in v:
        g = gcd(g, x)
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
        piv = a[k][k]
        cols = range(k + 1, len(a[k]))
        for i in range(k + 1, n):
            f = a[i][k]
            ai, ak = a[i], a[k]
            for j in cols:
                ai[j] = _exact_div(piv * ai[j] - f * ak[j], prev)
            ai[k] = 0
        prev = piv
    return True


def solve_square(rows, rhs):
    """Solve an integer square system exactly.

    Returns a tuple of Fractions, or None when the matrix is singular.
    Forward elimination is fraction-free (Bareiss); only the back
    substitution touches Fraction arithmetic.
    """
    n = len(rows)
    a = [list(row) + [b] for row, b in zip(rows, rhs)]
    if not _bareiss(a):
        return None
    xs = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        s = Fraction(a[i][n])
        for j in range(i + 1, n):
            if a[i][j]:
                s -= a[i][j] * xs[j]
        xs[i] = s / a[i][i]
    return tuple(xs)


def smith_invariant_factors(rows):
    """Invariant factors d_1 | d_2 | ... of an integer matrix.

    Classic corner reduction: move a minimal non-zero entry to the corner,
    clear its row and column by division with remainder, enforce that the
    corner divides the rest of the submatrix, recurse.  Zero factors are
    not reported; the rank is the number of factors returned.
    """
    a = [list(r) for r in rows]
    m = len(a)
    w = len(a[0]) if m else 0
    factors = []
    t = 0
    while t < m and t < w:
        best = None
        for i in range(t, m):
            for j in range(t, w):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best[0]):
                    best = (abs(a[i][j]), i, j)
        if best is None:
            break
        _, bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        for row in a:
            row[t], row[bj] = row[bj], row[t]
        while True:
            piv = a[t][t]
            touched = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // piv
                    if q:
                        for j in range(t, w):
                            a[i][j] -= q * a[t][j]
                    if a[i][t] != 0:
                        a[t], a[i] = a[i], a[t]
                        touched = True
                        break
            if touched:
                continue
            for j in range(t + 1, w):
                if a[t][j] != 0:
                    q = a[t][j] // piv
                    if q:
                        for i in range(t, m):
                            a[i][j] -= q * a[i][t]
                    if a[t][j] != 0:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        touched = True
                        break
            if touched:
                continue
            culprit = None
            for i in range(t + 1, m):
                for j in range(t + 1, w):
                    if a[i][j] % piv != 0:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            for j in range(t, w):
                a[t][j] += a[culprit][j]
        factors.append(abs(a[t][t]))
        t += 1
    return tuple(factors)


def fraction_vector_to_normal(alpha):
    """Clear denominators of a rational point: alpha -> primitive (alpha', b).

    b is the lcm of the denominators, alpha' = b * alpha, gcd(alpha', b) = 1.
    """
    b = 1
    for x in alpha:
        f = Fraction(x)
        b = b * f.denominator // gcd(b, f.denominator)
    nums = tuple(int(Fraction(x) * b) for x in alpha)
    return nums, b
