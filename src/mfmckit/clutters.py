"""Clutters, exponent matrices, minors and cover/matching combinatorics.

A clutter is stored through its incidence matrix: one column per edge,
one row per vertex.  Columns are exponent vectors of the edge monomials,
so the same type carries general monomial ideals when entries exceed 1.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cache
from math import comb, factorial, prod
from operator import ge, index, le

from .errors import (
    EmptyEdge, InconsistencyError, NotAntichain, NotZeroOne, OverlappingSpec, Record, SizeLimit)
from .linalg import _plane_points

MINOR_CAP = 3 ** 12
MATCHING_CAP = 2_000_000
ENUMERATION_CAP = 1_000_000
RELABEL_CAP = 720


@cache
def _default_labels(n: int) -> tuple:
    return tuple(f"x{i + 1}" for i in range(n))


def _check_antichain(columns):
    # minimal generation: no exponent vector divides another.  The columns
    # are sorted, and a column that divides another sorts before it
    for a, b in itertools.combinations(columns, 2):
        if all(map(le, a, b)):
            raise NotAntichain(a, b)


class ExponentMatrix(Record):
    """Non-negative integer matrix whose columns minimally generate an ideal."""

    columns: tuple

    def __post_init__(self):
        cols = tuple(tuple(map(index, c)) for c in self.columns)
        if not cols:
            raise EmptyEdge("no generators: q = 0")
        width = len(cols[0])
        for c in cols:
            if len(c) != width:
                raise ValueError("ragged column lengths")
            if any(x < 0 for x in c):
                raise ValueError(f"negative exponent in {c}")
            if not any(c):
                raise EmptyEdge(f"zero exponent vector {c}")
        cols = tuple(sorted(cols))
        _check_antichain(cols)
        object.__setattr__(self, "columns", cols)

    @property
    def n(self) -> int:
        return len(self.columns[0])

    @property
    def q(self) -> int:
        return len(self.columns)

    def row(self, i: int):
        return tuple(c[i] for c in self.columns)

    def is_zero_one(self) -> bool:
        return all(x <= 1 for c in self.columns for x in c)

    def max_entry(self) -> int:
        return max(x for c in self.columns for x in c)


class Clutter(Record):
    """A 0/1 exponent matrix with vertex labels."""

    matrix: ExponentMatrix
    labels: tuple = ()

    def __post_init__(self):
        for j, c in enumerate(self.matrix.columns):
            for i, x in enumerate(c):
                if x not in (0, 1):
                    raise NotZeroOne(j, i, x)
        labels = self.labels or _default_labels(self.matrix.n)
        if len(labels) != self.matrix.n:
            raise ValueError("label count differs from vertex count")
        if len(set(labels)) < len(labels):
            repeated = next(x for i, x in enumerate(labels) if x in labels[:i])
            raise ValueError(f"repeated vertex label {repeated!r}")
        object.__setattr__(self, "labels", tuple(labels))

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def q(self) -> int:
        return self.matrix.q

    @property
    def edges(self):
        """Edge supports as sorted index tuples, in column order."""
        return tuple(
            tuple(i for i, x in enumerate(c) if x) for c in self.matrix.columns
        )

    def edge_masks(self):
        return tuple(
            sum(1 << i for i, x in enumerate(c) if x) for c in self.matrix.columns
        )

    def edge_labels(self):
        return tuple(tuple(self.labels[i] for i in e) for e in self.edges)


def _key_and_automorphisms(c: Clutter) -> tuple:
    """(key, automorphisms): a key that is equal for two clutters exactly
    when one is a vertex relabelling of the other, and the order of the
    clutter's vertex automorphism group.

    The smaller side (the vertices if n <= q, else the edges) is ordered
    by an invariant and relabelled only within blocks of equal invariant:
    for a vertex, the sorted sizes of its edges; for an edge, the sorted
    degrees of its vertices.  The key is (n, q) and the least sorted
    tuple of the other side's bitmasks.  The relabellings that give that
    least tuple are a coset of the automorphisms the side sees, so their
    count is the group order; an edge relabelling fixes each vertex
    among its twins (vertices on the same edges), so there the count is
    multiplied by the factorial of each twin class's size.  Past
    RELABEL_CAP relabellings only the given labelling is tried and the
    count is None.  Either way the masks give the clutter up to
    relabelling, so equal keys always mean isomorphic clutters; past the
    cap, isomorphic copies may get different keys."""
    cols = c.matrix.columns
    rows = tuple(zip(*cols))
    side, other = (rows, cols) if len(rows) <= len(cols) else (cols, rows)
    sizes = list(map(sum, other))
    blocks = {}
    for x, incidence in enumerate(side):
        blocks.setdefault(tuple(sorted(itertools.compress(sizes, incidence))), []).append(x)
    order = [blocks[k] for k in sorted(blocks)]
    capped = False
    if len(order) == len(side):  # singleton blocks: the one relabelling
        relabellings = [order]
    elif prod(factorial(len(b)) for b in order) > RELABEL_CAP:
        relabellings, capped = [[range(len(side))]], True
    else:  # product() lists each block's permutations up front
        relabellings = itertools.product(*map(itertools.permutations, order))
    powers = [1 << p for p in range(len(side))]
    bits = [0] * len(side)
    best, count = None, 0
    for choice in relabellings:
        for x, bit in zip(itertools.chain.from_iterable(choice), powers):
            bits[x] = bit
        form = tuple(sorted([sum(itertools.compress(bits, incidence)) for incidence in other]))
        if best is None or form < best:
            best, count = form, 1
        elif form == best:
            count += 1
    if capped:
        count = None
    elif side is cols:
        count *= prod(map(factorial, Counter(rows).values()))
    return (len(rows), len(cols), best), count


def _canonical_key(c: Clutter) -> tuple:
    """The isomorphism-class key of _key_and_automorphisms."""
    return _key_and_automorphisms(c)[0]


def _trusted_clutter(rows, labels) -> Clutter:
    """Clutter over 0/1 rows that the package built itself: an antichain
    of non-empty edges, with one distinct label per vertex.  The rows are
    sorted as ExponentMatrix sorts them, and nothing is checked again."""
    return Clutter._trusted(ExponentMatrix._trusted(tuple(sorted(rows))), labels)


def validate(grid, labels=None) -> Clutter:
    """Build a Clutter from a raw integer grid (one row per edge).

    Raises NotZeroOne / EmptyEdge / NotAntichain on bad input, and
    TypeError on an entry that is not an integer.
    """
    rows = [tuple(map(index, r)) for r in grid]
    for r, row in enumerate(rows):
        for c, x in enumerate(row):
            if x not in (0, 1):
                raise NotZeroOne(r, c, x)
    return Clutter(ExponentMatrix(tuple(rows)), tuple(labels) if labels else ())


def clutter_from_edges(n: int, edges, labels=None) -> Clutter:
    """Clutter from index-based edge supports over n vertices; a vertex
    outside range(n) raises ValueError."""
    supports = [set(e) for e in edges]
    if outside := set().union(*supports).difference(range(n)):
        raise ValueError(f"vertices {sorted(outside)} outside range({n})")
    rows = tuple(tuple([1 if i in e else 0 for i in range(n)]) for e in supports)
    return Clutter(ExponentMatrix(rows), tuple(labels) if labels else ())


class MinorSpec(Record):
    """Disjoint vertex sets sent to zero and to one."""

    zeros: tuple
    ones: tuple

    def __post_init__(self):
        z = tuple(sorted(set(self.zeros)))
        o = tuple(sorted(set(self.ones)))
        if set(z) & set(o):
            raise OverlappingSpec(f"zeros {z} and ones {o} overlap")
        object.__setattr__(self, "zeros", z)
        object.__setattr__(self, "ones", o)


class NonMinor(Record):
    """Marker for a degenerate minor: 'unit' or 'zero' ideal."""

    reason: str


def minor(c: Clutter, spec: MinorSpec):
    """Minor of a clutter: delete edges meeting zeros, shrink by ones.

    Returns a Clutter on the surviving vertices, or NonMinor when the
    result is the unit ideal (an edge emptied out) or the zero ideal
    (no edges left).  Duplicate edges collapse; supersets are dropped.
    """
    zeros, ones = set(spec.zeros), set(spec.ones)
    if outside := (zeros | ones).difference(range(c.n)):
        raise ValueError(f"minor spec vertices {sorted(outside)} outside range({c.n})")
    kept = [set(e) for e in c.edges if not (set(e) & zeros)]
    if not kept:
        return NonMinor("zero")
    shrunk = []
    for e in kept:
        e2 = e - ones
        if not e2:
            return NonMinor("unit")
        shrunk.append(e2)
    minimal = {frozenset(e) for e in shrunk if not any(f < e for f in shrunk)}
    survivors = [i for i in range(c.n) if i not in zeros and i not in ones]
    rows = [tuple([1 if v in e else 0 for v in survivors]) for e in minimal]
    return _trusted_clutter(rows, tuple(c.labels[i] for i in survivors))


def _minor_specs(n: int):
    # (zeros, ones) bitmasks; assignment order: keep < zero < one per
    # vertex, lexicographic
    choices = [((0, 0), (1 << i, 0), (0, 1 << i)) for i in range(n)]
    for assign in itertools.product(*choices):
        yield sum(z for z, _ in assign), sum(o for _, o in assign)


def _spec(zeros: int, ones: int) -> MinorSpec:
    def members(mask):
        return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
    return MinorSpec(members(zeros), members(ones))


def all_minors(c: Clutter):
    """All proper-and-improper minors of a clutter, deduplicated.

    Enumerates every disjoint (zeros, ones) pair, including the empty
    one, filters degenerate results and keeps the first spec producing
    each labeled edge set.
    """
    if (total := 3 ** c.n) > MINOR_CAP:
        raise SizeLimit("minor enumeration", total, MINOR_CAP)
    out, seen = [], set()
    for zeros, ones in _minor_specs(c.n):
        spec = _spec(zeros, ones)
        m = minor(c, spec)
        if isinstance(m, NonMinor):
            continue
        key = (m.labels, m.edges)
        if key in seen:
            continue
        seen.add(key)
        out.append((spec, m))
    return tuple(out)


def minimal_vertex_covers(c: Clutter):
    """All minimal transversals, as sorted index tuples in canonical order."""
    points = _plane_points(c.edges, c.n, 1, "cover enumeration")
    return tuple(sorted(tuple(itertools.compress(range(c.n), a)) for a in points))


def covering_number(c: Clutter) -> int:
    """Least size of a vertex cover."""
    return min(len(t) for t in minimal_vertex_covers(c))


def _disjoint_edges(masks, target: int) -> int:
    """Most pairwise-disjoint masks, by exhaustion; stops once target are
    found.  MATCHING_CAP counts the search nodes."""
    best = nodes = 0
    # pending nodes (next mask, union taken, count taken); taking masks[i] first
    stack = [(0, 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        i, used, count = pop()
        nodes += 1
        if nodes > MATCHING_CAP:
            raise SizeLimit("matching search", nodes, MATCHING_CAP)
        if count > best:
            best = count
        if best >= target or i == len(masks) or count + len(masks) - i <= best:
            continue
        push((i + 1, used, count))
        if not (masks[i] & used):
            push((i + 1, used | masks[i], count + 1))
    return best


def matching_number(c: Clutter) -> int:
    """Largest number of pairwise vertex-disjoint edges, by exhaustion."""
    return _disjoint_edges(c.edge_masks(), c.q)


def koenig(c: Clutter) -> bool:
    """Whether the covering and matching numbers coincide."""
    return covering_number(c) == matching_number(c)


def packing_property(c: Clutter, cap: int = MINOR_CAP, covers=None):
    r"""Whether every minor satisfies the Koenig property.

    Returns (True, None) or (False, first failing MinorSpec) in the
    canonical minor enumeration order.  By blocker duality, b(C \ X / Y)
    = b(C) / X \ Y, each minor's covering number is read off the minimal
    covers of c (computed unless given); the minor passes once that many
    of its kept, shrunk edges are disjoint.  Superset edges and repeated
    minors change neither number, so no minor is built."""
    if 3 ** c.n > cap:
        raise SizeLimit("minor enumeration", 3 ** c.n, cap)
    if covers is None:
        covers = minimal_vertex_covers(c)
    blocker = [sum(1 << v for v in b) for b in covers]
    edges = c.edge_masks()
    for zeros, ones in _minor_specs(c.n):
        kept = [e & ~ones for e in edges if not e & zeros]
        if not kept or not all(kept):
            continue  # the zero or the unit ideal
        tau = min((b & ~zeros).bit_count() for b in blocker if not b & ones)
        if _disjoint_edges(kept, tau) < tau:
            return False, _spec(zeros, ones)
    return True, None


def _antichain_walk(max_vertices: int, max_edges: int):
    """Yield (n, rows) for every clutter on 1..max_vertices labeled
    vertices with at most max_edges edges, in enumerate_clutters' order:
    rows are its 0/1 edge rows in the order the walk picked them.

    For each n and edge count k, one depth-first pass picks k non-empty
    subsets in itertools.combinations order, each incomparable with those
    already picked, and keeps the families that cover all n vertices, so
    only antichains are visited.  Their number is bounded by the
    C(2^n - 1, k) candidate families for each n and k <= max_edges, whose
    count, summed vertex count by vertex count until it passes the cap,
    must stay within ENUMERATION_CAP."""
    candidates = 0
    for n in range(1, max_vertices + 1):
        if candidates > ENUMERATION_CAP:
            break
        subsets = 2 ** n - 1
        candidates += sum(comb(subsets, k) for k in range(1, min(max_edges, subsets) + 1))
    if candidates > ENUMERATION_CAP:
        raise SizeLimit("clutter enumeration", candidates, ENUMERATION_CAP)
    for n in range(1, max_vertices + 1):
        subsets = [e for k in range(1, n + 1) for e in itertools.combinations(range(n), k)]
        masks = [sum(1 << i for i in e) for e in subsets]
        rows = [tuple([1 if i in e else 0 for i in range(n)]) for e in subsets]
        full = (1 << n) - 1
        top = min(max_edges, len(subsets))
        # later[i]: the later subsets incomparable with subset i, as a bitmask;
        # built only for pairs, whose C(2^n - 1, 2) candidates the cap counts
        later = ([sum(1 << j for j in range(i + 1, len(masks))
                      if a & masks[j] not in (a, masks[j]))
                  for i, a in enumerate(masks)]
                 if top >= 2 else [0] * len(masks))

        for count in range(1, top + 1):
            # the first edge by index, so no bitmask of all subsets is built
            for i in range(len(subsets) - count + 1):
                # pending nodes (chosen, free, union, left), free the bitmask of the
                # subsets that may still join chosen; a node is pushed back less its
                # least free subset, under the branch that takes that subset
                stack = [((rows[i],), later[i], masks[i], count - 1)]
                while stack:
                    chosen, free, union, left = stack.pop()
                    if not left:
                        if union == full:
                            yield n, chosen
                    elif free.bit_count() >= left:
                        low = free & -free
                        free ^= low
                        j = low.bit_length() - 1
                        stack.append((chosen, free, union, left))
                        stack.append((chosen + (rows[j],), free & later[j],
                                      union | masks[j], left - 1))


def enumerate_clutters(max_vertices: int, max_edges: int):
    """Yield every clutter on 1..max_vertices labeled vertices with at
    most max_edges edges, in a deterministic order.

    Isolated vertices are disallowed, so each family appears exactly
    once (at the vertex count it actually uses).  The families come from
    _antichain_walk, under its ENUMERATION_CAP check; its rows are 0/1
    antichains by construction, so each clutter is built unchecked."""
    for n, rows in _antichain_walk(max_vertices, max_edges):
        yield _trusted_clutter(rows, _default_labels(n))


def _clutter_classes(max_vertices: int, max_edges: int):
    """Yield (key, clutter, copies) once for each isomorphism class of
    enumerate_clutters(max_vertices, max_edges): its canonical key, its
    first member with non-increasing vertex degrees in walk order, and
    its n!/|Aut| labelled members there.

    Every class has such a member (sort its vertices by degree), so only
    those families are built and keyed.  A copy count needs the exact
    automorphism count, so a key past RELABEL_CAP raises
    InconsistencyError; within ENUMERATION_CAP min(n, q) <= 6 and the
    key never is."""
    seen = set()
    for n, rows in _antichain_walk(max_vertices, max_edges):
        degrees = [*map(sum, zip(*rows))]
        if not all(map(ge, degrees, degrees[1:])):
            continue
        c = _trusted_clutter(rows, _default_labels(n))
        key, automorphisms = _key_and_automorphisms(c)
        if automorphisms is None:
            raise InconsistencyError(
                f"class key of {c.edges} is past RELABEL_CAP = {RELABEL_CAP}: "
                "its labelled copies cannot be counted")
        if key not in seen:
            seen.add(key)
            yield key, c, factorial(n) // automorphisms
