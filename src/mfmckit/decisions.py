"""Verdicts: MFMC decision, bounded TDI and torsion checks, scans.

The MFMC verdict is the conjunction of two facts, each read once in
Analysis off one placing pass over the Rees cone: the covering
polyhedron has integral vertices (its vertex normals) and the Rees
algebra is normal (its Hilbert basis).  By the same
theorem the ideal is normally torsion free and gr_I(R) reduced exactly
then, and every minor is Koenig; the searches run only to find
witnesses, and a certificate stands in for the ntf witness past i_max.
The scan reads packing off the same two facts by Lehman's theorem and
walks the minors only where the theorem leaves packing open.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from operator import le
from types import MappingProxyType

from .clutters import (
    Clutter,
    MINOR_CAP,
    MinorSpec,
    _canonical_key,
    _clutter_classes,
    _disjoint_edges,
    enumerate_clutters,
    minimal_vertex_covers,
    packing_property,
)
from .cones import classify_facets, rees_cone
from .errors import InconsistencyError, Record, SizeLimit
from .hilbert import basis_and_facets, is_normal, smith_invariants
from .ideals import (_as_clutter, _column_sums, _symbolic_points, closure_power, ideal_equal,
                     ordinary_power, symbolic_power)
from .linalg import dot

TDI_BOX_CAP = 1_000_000


class Analysis:
    """The Rees-cone objects of one clutter, each computed on first use
    and kept: the Rees cone, its Hilbert basis and facets from one placing
    pass, the two facts as (holds, witness) pairs, normal read off the
    basis and integral off the vertex normals, the minimal vertex covers
    and the powers, the closure powers read off the basis, or the kept
    I^i when R[It] is normal; ntf_check streams a symbolic power that is
    not kept, and keeps none."""

    POWERS = {
        "ordinary": lambda a, i: ordinary_power(a.clutter.matrix, i),
        "symbolic": lambda a, i: symbolic_power(a.clutter, i, a.covers),
        "closure": lambda a, i: (a.power("ordinary", i) if a.normal[0]
                                 else closure_power(a.clutter.matrix, i, a.basis)),
    }

    def __init__(self, c: Clutter):
        self.clutter = c
        self._powers = {}

    @cached_property
    def rees(self):
        return rees_cone(self.clutter.matrix)

    @cached_property
    def _placing(self) -> tuple:
        return basis_and_facets(self.rees)

    @cached_property
    def basis(self) -> tuple:
        return self._placing[0]

    @cached_property
    def facets(self):
        return classify_facets(self.rees, self._placing[1])

    @cached_property
    def normal(self) -> tuple:
        return is_normal(self.clutter.matrix, self.basis)

    @cached_property
    def integral(self) -> tuple:
        v = self.facets.least_fractional_vertex()
        return v is None, v

    @cached_property
    def covers(self) -> tuple:
        return minimal_vertex_covers(self.clutter)

    def power(self, kind: str, i: int):
        """I^i, I^(i) or the integral closure of I^i, by kind in POWERS."""
        if (kind, i) not in self._powers:
            self._powers[kind, i] = self.POWERS[kind](self, i)
        return self._powers[kind, i]


def as_analysis(source) -> Analysis:
    """An Analysis of a Clutter or 0/1 ExponentMatrix, else NotSquareFree."""
    return source if isinstance(source, Analysis) else Analysis(_as_clutter(source))


class Verdict(Record):
    mfmc: bool
    normal: bool
    integral: bool
    koenig: bool
    packing: bool
    # lattice torsion of Z^(n+1)/<(v_j, 1)>, not "normally torsion free" (ntf)
    torsion_free: bool
    ntf: bool
    witnesses: dict = None  # held as a read-only view of a copy; None: empty
    i_max_checked: int = 3

    def __post_init__(self):
        object.__setattr__(self, "witnesses", MappingProxyType(dict(self.witnesses or {})))

    def __reduce__(self):
        # a mappingproxy does not pickle: rebuild from a plain dict
        values = [getattr(self, n) for n in self._fields]
        values[self._fields.index("witnesses")] = dict(self.witnesses)
        return type(self), tuple(values)


class NtfResult(Record):
    ok: bool
    failed_i: int = None
    witness: tuple = None


class TdiCounterexample(Record):
    alpha: tuple
    rational_value: Fraction
    integral_value: int


class TdiReport(Record):
    bound: int
    checked: int
    counterexample: TdiCounterexample = None


def require_i_max(i_max: int):
    """Reject power bounds that would check nothing: a verdict drawn
    from zero powers would be vacuously true."""
    if i_max < 1:
        raise ValueError(f"i_max must be >= 1, got {i_max}")


def require_tdi_box(n: int, bound: int):
    """Reject demand boxes that check nothing or exceed TDI_BOX_CAP."""
    if bound < 1:
        raise ValueError(f"demand bound must be >= 1, got {bound}")
    if (bound + 1) ** n > TDI_BOX_CAP:
        raise SizeLimit("tdi demand box", (bound + 1) ** n, TDI_BOX_CAP)


def ntf_check(source, i_max: int = 3) -> NtfResult:
    """Compare ordinary and symbolic powers up to i_max.

    I^i lies inside I^(i), so the powers differ exactly when a generator
    g of I^(i) is no sum of i edges (a sum s <= g lies in I^(i), so s =
    g); the least such g is the witness, and neither power is built.  The
    comparison starts at i = 2: a square-free monomial ideal is the
    intersection of the primes of its minimal covers, so I^1 = I^(1)."""
    require_i_max(i_max)
    a = as_analysis(source)
    for i in range(2, i_max + 1):
        sums = _column_sums(a.clutter.matrix, i)
        kept = a._powers.get(("symbolic", i))
        gens = kept.gens if kept else _symbolic_points(a.clutter, i, a.covers)
        witness = next((g for g in gens if g not in sums), None)
        if witness is not None:
            return NtfResult(False, i, witness)
    return NtfResult(True)


def tdi_bounded_check(source, bound: int = 2) -> TdiReport:
    """Exact duality-gap scan over the demand box {0..bound}^n.

    The rational optimum of max{<1,y> : y >= 0, A y <= alpha} is the least
    <alpha, v> over the vertices v = alpha'/b of the dual feasible region
    {x >= 0 : x A >= 1}, read off their normals (alpha', -b); the integral
    optimum comes from a DP over the box in index order.  Stops at the first gap."""
    a = as_analysis(source)
    n = a.clutter.n
    require_tdi_box(n, bound)
    # alpha has index <alpha, radix> in the lexicographic order of
    # itertools.product, so alpha - v sits <v, radix> places back if v <= alpha
    radix = [(bound + 1) ** k for k in reversed(range(n))]
    steps = [(v, dot(v, radix)) for v in a.clutter.matrix.columns]
    best = []
    for checked, alpha in enumerate(itertools.product(range(bound + 1), repeat=n), 1):
        top = 0
        for v, back in steps:
            if all(map(le, v, alpha)) and best[-back] >= top:
                top = best[-back] + 1
        best.append(top)
        # a gap: top < <alpha, v> at every vertex v = alpha'/b of Q(A), tested as
        # <alpha, alpha'> - top b > 0 on its normal (alpha', -b); dot stops at the lift
        if all(dot(alpha, f) + top * f[-1] > 0 for f in a.facets.vertex_normals):
            rational = min(Fraction(dot(alpha, f), -f[-1]) for f in a.facets.vertex_normals)
            return TdiReport(bound, checked, TdiCounterexample(alpha, rational, top))
    return TdiReport(bound, checked)


def _ntf_certificate(a: Analysis) -> tuple:
    """(i, w) with x^w in I^(i) but not in I^i, for a clutter without MFMC.

    A non-normal witness z = (w, i) is a lattice point of the Rees cone
    outside the generator semigroup, so x^w lies in the closure of I^i,
    inside I^(i), but not in I^i.  Otherwise take the least fractional vertex v of Q(A)
    and w the sum of the constraint normals tight at v: the edge columns
    with <col, v> = 1 and e_k for v_k = 0.  v is then the unique minimiser
    of <w, x> over Q(A), so the least w-weight i of a minimal cover
    exceeds <w, v>, and x^w lies in I^(i) but outside the closure of I^i."""
    normal, z = a.normal
    if not normal:
        return z[-1], z[:-1]
    _, v = a.integral
    w = [int(x == 0) for x in v]
    for col in a.clutter.matrix.columns:
        if dot(col, v) == 1:
            w = [x + y for x, y in zip(w, col)]
    return min(sum(w[k] for k in cover) for cover in a.covers), tuple(w)


def decide_mfmc(source, i_max: int = 3, minor_cap: int = MINOR_CAP) -> Verdict:
    """Full verdict for a clutter; witnesses collected for every failure."""
    require_i_max(i_max)
    a = as_analysis(source)
    c = a.clutter
    # {fact: (holds, witness)} in Verdict field order; a fact set again keeps its place
    facts = {"normal": a.normal, "integral": a.integral}
    mfmc = facts["normal"][0] and facts["integral"][0]
    smith = smith_invariants(c.matrix)
    # MFMC at weights 0, 1 and large is Koenig on every minor, and I is
    # normally torsion free exactly when C has MFMC: the searches run
    # only to find the witnesses of a clutter without MFMC
    facts.update(koenig=(True, None), packing=(True, None),
                 torsion_free=(smith.torsion_free, smith.factors), ntf=(True, None))
    if not mfmc:
        # nu <= tau, so a search stopping at tau finds nu exactly
        tau = min(map(len, a.covers))
        nu = _disjoint_edges(c.edge_masks(), tau)
        facts["koenig"] = tau == nu, (tau, nu)
        # the first minor spec is the clutter itself
        facts["packing"] = ((False, MinorSpec((), ())) if tau != nu
                            else packing_property(c, minor_cap, a.covers))
        ntf = ntf_check(a, i_max)
        witness = ntf.failed_i, ntf.witness
        if ntf.ok:
            witness = _ntf_certificate(a)
            if witness[0] <= i_max:
                raise InconsistencyError(
                    f"no power up to {i_max} fails, but certificate {witness} does")
        facts["ntf"] = False, witness
    return Verdict(
        mfmc=mfmc,
        **{k: holds for k, (holds, _) in facts.items()},
        witnesses={k: w for k, (holds, w) in facts.items() if not holds},
        i_max_checked=i_max,
    )


def gr_reduced(source) -> bool:
    """Whether the associated graded ring is reduced: normality of the
    Rees algebra together with integrality of the covering polyhedron."""
    a = as_analysis(source)
    return a.normal[0] and a.integral[0]


class EquivalenceReport(Record):
    a_integral: bool
    b_cover_facets: bool
    c_closure_symbolic: tuple  # per-power equality flags, i = 1..i_max
    i_max: int

    @property
    def c_all(self) -> bool:
        return all(self.c_closure_symbolic)


def integrality_equivalences(source, i_max: int = 3) -> EquivalenceReport:
    """Evaluate three equivalent readings of vertex integrality.

    (a) every covering-polyhedron vertex is integral;
    (b) every irreducible facet of the Rees cone is either a coordinate
        plane or comes from a minimal vertex cover with lift -1;
    (c) integral closures of powers match symbolic powers for i <= i_max.

    (a) and (b) must agree exactly, and (a) forces (c) at every checked
    power; anything else raises InconsistencyError since the routes are
    supposed to compute the same thing."""
    require_i_max(i_max)
    an = as_analysis(source)
    a = an.integral[0]
    cover_normals = {tuple(int(v in cover) for v in range(an.clutter.n)) + (-1,)
                     for cover in an.covers}
    b = set(an.facets.vertex_normals) <= cover_normals
    flags = tuple(ideal_equal(an.power("closure", i), an.power("symbolic", i))
                  for i in range(1, i_max + 1))
    report = EquivalenceReport(a, b, flags, i_max)
    if a != b:
        raise InconsistencyError(
            f"integrality ({a}) and facet shape ({b}) disagree"
        )
    if a and not report.c_all:
        raise InconsistencyError(
            "integral vertices but some closure power differs from symbolic"
        )
    return report


class ScanReport(Record):
    total: int
    packing_true: int
    reduced_confirmed: int
    reduced_counterexamples: tuple
    uniform_tested: int
    torsion_free_confirmed: int
    torsion_counterexamples: tuple

    @property
    def clean(self) -> bool:
        return not self.reduced_counterexamples and not self.torsion_counterexamples


def _scan_facts(c: Clutter) -> tuple:
    """(packing, normal, uniform, torsion_free) of one clutter; uniform
    and torsion_free are read only for a packing clutter."""
    a = Analysis(c)
    normal = a.normal[0]
    if not (a.integral[0] and (normal or packing_property(c, covers=a.covers)[0])):
        return False, normal, False, False
    weights = {sum(col) for col in c.matrix.columns}
    uniform = len(weights) == 1 and weights.pop() >= 2
    return True, normal, uniform, uniform and smith_invariants(c.matrix).torsion_free


def _tally(classes, members) -> ScanReport:
    """The scan report over classes, a dict from each class key to the
    class's _scan_facts and its number of labelled members.  members
    yields (key, clutter) for every labelled member in family order; it
    is read only when some class is a counterexample, to list each of
    that class's members."""
    total = packing_true = reduced_ok = uniform_tested = torsion_ok = 0
    bad_reduced, bad_torsion = set(), set()
    for key, ((packing, normal, uniform, torsion_free), copies) in classes.items():
        total += copies
        if not packing:
            continue
        packing_true += copies
        if normal:
            reduced_ok += copies
        else:
            bad_reduced.add(key)
        if uniform:
            uniform_tested += copies
            if torsion_free:
                torsion_ok += copies
            else:
                bad_torsion.add(key)
    listed = tuple(members) if bad_reduced or bad_torsion else ()
    return ScanReport(
        total,
        packing_true,
        reduced_ok,
        tuple(c for key, c in listed if key in bad_reduced),
        uniform_tested,
        torsion_ok,
        tuple(c for key, c in listed if key in bad_torsion),
    )


def conjecture_scan(family) -> ScanReport:
    """Bounded evidence scan over a family of clutters: packing clutters
    are tested for a reduced associated graded ring, and those with
    constant edge size d >= 2 for torsion-freeness too.  Counterexamples
    are collected, never hidden.  Packing forces integral vertices
    (Lehman), and an integral normal clutter has MFMC, so it is packing
    and reduced; the minor walk runs only on an integral clutter that is
    not normal, a counterexample exactly when it is packing.  Each fact
    is invariant under relabelling the vertices, so it is computed once
    per isomorphism class; every labelled clutter still counts and is
    listed."""
    keyed = [(_canonical_key(c), c) for c in family]
    classes = {}
    for key, c in keyed:
        facts, copies = classes.get(key) or (_scan_facts(c), 0)
        classes[key] = facts, copies + 1
    return _tally(classes, keyed)


def class_scan(max_vertices: int, max_edges: int) -> ScanReport:
    """conjecture_scan(enumerate_clutters(max_vertices, max_edges)) with
    one clutter analysed per isomorphism class, counted n!/|Aut| times,
    its labelled copies in the walk; only the families with non-increasing
    vertex degrees are keyed.  Only when a class is a counterexample does
    the labelled walk run again, keying each clutter, to list that class's
    members in walk order."""
    classes = {key: (_scan_facts(c), copies)
               for key, c, copies in _clutter_classes(max_vertices, max_edges)}
    return _tally(classes, ((_canonical_key(c), c)
                            for c in enumerate_clutters(max_vertices, max_edges)))
