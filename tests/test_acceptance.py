"""End-to-end acceptance gate: one test per shipping criterion.

Each test records a PASS/FAIL line (echoed after the run by conftest)
and then asserts.  Criterion 2's torsion clause asserts the order-two
torsion class of the worked example's lifted column lattice (invariant
factors (1, 1, 1, 2)) and certifies it against the determinantal-divisor
oracle and an exact rational solve, not against the program's own output.
"""

import time
from fractions import Fraction
from itertools import combinations, product

from mfmckit.clutters import (
    covering_number,
    enumerate_clutters,
    matching_number,
    packing_property,
)
from mfmckit.cones import (
    attach_facets,
    cone_member,
    dualize,
    facet_normals,
    qa_vertices_direct,
    rees_cone,
    support_hyperplanes,
)
from mfmckit.decisions import (
    conjecture_scan,
    decide_mfmc,
    integrality_equivalences,
    ntf_check,
    tdi_bounded_check,
)
from mfmckit.hilbert import hilbert_basis, is_normal, smith_invariants

from conftest import ACCEPTANCE_LINES
from oracles import (
    decomposes, frac_rank, frac_solve, snf_by_minors, vertex_to_facet_normal)

# published output block for I = (x1x5, x2x4, x3x4x5, x1x2x3)
REFERENCE_BASIS = {
    (1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 1, 0),
    (1, 0, 0, 0, 1, 1),
    (0, 1, 0, 1, 0, 1),
    (0, 0, 1, 1, 1, 1),
    (1, 1, 1, 0, 0, 1),
}

REFERENCE_HYPERPLANES = {
    (0, 0, 1, 1, 1, -1),
    (1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 1),
    (0, 0, 1, 0, 0, 0),
    (1, 0, 0, 1, 0, -1),
    (0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 1, 0),
    (0, 1, 0, 0, 1, -1),
    (1, 1, 1, 0, 0, -1),
}


def record(num, ok, detail):
    ACCEPTANCE_LINES.append(
        f"criterion {num}: {'PASS' if ok else 'FAIL'}  {detail}")


def test_criterion_01_reference_example_reproduction(reference_matrix):
    t0 = time.monotonic()
    basis = set(hilbert_basis(reference_matrix))
    hyperplanes = set(support_hyperplanes(reference_matrix).all_rows())
    elapsed = time.monotonic() - t0
    ok = (basis == REFERENCE_BASIS
          and hyperplanes == REFERENCE_HYPERPLANES
          and elapsed < 1.0)
    record(1, ok, f"basis and hyperplanes reproduced exactly ({elapsed:.2f}s)")
    assert basis == REFERENCE_BASIS
    assert hyperplanes == REFERENCE_HYPERPLANES
    assert elapsed < 1.0


def test_criterion_02_reference_example_verdict(reference_clutter):
    t0 = time.monotonic()
    v = decide_mfmc(reference_clutter)
    a0, b1 = covering_number(reference_clutter), matching_number(reference_clutter)
    factors = smith_invariants(reference_clutter.matrix).factors
    elapsed = time.monotonic() - t0
    rest_ok = (v.normal and v.integral and v.mfmc and v.koenig
               and a0 == b1 == 2 and v.packing and elapsed < 5.0)

    # Certificate for the torsion class of Z^6 / <(v_j, 1)>.  The
    # t-coordinate alone only forces sum_j c_j = 2; uniqueness comes from
    # the lifted columns being linearly independent (rank 4), so
    # sum_j c_j (v_j, 1) = z has at most one rational solution.  For
    # z = (1,1,1,1,1,2) it is c_j = 1/2 for every j, hence 2z is in the
    # column lattice and z is not.
    lifted = [c + (1,) for c in reference_clutter.matrix.columns]
    lifted_rows = [tuple(c[i] for c in lifted) for i in range(len(lifted[0]))]
    z = (1, 1, 1, 1, 1, 2)
    square = next(rs for rs in combinations(range(len(lifted_rows)), 4)
                  if frac_rank([lifted_rows[i] for i in rs]) == 4)
    coeffs = frac_solve([lifted_rows[i] for i in square],
                        [z[i] for i in square])
    rank = frac_rank(lifted_rows)
    oracle = snf_by_minors(lifted_rows)
    solves = all(sum(c * x for c, x in zip(coeffs, row)) == zi
                 for row, zi in zip(lifted_rows, z))
    torsion_ok = (not v.torsion_free
                  and v.witnesses.get("torsion_free") == (1, 1, 1, 2)
                  and factors == oracle == (1, 1, 1, 2)
                  and rank == 4
                  and coeffs == (Fraction(1, 2),) * 4 and solves)
    record(2, rest_ok and torsion_ok,
           "normal/integral/mfmc/koenig/packing hold, order-two torsion "
           f"class: invariant factors {factors} ({elapsed:.2f}s)")
    assert rest_ok
    assert torsion_ok, (
        "expected the order-two torsion class of the lifted column lattice: "
        f"torsion_free={v.torsion_free}, "
        f"witness={v.witnesses.get('torsion_free')}, factors={factors}, "
        f"oracle factors={oracle}, rank={rank}, "
        f"coefficients for z={z}: {coeffs} (solve full system: {solves})")


def test_criterion_03_triangle_suite(triangle):
    t0 = time.monotonic()
    vertices = qa_vertices_direct(triangle.matrix).vertices
    fractional = [v for v in vertices
                  if any(x.denominator != 1 for x in map(Fraction, v))]
    v = decide_mfmc(triangle)
    ntf = ntf_check(triangle)
    tdi = tdi_bounded_check(triangle, 1)
    elapsed = time.monotonic() - t0
    ok = (fractional == [(Fraction(1, 2),) * 3]
          and not v.mfmc and v.normal
          and ntf == ntf_check(triangle)  # determinism
          and (ntf.failed_i, ntf.witness) == (2, (1, 1, 1))
          and tdi.counterexample is not None
          and tdi.counterexample.alpha == (1, 1, 1)
          and tdi.counterexample.rational_value == Fraction(3, 2)
          and tdi.counterexample.integral_value == 1
          and elapsed < 1.0)
    record(3, ok, f"fractional vertex, ntf and tdi witnesses exact ({elapsed:.2f}s)")
    assert ok


def test_criterion_04_facet_classification_cross_validation(random100):
    t0 = time.monotonic()
    mismatches = 0
    for c in random100:
        m = c.matrix
        computed = set(facet_normals(rees_cone(m).cone))
        units = {tuple(int(i == j) for j in range(m.n + 1))
                 for i in rees_cone(m).coordinate_facet_indices}
        from_vertices = {vertex_to_facet_normal(v)
                         for v in qa_vertices_direct(m).vertices}
        if computed != units | from_vertices:
            mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 60.0
    record(4, ok, f"dual facets vs basic-solution vertices on 100 instances, "
                  f"{mismatches} mismatches ({elapsed:.2f}s)")
    assert ok


def test_criterion_05_integrality_readings_agree(random100, reference_clutter,
                                                 triangle, single_edge, two_star):
    t0 = time.monotonic()
    violations = 0
    for c in list(random100) + [reference_clutter, triangle, single_edge, two_star]:
        rep = integrality_equivalences(c, i_max=3)  # raises on any a/b or a/c split
        if rep.a_integral != rep.b_cover_facets:
            violations += 1
        if rep.a_integral and not rep.c_all:
            violations += 1
        if not rep.a_integral and rep.b_cover_facets:
            violations += 1
    elapsed = time.monotonic() - t0
    ok = violations == 0
    record(5, ok, f"vertex/facet/power readings agree on 104 instances "
                  f"({elapsed:.2f}s)")
    assert ok


def test_criterion_06_mfmc_consequences(random100, reference_clutter, triangle):
    t0 = time.monotonic()
    violations = 0
    for c in list(random100) + [reference_clutter, triangle]:
        mfmc = decide_mfmc(c, i_max=3).mfmc
        ntf = ntf_check(c, i_max=3)
        tdi = tdi_bounded_check(c, 2)
        # "counterexample found implies not mfmc" is the contrapositive
        if mfmc and (not ntf.ok or tdi.counterexample is not None):
            violations += 1
    elapsed = time.monotonic() - t0
    ok = violations == 0
    record(6, ok, f"mfmc forces clean ntf and bounded tdi on 102 instances "
                  f"({elapsed:.2f}s)")
    assert ok


def test_criterion_07_involution_and_completeness(random100):
    t0 = time.monotonic()
    violations = 0
    for c in random100:
        cone = rees_cone(c.matrix).cone
        double = dualize(dualize(cone))
        with_facets = attach_facets(cone)
        double_with = attach_facets(double)
        if not all(cone_member(g, with_facets) for g in double.generators):
            violations += 1
        if not all(cone_member(g, double_with) for g in cone.generators):
            violations += 1
    for c in random100:
        if c.n + 1 > 5:
            continue
        cone = attach_facets(rees_cone(c.matrix).cone)
        basis = hilbert_basis(c.matrix)
        for p in product(range(4), repeat=c.n + 1):
            if p[-1] <= 3 and cone_member(p, cone):
                if not decomposes(p, basis):
                    violations += 1
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 120.0
    record(7, ok, f"duality involution and lattice-point completeness, "
                  f"{violations} violations ({elapsed:.2f}s)")
    assert ok


def test_criterion_08_bounded_conjecture_scan():
    t0 = time.monotonic()
    family = list(enumerate_clutters(4, 4))
    rep = conjecture_scan(family)
    elapsed = time.monotonic() - t0
    ok = (rep.clean and rep.total == len(family) and rep.packing_true > 0
          and rep.uniform_tested > 0)
    record(8, ok, f"{rep.total} clutters scanned, "
                  f"{rep.packing_true} packing, "
                  f"{rep.uniform_tested} uniform, no counterexamples "
                  f"({elapsed:.2f}s)")
    assert ok
    # sanity on the direction of the evidence, not a proof of anything
    for c in family:
        holds, _ = packing_property(c)
        if holds:
            assert is_normal(c.matrix)[0] == decide_mfmc(c, i_max=1).normal