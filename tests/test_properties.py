"""Randomized invariants over small instances, one property per test."""

from fractions import Fraction
from itertools import combinations, product
from unittest import mock

from hypothesis import given, settings, strategies as st

from mfmckit.clutters import (
    Clutter,
    ExponentMatrix,
    MinorSpec,
    clutter_from_edges,
    covering_number,
    enumerate_clutters,
    koenig,
    matching_number,
    minor,
    packing_property,
)
from mfmckit import cones, decisions
from mfmckit.cones import (
    attach_facets,
    cone_member,
    dualize,
    is_integral_qa,
    qa_vertices_direct,
    rees_cone,
    support_hyperplanes,
)
from mfmckit.hilbert import SmithInvariants, hilbert_basis, semigroup_member, smith_invariants
from mfmckit.ideals import closure_power, membership, ordinary_power, symbolic_power
from mfmckit.linalg import dot
from mfmckit.reporting import analyze, parse_input, report_from_json, report_to_json

from oracles import (
    basic_solution_vertices, brute_alpha0, brute_beta1, decomposes, full_power_ntf_check,
    slack_closure, tdi_integral_max, tuple_keyed_tdi_scan, unseeded_dd_steps,
    vertex_to_facet_normal)


@st.composite
def clutters(draw, max_n=4, max_q=4):
    n = draw(st.integers(2, max_n))
    pool = [frozenset(s) for r in range(1, n + 1)
            for s in combinations(range(n), r)]
    fam = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=max_q,
                        unique=True))
    minimal = [e for e in fam if not any(o < e for o in fam)]
    used = sorted(set().union(*minimal))
    remap = {v: i for i, v in enumerate(used)}
    return clutter_from_edges(
        len(used), [sorted(remap[v] for v in e) for e in minimal])


@st.composite
def matrices(draw, top=2):
    n = draw(st.integers(2, 3))
    col = st.tuples(*[st.integers(0, top)] * n).filter(any)
    cols = draw(st.lists(col, min_size=1, max_size=3, unique=True))
    # generating sets are divisibility antichains
    minimal = [c for c in cols
               if not any(o != c and all(a <= b for a, b in zip(o, c))
                          for o in cols)]
    return ExponentMatrix(tuple(minimal))


@settings(max_examples=40, deadline=None)
@given(clutters())
def test_dual_of_dual_restores_generators(c):
    cone = rees_cone(c.matrix).cone
    assert set(dualize(dualize(cone)).generators) == set(cone.generators)


@st.composite
def constraint_lists(draw):
    """A dimension up to 5 and non-zero integer constraints, led by unit
    vectors (possibly repeated, possibly none) drawn in any order."""
    dim = draw(st.integers(1, 5))
    units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    lead = draw(st.lists(st.sampled_from(units), max_size=dim + 1))
    vec = st.tuples(*[st.integers(-2, 2)] * dim).filter(any)
    return dim, lead + draw(st.lists(vec, min_size=1, max_size=6))


def _final_state(steps):
    for _, _, rays, lin in steps:
        pass
    return [(v, z) for v, z in rays], list(lin)


@settings(max_examples=200, deadline=None)
@given(constraint_lists())
def test_orthant_start_keeps_the_final_double_description(case):
    dim, constraints = case
    assert (_final_state(cones._dd_steps(constraints, dim))
            == _final_state(unseeded_dd_steps(constraints, dim)))


@settings(max_examples=40, deadline=None)
@given(clutters(), st.randoms(use_true_random=False))
def test_every_facet_is_needed(c, rng):
    cone = attach_facets(rees_cone(c.matrix).cone)
    f = rng.choice(cone.facets)
    tight = [g for g in cone.generators if dot(g, f) == 0]
    t = tuple(sum(col) for col in zip(*tight))
    others = [h for h in cone.facets if h != f]
    eps = min(Fraction(dot(t, h), 2 * max(1, abs(dot(f, h)))) for h in others)
    x = tuple(Fraction(a) - eps * b for a, b in zip(t, f))
    assert dot(x, f) < 0
    assert all(dot(x, h) >= 0 for h in others)


@settings(max_examples=25, deadline=None)
@given(clutters(max_n=3, max_q=3))
def test_hilbert_basis_generates_box_points(c):
    cone = attach_facets(rees_cone(c.matrix).cone)
    basis = hilbert_basis(c.matrix)
    for p in product(range(3), repeat=c.n + 1):
        if cone_member(p, cone):
            assert decomposes(p, basis)


@settings(max_examples=25, deadline=None)
@given(clutters(max_n=3, max_q=3))
def test_hilbert_basis_elements_are_irreducible(c):
    basis = hilbert_basis(c.matrix)
    for z in basis:
        assert not decomposes(z, [w for w in basis if w != z])


@settings(max_examples=40, deadline=None)
@given(clutters(), st.randoms(use_true_random=False))
def test_smith_factors_ignore_labelling(c, rng):
    cols = list(c.matrix.columns)
    rng.shuffle(cols)
    perm = list(range(c.n))
    rng.shuffle(perm)
    shuffled = ExponentMatrix(tuple(tuple(col[perm[i]] for i in range(c.n))
                                    for col in cols))
    assert smith_invariants(shuffled).factors == smith_invariants(c.matrix).factors


@settings(max_examples=50, deadline=None)
@given(clutters())
def test_covering_at_least_matching(c):
    a0, b1 = covering_number(c), matching_number(c)
    assert a0 >= b1
    assert a0 == brute_alpha0(c.n, c.edges)
    assert b1 == brute_beta1(c.edges)
    assert koenig(c) == (a0 == b1)


@settings(max_examples=40, deadline=None)
@given(clutters())
def test_packing_implies_koenig(c):
    holds, spec = packing_property(c)
    if holds:
        assert koenig(c)
    else:
        assert not koenig(minor(c, spec))


@settings(max_examples=40, deadline=None)
@given(clutters())
def test_identity_minor(c):
    assert minor(c, MinorSpec((), ())) == c


@settings(max_examples=30, deadline=None)
@given(clutters(max_n=3, max_q=3), st.data())
def test_semigroup_points_lie_in_cone(c, data):
    cone = attach_facets(rees_cone(c.matrix).cone)
    z = data.draw(st.tuples(*[st.integers(0, 3)] * (c.n + 1)))
    if semigroup_member(c.matrix, z):
        assert cone_member(z, cone)


@settings(max_examples=30, deadline=None)
@given(clutters(max_n=3, max_q=3), st.integers(1, 3))
def test_power_containments(c, i):
    clo = closure_power(c.matrix, i)
    sym = symbolic_power(c, i)
    for g in ordinary_power(c.matrix, i).gens:
        assert membership(g, clo)
    for g in clo.gens:
        assert membership(g, sym)


@settings(max_examples=60, deadline=None)
@given(clutters(max_n=5, max_q=5), st.integers(1, 4))
def test_ntf_check_names_the_least_symbolic_generator_outside_the_power(c, i_max):
    assert decisions.ntf_check(c, i_max) == full_power_ntf_check(c, i_max)


@settings(max_examples=30, deadline=None)
@given(matrices(), st.integers(1, 2))
def test_closure_absorbs_generator_products(m, i):
    clo = closure_power(m, i)
    nxt = closure_power(m, i + 1)
    for g in clo.gens:
        for col in m.columns:
            assert membership(tuple(a + b for a, b in zip(g, col)), nxt)


@settings(max_examples=60, deadline=None)
@given(matrices(top=3), st.integers(1, 3))
def test_closure_powers_match_the_slack_search(m, i):
    # read off the Hilbert basis against the slack search over the vertex
    # normals, the route it replaced; a lift-1 basis element need not be a
    # generator, as (1, 1, 1) is not for (x1^2, x2^2)
    assert closure_power(m, i).gens == slack_closure(m, i)


@settings(max_examples=60, deadline=None)
@given(matrices(top=3))
def test_direct_vertices_match_the_full_subset_oracle(m):
    # general exponents restrict to rows that repeat or lie above one
    # another on a support; only the minimal ones are solved there
    assert qa_vertices_direct(m).vertices == basic_solution_vertices(m.n, m.columns)


@settings(max_examples=30, deadline=None)
@given(clutters(max_n=3, max_q=3), st.data())
def test_no_negative_duality_gap(c, data):
    alpha = data.draw(st.tuples(*[st.integers(0, 2)] * c.n))
    rational = min(dot(alpha, v) for v in qa_vertices_direct(c.matrix).vertices)
    assert rational >= tdi_integral_max(c.matrix.columns, alpha)


@settings(max_examples=60, deadline=None)
@given(clutters(max_n=5, max_q=5), st.integers(1, 3))
def test_tdi_scan_matches_the_tuple_keyed_oracle_at_every_bound(c, bound):
    normals = support_hyperplanes(c.matrix).vertex_normals
    vertices = qa_vertices_direct(c.matrix).vertices
    checked, gap = tuple_keyed_tdi_scan(c.matrix.columns, normals, vertices, bound)
    expected = decisions.TdiReport(bound, checked, gap and decisions.TdiCounterexample(*gap))
    assert decisions.tdi_bounded_check(c, bound) == expected


@settings(max_examples=40, deadline=None)
@given(clutters())
def test_vertices_and_facets_are_two_views(c):
    fc = support_hyperplanes(c.matrix)
    verts = qa_vertices_direct(c.matrix).vertices
    assert {vertex_to_facet_normal(v) for v in verts} == set(fc.vertex_normals)


@settings(max_examples=60, deadline=None)
@given(clutters(max_n=5, max_q=5))
def test_integral_witness_is_the_least_fractional_basic_solution(c):
    oracle = is_integral_qa(c.matrix, qa_vertices_direct(c.matrix).vertices)
    assert is_integral_qa(c.matrix) == oracle
    verdict = decisions.decide_mfmc(c, i_max=2)
    assert (verdict.integral, verdict.witnesses.get("integral")) == oracle


@settings(max_examples=40, deadline=None)
@given(clutters())
def test_clutter_round_trip(c):
    rebuilt = clutter_from_edges(c.n, [list(e) for e in c.edges])
    assert rebuilt == c
    assert Clutter(c.matrix, c.labels) == c


def _as_text(c: Clutter, dialect: str) -> str:
    if dialect == "native":
        return "".join("edge " + " ".join(f"v{i + 1}" for i in e) + "\n"
                       for e in c.edges)
    rows = [" ".join(map(str, col)) for col in c.matrix.columns]
    return "\n".join([str(c.q), str(c.n), *rows, "3"]) + "\n"


@settings(max_examples=20, deadline=None)
@given(clutters(max_n=3, max_q=3), st.sampled_from(["native", "normaliz"]),
       st.integers(1, 2), st.integers(0, 1))
def test_report_json_round_trip(c, dialect, i_max, tdi_bound):
    doc = parse_input(_as_text(c, dialect))
    assert doc.source_format == dialect and doc.matrix == c.matrix
    report = analyze(doc, i_max=i_max, tdi_bound=tdi_bound)
    assert report_from_json(report_to_json(report)) == report


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.sampled_from([None, 0, 1]),
       st.sampled_from([None, 0, 1, 2]))
def test_class_scan_reports_what_the_labelled_scan_does(max_vertices, max_edges,
                                                        torsion, abnormal):
    # the facts may be made to fail for whole classes, by edge count (which
    # relabelling keeps): torsion when q % 2 == torsion, a non-normal Rees
    # algebra when q % 3 == abnormal; the class scan then lists every member
    # of the failing classes, in walk order
    is_normal, smith = decisions.is_normal, decisions.smith_invariants
    with mock.patch.object(decisions, "smith_invariants",
                           lambda m: SmithInvariants((2,), 1, False)
                           if m.q % 2 == torsion else smith(m)), \
            mock.patch.object(decisions, "is_normal",
                              lambda m, basis: (False, None)
                              if m.q % 3 == abnormal else is_normal(m, basis)):
        assert (decisions.class_scan(max_vertices, max_edges)
                == decisions.conjecture_scan(enumerate_clutters(max_vertices, max_edges)))
