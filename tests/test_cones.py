import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from mfmckit import cones
from mfmckit.clutters import ExponentMatrix
from mfmckit.cones import (
    FacetClassification,
    RationalCone,
    attach_facets,
    cone_member,
    dualize,
    facet_normals,
    is_integral_qa,
    qa_vertices_direct,
    qa_vertices_via_rees,
    rees_cone,
    support_hyperplanes,
)
from mfmckit.errors import ClassificationError, SizeLimit, ZeroCone
from mfmckit.linalg import dot

from oracles import (
    basic_solution_vertices,
    brute_facets,
    frac_rank,
    random_clutters,
    random_exponent_matrices,
    unseeded_dd_steps,
    vertex_to_facet_normal,
)

TRIANGLE_FACETS = {
    (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
    (1, 1, 0, -1), (1, 0, 1, -1), (0, 1, 1, -1), (1, 1, 1, -2),
}

REFERENCE_HYPERPLANES = {
    (0, 0, 1, 1, 1, -1),
    (1, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 1),
    (0, 0, 1, 0, 0, 0),
    (1, 0, 0, 1, 0, -1),
    (0, 1, 0, 0, 1, -1),
    (0, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 0),
    (1, 1, 1, 0, 0, -1),
}


# ---------------------------------------------------------------- dualize


def test_dualize_two_dim_wedge():
    dual = dualize(RationalCone(2, ((1, 0), (1, 1))))
    assert dual.generators == ((0, 1), (1, -1))


def test_rational_cone_rejects_non_integer_generators():
    # int() read (0.5, 1) as (0, 1); True still reads as 1
    with pytest.raises(TypeError):
        RationalCone(2, ((0.5, 1),))
    assert RationalCone(2, ((True, 2),)).generators == ((1, 2),)


def test_dualize_rejects_zero_cone():
    with pytest.raises(ZeroCone):
        dualize(RationalCone(2, ()))
    with pytest.raises(ZeroCone):
        dualize(RationalCone(3, ((0, 0, 0),)))


def test_dualize_halfplane_has_lineality_pair():
    # the x-axis line dualizes to the y-axis line
    dual = dualize(RationalCone(2, ((1, 0), (-1, 0))))
    assert dual.generators == ((0, -1), (0, 1))


def test_facet_normals_requires_full_dimension():
    with pytest.raises(ClassificationError):
        facet_normals(RationalCone(2, ((1, 0), (-1, 0))))


def test_dualize_involution_on_fixtures(reference_matrix, triangle, two_star):
    cones = [
        RationalCone(2, ((1, 0), (1, 1))),
        RationalCone(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
        rees_cone(reference_matrix).cone,
        rees_cone(triangle.matrix).cone,
        rees_cone(two_star.matrix).cone,
    ]
    for cone in cones:
        double = dualize(dualize(cone))
        original = attach_facets(cone)
        back = attach_facets(double)
        assert all(cone_member(g, original) for g in double.generators)
        assert all(cone_member(g, back) for g in cone.generators)


def test_facets_match_subset_search(reference_matrix, triangle, two_star,
                                    squares_matrix, mixed_pair_matrix, random100):
    matrices = [reference_matrix, triangle.matrix, two_star.matrix,
                squares_matrix, mixed_pair_matrix]
    matrices += [c.matrix for c in random100[:15]]
    matrices += random_exponent_matrices(150)
    for m in matrices:
        cone = rees_cone(m).cone
        assert set(facet_normals(cone)) == brute_facets(cone.generators, cone.dim)


# ---------------------------------------------------------------- rees cone


def test_rees_cone_reference(reference_matrix):
    rc = rees_cone(reference_matrix)
    assert rc.cone.dim == 6
    assert len(rc.cone.generators) == 9
    assert rc.coordinate_facet_indices == frozenset(range(6))
    assert frac_rank(list(rc.cone.generators)) == 6


def test_rees_cone_single_variable():
    rc = rees_cone(ExponentMatrix(((1,),)))
    assert rc.cone.generators == ((1, 0), (1, 1))
    assert rc.coordinate_facet_indices == frozenset({1})


def test_rees_cone_positive_row_drops_axis(two_star):
    # vertex 0 sits in every edge, so its axis is not a facet candidate
    rc = rees_cone(two_star.matrix)
    assert rc.coordinate_facet_indices == frozenset({1, 2, 3})


def test_rees_cone_dimension(random100):
    for c in random100[:20]:
        rc = rees_cone(c.matrix)
        assert frac_rank(list(rc.cone.generators)) == c.n + 1


# ---------------------------------------------------------------- facets


def test_support_hyperplanes_reference(reference_matrix):
    fc = support_hyperplanes(reference_matrix)
    assert fc.coordinate_indices == tuple(range(6))
    assert set(fc.vertex_normals) == {
        (0, 0, 1, 1, 1, -1), (1, 0, 0, 1, 0, -1),
        (0, 1, 0, 0, 1, -1), (1, 1, 1, 0, 0, -1),
    }
    assert set(fc.all_rows()) == REFERENCE_HYPERPLANES
    assert len(fc.all_rows()) == 10


def test_support_hyperplanes_triangle(triangle):
    fc = support_hyperplanes(triangle.matrix)
    assert set(fc.all_rows()) == TRIANGLE_FACETS
    assert (1, 1, 1, -2) in fc.vertex_normals


def test_support_hyperplanes_single_variable():
    fc = support_hyperplanes(ExponentMatrix(((1,),)))
    assert fc.coordinate_indices == (1,)
    assert fc.vertex_normals == ((1, -1),)


def test_unit_rows_shape(reference_matrix):
    fc = support_hyperplanes(reference_matrix)
    units = fc.unit_rows()
    assert all(sum(u) == 1 for u in units)
    assert len(units) == 6


# ---------------------------------------------------------------- vertices


def test_qa_vertices_reference(reference_matrix):
    qa = qa_vertices_direct(reference_matrix)
    assert qa.vertices == tuple(sorted([
        tuple(map(Fraction, v)) for v in
        [(0, 0, 1, 1, 1), (1, 0, 0, 1, 0), (0, 1, 0, 0, 1), (1, 1, 1, 0, 0)]
    ]))


def test_qa_vertices_triangle(triangle):
    qa = qa_vertices_direct(triangle.matrix)
    half = Fraction(1, 2)
    assert set(qa.vertices) == {
        (Fraction(1), Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(1)),
        (half, half, half),
    }


def test_qa_vertices_two_star(two_star):
    qa = qa_vertices_direct(two_star.matrix)
    assert set(qa.vertices) == {
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(1)),
    }


def test_qa_vertices_single_variable():
    qa = qa_vertices_direct(ExponentMatrix(((1,),)))
    assert qa.vertices == ((Fraction(1),),)


def test_positive_row_vertex(random100):
    # a strictly positive row of the matrix puts e_i / k among the
    # vertices, k the row minimum
    for c in random100:
        verts = set(qa_vertices_direct(c.matrix).vertices)
        for i in range(c.n):
            row = c.matrix.row(i)
            if all(x > 0 for x in row):
                k = min(row)
                expected = tuple(
                    Fraction(1, k) if j == i else Fraction(0) for j in range(c.n))
                assert expected in verts


def test_both_vertex_routes_agree(reference_matrix, triangle, two_star, random100,
                                  squares_matrix, mixed_pair_matrix):
    mats = [reference_matrix, triangle.matrix, two_star.matrix,
            squares_matrix, mixed_pair_matrix]
    mats += [c.matrix for c in random100[:25]]
    # seeded non-0/1 inputs, as the vertices subcommand accepts them
    rng = random.Random(7)
    while len(mats) < 45:
        n = rng.randint(2, 4)
        cols = {tuple(rng.randint(0, 3) for _ in range(n))
                for _ in range(rng.randint(1, 4))}
        cols = [c for c in cols if any(c) and not any(
            o != c and all(a <= b for a, b in zip(o, c)) for o in cols)]
        if cols and all(any(c[k] for c in cols) for k in range(n)):
            mats.append(ExponentMatrix(tuple(cols)))
    for m in mats:
        assert qa_vertices_direct(m).vertices == qa_vertices_via_rees(m).vertices


def test_reduced_systems_match_the_full_subset_oracle(random100):
    # each support T is solved as the k x k system on its edge rows
    mats = [c.matrix for c in random100] + random_exponent_matrices(150)
    for m in mats:
        assert qa_vertices_direct(m).vertices == basic_solution_vertices(m.n, m.columns)


def test_vertex_lists_are_in_the_order_of_their_fractions(random100):
    # both routes sort by the integer vectors L * v, L the lcm of the
    # denominators, which order the vertices as their Fraction tuples do
    mats = [c.matrix for c in random100] + random_exponent_matrices(150)
    for m in mats:
        for vertices in (qa_vertices_direct(m).vertices, qa_vertices_via_rees(m).vertices):
            assert vertices == tuple(sorted(vertices))
    assert cones._sorted_fractions([(3, 1, 0), (1, 0, 1), (2, 1, 1), (6, 1, 5)]) == (
        (0, 1), (Fraction(1, 6), Fraction(5, 6)), (Fraction(1, 3), 0),
        (Fraction(1, 2), Fraction(1, 2)))


def test_no_edges_gives_the_origin():
    # q = 0 reaches only k = 0: the empty system, solved by x = 0
    m = SimpleNamespace(n=3, q=0, columns=())
    assert qa_vertices_direct(m).vertices == ((Fraction(0),) * 3,)
    assert basic_solution_vertices(3, ()) == ((Fraction(0),) * 3,)


def test_vertex_routes_agree_on_larger_clutters():
    for c in random_clutters(count=30, seed=1, max_n=8, max_q=10):
        m = c.matrix
        assert qa_vertices_direct(m).vertices == support_hyperplanes(m).qa_vertices()


def test_qa_vertices_cap(reference_matrix, monkeypatch):
    monkeypatch.setattr(cones, "QA_ENUM_CAP", 10)
    with pytest.raises(SizeLimit):
        qa_vertices_direct(reference_matrix)


def test_ray_cap_stops_the_step_that_passes_it(reference_matrix, monkeypatch):
    # the reference cone's seventh step takes its rays from 6 to 10: the cap
    # fires at the first ray past it, before the step ends
    monkeypatch.setattr(cones, "RAY_CAP", 6)
    with pytest.raises(SizeLimit) as exc:
        support_hyperplanes(reference_matrix)
    assert (exc.value.stage, exc.value.needed, exc.value.cap) == ("double description", 7, 6)


def test_ray_cap_binds_during_the_unit_vector_prefix(monkeypatch):
    # five leading unit vectors make five rays; with the cap at 3 both
    # passes yield three steps and stop at the fourth ray
    gens = [tuple(int(i == j) for j in range(6)) for i in range(5)] + [(1,) * 6]
    monkeypatch.setattr(cones, "RAY_CAP", 3)
    outcomes = []
    for steps in (cones._dd_steps(gens, 6), unseeded_dd_steps(gens, 6, cap=3)):
        done = []
        with pytest.raises(SizeLimit) as exc:
            for step in steps:
                done.append(step)
        outcomes.append((len(done), str(exc.value)))
    assert outcomes[0] == outcomes[1] == (
        3, "double description: needs 4 states, cap is 3")


def test_one_wide_edge_takes_linearly_many_dot_products(monkeypatch):
    # the n unit vectors lead the Rees cone's insertion order, so only the
    # lifted edge is paired with the rays and the lineality basis; the
    # unseeded pass pairs each unit vector with all of them, ~n^2 in all
    n, calls = 300, 0

    def counted(u, v):
        nonlocal calls
        calls += 1
        return dot(u, v)

    monkeypatch.setattr(cones, "dot", counted)
    facets = support_hyperplanes(ExponentMatrix(((1,) * n,)))
    assert calls <= 3 * (n + 1)
    assert facets.coordinate_indices == (n,)
    assert facets.vertex_normals == tuple(
        tuple(int(i == j) for j in range(n)) + (-1,) for i in reversed(range(n)))


def test_is_integral(reference_matrix, triangle):
    assert is_integral_qa(reference_matrix) == (True, None)
    ok, witness = is_integral_qa(triangle.matrix)
    assert not ok
    assert witness == (Fraction(1, 2),) * 3
    assert is_integral_qa(ExponentMatrix(((1,),))) == (True, None)


@pytest.mark.parametrize("family", ["random100", "general"])
def test_least_fractional_vertex_is_the_oracle_witness(family, random100):
    # read off the vertex normals, the witness is the first fractional entry
    # of the sorted basic-solution vertices, on 0/1 and on general matrices
    mats = ([c.matrix for c in random100] if family == "random100"
            else random_exponent_matrices(150, seed=20261018))
    found = [is_integral_qa(m) for m in mats]
    assert found == [is_integral_qa(m, qa_vertices_direct(m).vertices) for m in mats]
    # some witness sorts after an integral vertex, and some polyhedra have
    # fractional entries of two denominators, which the scaled keys order
    fractional = [(support_hyperplanes(m), w) for m, (ok, w) in zip(mats, found) if not ok]
    assert any(fc.qa_vertices()[0] != w for fc, w in fractional)
    assert any(len({x.denominator for v in fc.qa_vertices() for x in v} - {1}) > 1
               for fc, _ in fractional)


def test_vertex_to_facet_normal():
    half = Fraction(1, 2)
    assert vertex_to_facet_normal((half, half, half)) == (1, 1, 1, -2)
    assert vertex_to_facet_normal((Fraction(1), Fraction(0))) == (1, 0, -1)


def test_vertex_facet_bijection(random100):
    for c in random100[:30]:
        fc = support_hyperplanes(c.matrix)
        rebuilt = {vertex_to_facet_normal(v)
                   for v in qa_vertices_direct(c.matrix).vertices}
        assert rebuilt == set(fc.vertex_normals)


# ---------------------------------------------------------------- membership


def test_cone_member_examples(reference_matrix, triangle):
    tri = attach_facets(rees_cone(triangle.matrix).cone)
    assert not cone_member((1, 1, 1, 2), tri)  # fails the depth-two facet
    assert cone_member((1, 1, 1, 1), tri)
    big = attach_facets(rees_cone(reference_matrix).cone)
    assert cone_member((1, 0, 0, 0, 1, 1), big)
    assert cone_member((0,) * 6, big)
    assert not cone_member((0, 0, 0, 0, 0, -1), big)


def test_cone_member_requires_facets(triangle):
    with pytest.raises(ValueError):
        cone_member((0, 0, 0, 0), rees_cone(triangle.matrix).cone)


# ---------------------------------------------------------------- facet quality


def _irreducibility_witness(facets, gens, f):
    """A point violating f but satisfying every other facet."""
    tight = [g for g in gens if dot(g, f) == 0]
    t = tuple(sum(col) for col in zip(*tight))
    others = [h for h in facets if h != f]
    eps = min(Fraction(dot(t, h), 2 * max(1, abs(dot(f, h)))) for h in others)
    assert eps > 0
    return tuple(Fraction(x) - eps * y for x, y in zip(t, f))


def test_facets_are_irreducible(reference_matrix, triangle, two_star, random100):
    mats = [reference_matrix, triangle.matrix, two_star.matrix]
    mats += [c.matrix for c in random100[:10]]
    for m in mats:
        cone = attach_facets(rees_cone(m).cone)
        for f in cone.facets:
            x = _irreducibility_witness(cone.facets, cone.generators, f)
            assert dot(x, f) < 0
            assert all(dot(x, h) >= 0 for h in cone.facets if h != f)


def test_facet_normals_are_primitive(random100):
    from math import gcd
    for c in random100[:30]:
        for f in facet_normals(rees_cone(c.matrix).cone):
            g = 0
            for x in f:
                g = gcd(g, abs(x))
            assert g == 1


def test_generators_satisfy_facets(random100):
    for c in random100[:30]:
        cone = attach_facets(rees_cone(c.matrix).cone)
        for g in cone.generators:
            assert cone_member(g, cone)
