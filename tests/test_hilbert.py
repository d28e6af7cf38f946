from collections import Counter
from itertools import combinations, product
from types import SimpleNamespace

import pytest

from mfmckit import cones, hilbert
from mfmckit.clutters import ExponentMatrix, clutter_from_edges, enumerate_clutters
from mfmckit.cones import (
    _insertion_order, attach_facets, cone_member, facet_normals, rees_cone)
from mfmckit.errors import InconsistencyError, SizeLimit
from mfmckit.hilbert import (
    _parallelepiped_points, _placing_triangulation, basis_and_facets,
    hilbert_basis, is_normal, semigroup_member, smith_invariants)
from mfmckit.linalg import dot

from oracles import (
    decomposes, frac_det, monoid_member, parallelepiped_points,
    placing_triangulation, random_exponent_matrices, snf_by_minors,
    unseeded_dd_steps)

REFERENCE_BASIS = (
    (0, 0, 0, 0, 1, 0), (0, 0, 0, 1, 0, 0), (0, 0, 1, 0, 0, 0),
    (0, 0, 1, 1, 1, 1), (0, 1, 0, 0, 0, 0), (0, 1, 0, 1, 0, 1),
    (1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 1, 1), (1, 1, 1, 0, 0, 1),
)


FANO = ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6),
        (2, 4, 5))

# cycles, circulants C_n^3, complete graphs and the Fano plane
TRIANGULATION_CORPUS = {
    **{f"c{n}": (n, [(i, (i + 1) % n) for i in range(n)]) for n in range(9, 13)},
    **{f"circ{n}_3": (n, [tuple(sorted((i + j) % n for j in range(3)))
                          for i in range(n)]) for n in range(9, 12)},
    **{f"k{n}": (n, list(combinations(range(n), 2))) for n in range(5, 8)},
    "fano": (7, FANO),
}


def _lifted_rows(m):
    rows = [m.row(i) for i in range(m.n)]
    rows.append((1,) * m.q)
    return rows


# ---------------------------------------------------------------- triangulation


def assert_triangulation_matches_oracle(m):
    cone = rees_cone(m).cone
    gens = _insertion_order(cone.generators)
    volumes, facets = _placing_triangulation(gens, cone.dim)
    members = {frozenset(g for i, g in enumerate(gens) if s >> i & 1): volume
               for s, volume in volumes.items()}
    expected = placing_triangulation(gens, cone.dim)
    assert len(members) == len(expected)
    assert set(members) == {frozenset(s) for s in expected}
    # a Rees cone's first simplex is unimodular: relative volumes are |det|s
    for simplex, volume in members.items():
        assert volume == abs(frac_det(list(simplex)))
    assert facets == facet_normals(cone)
    return volumes


@pytest.mark.parametrize("name", TRIANGULATION_CORPUS)
def test_triangulation_matches_the_oracle(name):
    n, edges = TRIANGULATION_CORPUS[name]
    assert_triangulation_matches_oracle(clutter_from_edges(n, edges).matrix)


def test_triangulation_matches_the_oracle_on_random100(random100):
    for c in random100:
        assert_triangulation_matches_oracle(c.matrix)


def test_triangulation_matches_the_oracle_on_general_matrices():
    volumes = [volume for m in random_exponent_matrices(150, seed=20261018)
               for volume in assert_triangulation_matches_oracle(m).values()]
    # the non-unimodular branch is exercised
    assert sum(volume > 1 for volume in volumes) == 49


def test_placing_step_inside_a_proper_subspace():
    # (1,1,0) lies in the span of the first two, which is not yet all of
    # Q^3; a Rees cone's first n+1 insertions span the space, so this is
    # an internal invariant
    for gens in ([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)],
                 [(1, 0, 0), (0, 1, 0), (1, 1, 0)]):
        with pytest.raises(InconsistencyError,
                           match="placing step inside a proper subspace"):
            _placing_triangulation(gens, 3)


def test_hilbert_basis_makes_one_dd_pass(monkeypatch, random100):
    calls = Counter()
    for mod in (cones, hilbert):
        for name in ("_dd_steps", "facet_normals"):
            original = getattr(mod, name, None)
            if original is None:
                continue

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(mod, name, counted)
    for k, c in enumerate(random100[:10], start=1):
        hilbert_basis(c.matrix)
        assert calls == {"_dd_steps": k}


# ---------------------------------------------------------------- orthant start


def _unit_prefix(gens):
    """Length of the leading run of distinct unit vectors."""
    run = []
    for g in gens:
        if sorted(g) != [0] * (len(g) - 1) + [1] or g in run:
            break
        run.append(g)
    return len(run)


def _states(steps):
    """Each step's raised flag, cut rays with their pairings, rays and
    lineality basis, copied as they are yielded."""
    return [(raised, [((v, z), p) for (v, z), p in cut],
             [(v, z) for v, z in rays], list(lin))
            for raised, cut, rays, lin in steps]


def assert_seeded_pass_matches_unseeded(gens, dim):
    seeded = _states(cones._dd_steps(gens, dim))
    unseeded = _states(unseeded_dd_steps(gens, dim))
    k = _unit_prefix(gens)
    assert len(seeded) == len(unseeded) == len(gens)
    assert [s[:2] for s in seeded] == [u[:2] for u in unseeded]
    assert seeded[k:] == unseeded[k:]
    # during the prefix the yielded lists are already the post-prefix ones
    for s in seeded[:k]:
        assert s[2:] == unseeded[k - 1][2:]
    return k


def assert_orthant_start_changes_nothing(m, monkeypatch):
    rc = rees_cone(m)
    gens = _insertion_order(rc.cone.generators)
    # a Rees cone's insertion order starts with its n unit vectors
    assert assert_seeded_pass_matches_unseeded(gens, rc.cone.dim) == m.n

    def results():
        return (_placing_triangulation(gens, rc.cone.dim), basis_and_facets(rc),
                facet_normals(rc.cone))

    seeded = results()
    with monkeypatch.context() as mp:
        mp.setattr(cones, "_dd_steps", unseeded_dd_steps)
        mp.setattr(hilbert, "_dd_steps", unseeded_dd_steps)
        assert results() == seeded


ORTHANT_FAMILIES = {
    "random100": lambda fx: [c.matrix for c in fx("random100")],
    "corpus": lambda fx: [clutter_from_edges(n, edges).matrix
                          for n, edges in TRIANGULATION_CORPUS.values()],
    "general": lambda fx: random_exponent_matrices(150, seed=20261018),
    "scan4x4": lambda fx: [c.matrix for c in enumerate_clutters(4, 4)],
    "scan5x3": lambda fx: [c.matrix for c in enumerate_clutters(5, 3)],
}


@pytest.mark.parametrize("family", ORTHANT_FAMILIES)
def test_orthant_start_matches_the_unseeded_pass(request, monkeypatch, family):
    for m in ORTHANT_FAMILIES[family](request.getfixturevalue):
        assert_orthant_start_changes_nothing(m, monkeypatch)


# constraint lists that do not start with a run of distinct unit vectors,
# or leave it early, with the length of the run the seeded pass skips
OFF_ORTHANT_LISTS = {
    "repeated_unit": ([(1, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)], 1),
    "unit_after_non_unit": ([(1, 1, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 0),
    "proper_subspace_then_unit": ([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)], 2),
    "proper_subspace": ([(1, 0, 0), (0, 1, 0), (1, 1, 0)], 2),
    "negative_unit": ([(-1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1)], 0),
    "no_unit": ([(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)], 0),
    "units_out_of_order": ([(0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 1)], 3),
    "all_units_then_mixed": ([(0, 1), (1, 0), (1, -1), (2, 3)], 2),
    "one_dimension": ([(1,), (2,), (-1,)], 1),
}


@pytest.mark.parametrize("name", OFF_ORTHANT_LISTS)
def test_orthant_start_off_the_orthant(name):
    gens, run = OFF_ORTHANT_LISTS[name]
    assert assert_seeded_pass_matches_unseeded(gens, len(gens[0])) == run


# ---------------------------------------------------------------- parallelepipeds


def _simplices(m):
    """(members, volume) of each simplex of m's placing triangulation."""
    cone = rees_cone(m).cone
    gens = _insertion_order(cone.generators)
    volumes, _ = _placing_triangulation(gens, cone.dim)
    return [([g for i, g in enumerate(gens) if s >> i & 1], volume)
            for s, volume in volumes.items()]


PARALLELEPIPED_FAMILIES = {
    "fano": lambda fx: [clutter_from_edges(7, FANO).matrix],
    "general": lambda fx: random_exponent_matrices(150, seed=20261018),
    "random100": lambda fx: [c.matrix for c in fx("random100")],
}


@pytest.mark.parametrize("family", PARALLELEPIPED_FAMILIES)
def test_parallelepiped_points_match_the_oracle(request, family):
    checked = 0
    for m in PARALLELEPIPED_FAMILIES[family](request.getfixturevalue):
        for members, volume in _simplices(m):
            if volume > 1:
                points = _parallelepiped_points(members, volume)
                assert len(points) == volume - 1
                assert set(points) == parallelepiped_points(members)
                checked += 1
    # every simplex of random100 is unimodular
    assert checked == {"fano": 14, "general": 49, "random100": 0}[family]


def test_parallelepiped_rejects_a_wrong_volume(squares_matrix):
    (members, volume), = [(s, v) for s, v in _simplices(squares_matrix) if v > 1]
    assert volume == 2
    for wrong in (1, 3, 4):
        with pytest.raises(InconsistencyError, match="group has order 2"):
            _parallelepiped_points(members, wrong)


# ---------------------------------------------------------------- basis


def test_basis_reference(reference_matrix):
    # normal case: the basis is exactly the cone generator list
    hb = hilbert_basis(reference_matrix)
    assert hb == REFERENCE_BASIS
    assert set(hb) == set(rees_cone(reference_matrix).cone.generators)


def test_basis_triangle(triangle):
    hb = hilbert_basis(triangle.matrix)
    assert len(hb) == 6
    assert set(hb) == set(rees_cone(triangle.matrix).cone.generators)


def test_basis_single_variable():
    assert hilbert_basis(ExponentMatrix(((1,),))) == ((1, 0), (1, 1))


def test_basis_squares_needs_extra_element(squares_matrix):
    # (1,1,1) lies in the cone but not in the generator semigroup
    assert hilbert_basis(squares_matrix) == (
        (0, 1, 0), (0, 2, 1), (1, 0, 0), (1, 1, 1), (2, 0, 1))


def test_basis_mixed_pair(mixed_pair_matrix):
    assert hilbert_basis(mixed_pair_matrix) == (
        (0, 1, 0), (1, 0, 0), (1, 2, 1), (2, 1, 1))


def oracle_basis(m):
    """The oracle triangulation's generators and parallelepiped points,
    less each one that decomposes into the others, and whether every
    simplex of that triangulation is unimodular."""
    cone = rees_cone(m).cone
    simplices = placing_triangulation(_insertion_order(cone.generators), cone.dim)
    candidates = set(cone.generators)
    for simplex in simplices:
        candidates |= parallelepiped_points(list(simplex))
    basis = sorted(c for c in candidates if not decomposes(c, candidates - {c}))
    return tuple(basis), all(abs(frac_det(list(s))) == 1 for s in simplices)


BASIS_FAMILIES = {
    **PARALLELEPIPED_FAMILIES,
    "fixtures": lambda fx: [fx("squares_matrix"), fx("mixed_pair_matrix")],
}


@pytest.mark.parametrize("family", BASIS_FAMILIES)
def test_basis_matches_the_oracle(request, family):
    unimodular = 0
    for m in BASIS_FAMILIES[family](request.getfixturevalue):
        basis, flat = oracle_basis(m)
        assert hilbert_basis(m) == basis, m.columns
        unimodular += flat
    # both branches of basis_and_facets, unreduced and reduced, are exercised
    assert unimodular == {"fano": 0, "general": 112, "random100": 100,
                          "fixtures": 1}[family]


def test_unimodular_cones_compute_no_facet_height(monkeypatch, random100,
                                                  squares_matrix):
    # every dot after the placing pass is a candidate's height over a facet
    heights = Counter()
    placing = hilbert._placing_triangulation

    def placed(*args):
        out = placing(*args)
        heights.clear()
        return out

    def counted(u, v):
        heights["dot"] += 1
        return dot(u, v)
    monkeypatch.setattr(hilbert, "_placing_triangulation", placed)
    monkeypatch.setattr(hilbert, "dot", counted)
    for c in random100:
        hilbert_basis(c.matrix)
        assert heights == {}
    # squares_matrix has a simplex of volume 2: 5 candidates times 4 facets
    hilbert_basis(squares_matrix)
    assert heights == {"dot": 20}


def test_basis_sorted_unique(random100):
    for c in random100[:20]:
        hb = hilbert_basis(c.matrix)
        assert list(hb) == sorted(set(hb))


def test_basis_soundness(reference_matrix, triangle, squares_matrix, random100):
    mats = [reference_matrix, triangle.matrix, squares_matrix]
    mats += [c.matrix for c in random100[:12]]
    for m in mats:
        cone = attach_facets(rees_cone(m).cone)
        for z in hilbert_basis(m):
            assert all(x >= 0 for x in z)
            assert cone_member(z, cone)


def test_basis_minimality(reference_matrix, triangle, squares_matrix,
                          mixed_pair_matrix, random100):
    mats = [reference_matrix, triangle.matrix, squares_matrix, mixed_pair_matrix]
    mats += [c.matrix for c in random100[:8]]
    for m in mats:
        hb = hilbert_basis(m)
        for z in hb:
            rest = [w for w in hb if w != z]
            assert not decomposes(z, rest)


def test_basis_completeness_in_box(triangle, two_star, squares_matrix,
                                   mixed_pair_matrix, random100):
    # every lattice point of the cone inside a small box must decompose
    mats = [triangle.matrix, two_star.matrix, squares_matrix, mixed_pair_matrix]
    mats += [c.matrix for c in random100 if c.n <= 3][:6]
    for m in mats:
        cone = attach_facets(rees_cone(m).cone)
        hb = hilbert_basis(m)
        for p in product(range(4), repeat=m.n + 1):
            if cone_member(p, cone):
                assert decomposes(p, hb), (m.columns, p)


def test_basis_completeness_reference(reference_matrix):
    cone = attach_facets(rees_cone(reference_matrix).cone)
    hb = hilbert_basis(reference_matrix)
    for p in product(range(3), repeat=6):
        if cone_member(p, cone):
            assert decomposes(p, hb)


def test_generators_stay_in_basis_for_clutters(random100):
    # antichain supports leave every lifted column irreducible
    for c in random100[:25]:
        hb = set(hilbert_basis(c.matrix))
        assert set(rees_cone(c.matrix).cone.generators) <= hb


def test_det_cap(squares_matrix, monkeypatch):
    monkeypatch.setattr(hilbert, "DET_CAP", 1)
    with pytest.raises(SizeLimit) as exc:
        hilbert_basis(squares_matrix)
    assert exc.value.stage == "parallelepiped enumeration"
    assert exc.value.needed == 2


# ---------------------------------------------------------------- membership


def test_semigroup_member_examples(reference_matrix, triangle):
    assert semigroup_member(reference_matrix, (2, 0, 0, 0, 2, 2))
    assert semigroup_member(reference_matrix, (0, 0, 0, 0, 0, 0))
    assert semigroup_member(reference_matrix, (1, 0, 0, 0, 0, 0))
    assert not semigroup_member(reference_matrix, (0, 0, 0, 0, 0, 1))
    assert not semigroup_member(reference_matrix, (-1, 0, 0, 0, 0, 0))
    assert not semigroup_member(triangle.matrix, (1, 1, 1, 2))
    assert semigroup_member(triangle.matrix, (1, 1, 1, 1))
    assert semigroup_member(triangle.matrix, (2, 2, 2, 2))


def test_semigroup_member_oracle(random100):
    for c in random100[:8]:
        m = c.matrix
        for z in product(range(3), repeat=m.n + 1):
            assert semigroup_member(m, z) == monoid_member(z[:-1], z[-1], m.columns)


def test_semigroup_member_runs_past_the_recursion_limit():
    # one level per column; an ExponentMatrix of 1,200 columns would cost
    # its O(q^2 n) antichain check, and the search reads only .columns
    ones = SimpleNamespace(columns=((1,),) * 1200)
    assert not semigroup_member(ones, (0, 1))
    last_zero = SimpleNamespace(columns=((1,),) * 1199 + ((0,),))
    assert semigroup_member(last_zero, (0, 2))


# ---------------------------------------------------------------- normality


def test_is_normal_examples(reference_matrix, triangle, squares_matrix,
                            mixed_pair_matrix):
    assert is_normal(reference_matrix) == (True, None)
    assert is_normal(triangle.matrix) == (True, None)
    assert is_normal(mixed_pair_matrix) == (True, None)
    ok, witness = is_normal(squares_matrix)
    assert not ok
    assert witness == (1, 1, 1)
    assert not semigroup_member(squares_matrix, witness)


def normal_by_membership(m, basis):
    """The semigroup_member route: the least basis element it rejects."""
    failing = [z for z in basis if not semigroup_member(m, z)]
    return (False, failing[0]) if failing else (True, None)


NORMALITY_FAMILIES = {
    "random100": lambda fx: [c.matrix for c in fx("random100")],
    "fixtures": lambda fx: [fx("squares_matrix"), fx("mixed_pair_matrix")],
    "general": lambda fx: random_exponent_matrices(150, seed=20261018),
}


@pytest.mark.parametrize("family", NORMALITY_FAMILIES)
def test_is_normal_matches_the_membership_route(request, family):
    # the generator-set test gives the same verdict and least witness
    mats = NORMALITY_FAMILIES[family](request.getfixturevalue)
    verdicts = []
    for m in mats:
        basis = hilbert_basis(m)
        verdicts.append(normal_by_membership(m, basis))
        assert is_normal(m, basis) == is_normal(m) == verdicts[-1]
    failing = sum(not ok for ok, _ in verdicts)
    # the failing branch is exercised: squares_matrix and 36 general matrices
    assert failing == {"random100": 0, "fixtures": 1, "general": 36}[family]


# ---------------------------------------------------------------- torsion


def test_smith_invariants_fixtures(reference_matrix, triangle, squares_matrix,
                                   mixed_pair_matrix):
    # frozen from the minor-gcd oracle below; the 2 certifies an order-two
    # torsion class of Z^5 x Z over the lifted columns
    si = smith_invariants(reference_matrix)
    assert si.factors == (1, 1, 1, 2)
    assert si.rank == 4
    assert not si.torsion_free
    assert snf_by_minors(_lifted_rows(reference_matrix)) == (1, 1, 1, 2)

    assert smith_invariants(triangle.matrix) == smith_invariants(triangle.matrix)
    assert smith_invariants(triangle.matrix).factors == (1, 1, 1)
    assert smith_invariants(ExponentMatrix(((1,),))).factors == (1,)
    assert smith_invariants(squares_matrix).factors == (1, 2)
    assert smith_invariants(mixed_pair_matrix).factors == (1, 1)
    assert smith_invariants(ExponentMatrix(((2, 1),))).factors == (1,)


def test_smith_invariants_oracle(random100):
    for c in random100[:30]:
        si = smith_invariants(c.matrix)
        assert si.factors == snf_by_minors(_lifted_rows(c.matrix))
        assert si.torsion_free == all(f == 1 for f in si.factors)
        for a, b in zip(si.factors, si.factors[1:]):
            assert b % a == 0
