import functools
import itertools
import random
from math import comb

import pytest

from mfmckit import ideals, linalg
from mfmckit.clutters import ExponentMatrix, clutter_from_edges, minimal_vertex_covers
from mfmckit.cones import facet_normals, rees_cone
from mfmckit.errors import NotSquareFree, SizeLimit
from mfmckit.ideals import (
    MonomialIdealGens,
    closure_power,
    ideal_equal,
    membership,
    minimalize,
    ordinary_power,
    symbolic_power,
)

import oracles
from oracles import brute_minimal_covers, pth_power_closure_member

TRI_SQUARED = ((0, 2, 2), (1, 1, 2), (1, 2, 1), (2, 0, 2), (2, 1, 1), (2, 2, 0))


# ---------------------------------------------------------------- canonical form


def test_minimalize():
    assert minimalize([(2, 0), (1, 1), (2, 1), (1, 1)]) == ((1, 1), (2, 0))
    assert minimalize([]) == ()
    assert minimalize([(0, 0), (1, 0)]) == ((0, 0),)


def test_minimalize_against_pairwise_oracle():
    rng = random.Random(20261018)
    for _ in range(300):
        dim = rng.randint(1, 4)
        vectors = [tuple(rng.randint(0, 3) for _ in range(dim))
                   for _ in range(rng.randint(0, 30))]
        assert minimalize(vectors) == oracles.minimalize(vectors)
        assert minimalize(map(list, vectors)) == oracles.minimalize(vectors)


def test_gens_canonicalize():
    ideal = MonomialIdealGens(((2, 1), (1, 2), (2, 2)))
    assert ideal.gens == ((1, 2), (2, 1))
    assert len(ideal) == 2


def test_membership():
    ideal = MonomialIdealGens(((1, 1, 0), (0, 1, 1)))
    assert membership((2, 1, 0), ideal)
    assert membership((0, 1, 1), ideal)
    assert not membership((1, 0, 1), ideal)
    assert not membership((0, 0, 0), ideal)


def test_ideal_equal():
    a = MonomialIdealGens(((1, 1), (2, 0)))
    b = MonomialIdealGens(((2, 0), (1, 1), (2, 1)))
    assert ideal_equal(a, b)
    assert not ideal_equal(a, MonomialIdealGens(((1, 1),)))


# ---------------------------------------------------------------- ordinary


def test_ordinary_first_power_is_ideal(reference_matrix):
    assert ordinary_power(reference_matrix, 1).gens == reference_matrix.columns


def test_ordinary_triangle_squared(triangle):
    assert ordinary_power(triangle.matrix, 2).gens == TRI_SQUARED


def test_ordinary_principal():
    assert ordinary_power(ExponentMatrix(((1,),)), 3).gens == ((3,),)


def test_ordinary_rejects_zero_power(reference_matrix):
    with pytest.raises(ValueError):
        ordinary_power(reference_matrix, 0)


def test_ordinary_cap(reference_matrix, monkeypatch):
    monkeypatch.setattr(ideals, "ORDINARY_CAP", 10)
    with pytest.raises(SizeLimit) as exc:
        ordinary_power(reference_matrix, 3)
    assert exc.value.stage == "ordinary power enumeration"


# ---------------------------------------------------------------- symbolic


def test_symbolic_first_power_is_ideal(triangle, reference_clutter):
    for c in (triangle, reference_clutter):
        assert symbolic_power(c, 1).gens == c.matrix.columns


def test_symbolic_triangle_squared(triangle):
    # x1 x2 x3 has weight two on every cover pair but is not a product
    # of two edges
    sym = symbolic_power(triangle, 2)
    assert sym.gens == ((0, 2, 2), (1, 1, 1), (2, 0, 2), (2, 2, 0))
    assert membership((1, 1, 1), sym)
    assert not membership((1, 1, 1), ordinary_power(triangle.matrix, 2))


def test_symbolic_principal():
    assert symbolic_power(ExponentMatrix(((1,),)), 5).gens == ((5,),)


def test_symbolic_accepts_matrix_or_clutter(triangle):
    via_matrix = symbolic_power(triangle.matrix, 2)
    via_clutter = symbolic_power(triangle, 2)
    assert ideal_equal(via_matrix, via_clutter)


def test_symbolic_needs_square_free(squares_matrix):
    with pytest.raises(NotSquareFree):
        symbolic_power(squares_matrix, 1)


def test_symbolic_cap(reference_clutter, monkeypatch):
    # the search visits 119 nodes here
    monkeypatch.setattr(linalg, "SEARCH_CAP", 50)
    with pytest.raises(SizeLimit) as exc:
        symbolic_power(reference_clutter, 3)
    assert exc.value.stage == "symbolic power enumeration"
    assert exc.value.cap == 50


def test_symbolic_entries_bounded(random100):
    for c in random100[:10]:
        for i in (1, 2, 3):
            for g in symbolic_power(c, i).gens:
                assert max(g) <= i


def test_symbolic_against_cover_weights(random100):
    # recompute from scratch with the brute cover list
    from oracles import brute_minimal_covers
    for c in random100[:10]:
        covers = brute_minimal_covers(c.n, c.edges)
        for i in (1, 2):
            sym = symbolic_power(c, i)
            for a in itertools.product(range(i + 1), repeat=c.n):
                ok = all(sum(a[v] for v in cov) >= i for cov in covers)
                assert membership(a, sym) == ok


# ---------------------------------------------------------------- closure


def test_closure_reference_first_power(reference_matrix):
    assert ideal_equal(closure_power(reference_matrix, 1),
                       ordinary_power(reference_matrix, 1))


def test_closure_triangle_squared(triangle):
    clo = closure_power(triangle.matrix, 2)
    assert clo.gens == TRI_SQUARED
    assert not membership((1, 1, 1), clo)


def test_closure_squares_gains_mixed_monomial(squares_matrix):
    # x1 x2 satisfies (x1 x2)^2 = x1^2 * x2^2
    clo = closure_power(squares_matrix, 1)
    assert clo.gens == ((0, 2), (1, 1), (2, 0))
    assert not ideal_equal(clo, ordinary_power(squares_matrix, 1))


def test_closure_mixed_pair_stays_put(mixed_pair_matrix):
    assert closure_power(mixed_pair_matrix, 1).gens == ((1, 2), (2, 1))


def test_closure_rejects_zero_power(squares_matrix):
    with pytest.raises(ValueError):
        closure_power(squares_matrix, 0)


def test_closure_cap(squares_matrix, monkeypatch):
    # the level sums of (x1^2, x2^2)^2 count the 3 basis elements of lift 1
    # at level 1 and 3 * 3 sums at level 2
    monkeypatch.setattr(ideals, "ORDINARY_CAP", 11)
    with pytest.raises(SizeLimit) as exc:
        closure_power(squares_matrix, 2)
    assert (exc.value.stage, exc.value.needed, exc.value.cap) == (
        "closure power enumeration", 12, 11)


def test_closure_accepts_precomputed_basis(q6, reference_matrix):
    # R[It] is not normal for Q6, and is for the reference example
    from mfmckit.hilbert import hilbert_basis
    for m in (q6.matrix, reference_matrix):
        assert ideal_equal(closure_power(m, 2, basis=hilbert_basis(m)), closure_power(m, 2))


def test_closure_against_power_oracle(triangle, squares_matrix,
                                      mixed_pair_matrix, random100):
    mats = [triangle.matrix, squares_matrix, mixed_pair_matrix]
    mats += [c.matrix for c in random100 if c.n <= 3][:6]
    for m in mats:
        for i in (1, 2):
            clo = closure_power(m, i)
            bound = i * m.max_entry()
            for a in itertools.product(range(bound + 1), repeat=m.n):
                assert membership(a, clo) == pth_power_closure_member(
                    a, i, m.columns, 6)


# ---------------------------------------------------------------- containments


def test_power_containment_chain(random100):
    # I^i inside closure of I^i inside I^(i)
    cases = [(c, (1, 2, 3, 4) if c.n <= 4 else (1, 2)) for c in random100[:12]]
    for c, powers in cases:
        m = c.matrix
        for i in powers:
            ordinary = ordinary_power(m, i)
            clo = closure_power(m, i)
            sym = symbolic_power(c, i)
            for g in ordinary.gens:
                assert membership(g, clo)
            for g in clo.gens:
                assert membership(g, sym)


def test_closure_is_contained_in_its_own_later_sums(triangle):
    # closure gens of I^2 times gens of I stay inside closure of I^3
    clo2 = closure_power(triangle.matrix, 2)
    clo3 = closure_power(triangle.matrix, 3)
    for g in clo2.gens:
        for col in triangle.matrix.columns:
            assert membership(tuple(a + b for a, b in zip(g, col)), clo3)


# ---------------------------------------------------------------- search vs box oracle
#
# symbolic_power searches for the minimal points and closure_power sums
# Hilbert basis elements; the reference scans the whole box and
# minimalizes every in-set point by pairwise dominance.  The closure's
# in-set points come from the full facet list of the Rees cone (checked
# against brute_facets in test_cones), not from the Hilbert basis.


@functools.lru_cache(maxsize=None)
def _oracle_gens(points):
    # symbolic and closure box points coincide on most integral clutters
    return oracles.minimalize(points)


def _box(bound, n):
    return itertools.product(range(bound + 1), repeat=n)


def _symbolic_box_points(c, i):
    covers = brute_minimal_covers(c.n, c.edges)
    return tuple(a for a in _box(i, c.n)
                 if all(sum(a[v] for v in cov) >= i for cov in covers))


def _closure_box_points(m, i, facets):
    return tuple(a for a in _box(i * m.max_entry(), m.n)
                 if all(sum(f * x for f, x in zip(normal, a + (i,))) >= 0
                        for normal in facets))


def test_symbolic_scan_matches_pairwise_oracle(random100):
    checked = 0
    for c in random100:
        for i in (1, 2, 3):
            if (i + 1) ** c.n > 5000:
                continue
            expected = _oracle_gens(_symbolic_box_points(c, i))
            assert symbolic_power(c, i).gens == expected
            checked += 1
    assert checked == 300


def test_closure_scan_matches_pairwise_oracle(random100, squares_matrix,
                                              mixed_pair_matrix):
    mats = [c.matrix for c in random100] + [squares_matrix, mixed_pair_matrix]
    checked = 0
    for m in mats:
        facets = facet_normals(rees_cone(m).cone)
        for i in (1, 2, 3):
            if (i * m.max_entry() + 1) ** m.n > 5000:
                continue
            expected = _oracle_gens(_closure_box_points(m, i, facets))
            assert closure_power(m, i).gens == expected
            checked += 1
    assert checked == 306


def test_search_nodes_stay_within_the_box(random100, monkeypatch):
    # each level has at most bound + 1 children and the last is solved
    # directly, so a cap of the box size never fires
    for c in random100:
        monkeypatch.setattr(linalg, "SEARCH_CAP", 2 ** c.n)
        assert minimal_vertex_covers(c)
        for i in (1, 2, 3):
            monkeypatch.setattr(linalg, "SEARCH_CAP", (i + 1) ** c.n)
            assert symbolic_power(c, i)


def test_search_output_is_already_canonical(random100):
    # symbolic_power and closure_power wrap the search's output and the last
    # level's sums without minimalizing them again: they must already be
    # minimal and sorted
    for c in random100:
        for i in (1, 2, 3):
            for ideal in (symbolic_power(c, i), closure_power(c.matrix, i)):
                assert ideal.gens == minimalize(ideal.gens)
                assert ideal == MonomialIdealGens(ideal.gens)


@pytest.mark.parametrize("n", [10, 12])
def test_even_cycle_third_powers_past_the_box(n):
    # Koenig's theorem for bipartite graphs: an even cycle is normally
    # torsion free, so I^(3), the closure of I^3 and I^3 coincide; the
    # (i + 1)^n box of C12 has 4^12 points, more than SEARCH_CAP
    c = clutter_from_edges(n, [(k, (k + 1) % n) for k in range(n)])
    ordinary = ordinary_power(c.matrix, 3)
    assert symbolic_power(c, 3) == closure_power(c.matrix, 3) == ordinary
    assert len(ordinary) == comb(n + 2, 3)


def test_seven_cycle_third_powers():
    c7 = clutter_from_edges(7, [(k, (k + 1) % 7) for k in range(7)])
    assert len(symbolic_power(c7, 3)) == 84
    assert len(closure_power(c7.matrix, 3)) == 84


@pytest.mark.parametrize("n", [9, 11, 13])
def test_odd_cycle_second_symbolic_powers_match_the_slack_search(n):
    # the plane kernel behind symbolic_power against the slack search on the
    # 0/1 cover rows: the same generators in the same order
    c = clutter_from_edges(n, [(k, (k + 1) % n) for k in range(n)])
    covers = minimal_vertex_covers(c)
    rows = [(tuple(int(v in cover) for v in range(n)), 2) for cover in covers]
    slack = oracles.recursive_minimal_solutions(rows, n, 2, "symbolic power enumeration",
                                                linalg.SEARCH_CAP)
    assert symbolic_power(c, 2, covers).gens == slack
    # an odd cycle C_(2k+1) has I^(t) = I^t for t <= k
    assert slack == ordinary_power(c.matrix, 2).gens
