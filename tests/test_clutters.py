import itertools
import random
from collections import Counter

import pytest

from mfmckit import clutters, linalg
from mfmckit.clutters import (
    Clutter,
    ExponentMatrix,
    _canonical_key,
    _clutter_classes,
    MinorSpec,
    NonMinor,
    all_minors,
    clutter_from_edges,
    covering_number,
    enumerate_clutters,
    koenig,
    matching_number,
    minimal_vertex_covers,
    minor,
    packing_property,
    validate,
)
from mfmckit.reporting import parse_input
from mfmckit.errors import (
    EmptyEdge,
    InconsistencyError,
    NotAntichain,
    NotZeroOne,
    OverlappingSpec,
    SizeLimit,
)

from oracles import (
    brute_alpha0,
    brute_antichains,
    brute_beta1,
    brute_canonical_form,
    brute_minimal_covers,
    combination_clutters,
    recursive_disjoint_edges,
    relabelled,
    search_outcome,
)

REFERENCE_ROWS = [
    (1, 0, 0, 0, 1),
    (0, 1, 0, 1, 0),
    (0, 0, 1, 1, 1),
    (1, 1, 1, 0, 0),
]


# ---------------------------------------------------------------- validation


def test_validate_reference_rows():
    c = validate(REFERENCE_ROWS)
    assert c.q == 4 and c.n == 5
    assert set(c.edges) == {(0, 4), (1, 3), (2, 3, 4), (0, 1, 2)}
    assert c.labels == ("x1", "x2", "x3", "x4", "x5")


def test_validate_single_edge():
    c = validate([[1]])
    assert c.q == 1 and c.n == 1
    assert c.edges == ((0,),)


def test_validate_rejects_contained_support():
    with pytest.raises(NotAntichain):
        validate([[1, 1], [1, 0]])


def test_validate_rejects_entry_above_one():
    with pytest.raises(NotZeroOne) as err:
        validate([[0, 2]])
    assert (err.value.row, err.value.col, err.value.value) == (0, 1, 2)


def test_validate_rejects_empty_edge():
    with pytest.raises(EmptyEdge):
        validate([[1, 0], [0, 0]])
    with pytest.raises(EmptyEdge, match="^no generators: q = 0$"):
        validate([])


@pytest.mark.parametrize("edges", [[(-1,)], [(3,)], [(-1,), (0, 1)], [(0, 1), (1, 3)]])
def test_clutter_from_edges_rejects_a_vertex_outside_the_range(edges):
    with pytest.raises(ValueError, match=r"outside range\(3\)"):
        clutter_from_edges(3, edges)


def test_antichain_check_matches_the_pairwise_oracle():
    # every family of three non-zero columns in {0,1,2}^2, duplicates
    # included: sorted, one direction finds a divisibility if any pair has one
    vectors = [v for v in itertools.product(range(3), repeat=2) if any(v)]
    for cols in itertools.product(vectors, repeat=3):
        pairs = [(a, b) for a, b in itertools.permutations(cols, 2)
                 if all(x <= y for x, y in zip(a, b))]
        if not pairs:
            assert sorted(ExponentMatrix(cols).columns) == sorted(cols)
            continue
        with pytest.raises(NotAntichain) as err:
            ExponentMatrix(cols)
        assert (err.value.smaller, err.value.larger) in pairs


def test_a_single_dominating_pair_is_named_in_every_input_order():
    for rows in itertools.permutations([(1, 1, 0), (1, 0, 0), (0, 0, 1)]):
        with pytest.raises(NotAntichain) as err:
            validate(rows)
        assert (err.value.smaller, err.value.larger) == ((1, 0, 0), (1, 1, 0))


def test_exponent_matrix_properties(reference_matrix):
    assert reference_matrix.n == 5 and reference_matrix.q == 4
    assert reference_matrix.is_zero_one()
    assert reference_matrix.max_entry() == 1
    # columns arrive canonically sorted
    assert list(reference_matrix.columns) == sorted(reference_matrix.columns)
    assert reference_matrix.row(0) == tuple(c[0] for c in reference_matrix.columns)


def test_exponent_matrix_rejects_ragged_and_negative():
    with pytest.raises(ValueError):
        ExponentMatrix(((1, 0), (1,)))
    with pytest.raises(ValueError):
        ExponentMatrix(((-1, 2),))


def test_clutter_rejects_bad_label_count(reference_matrix):
    with pytest.raises(ValueError):
        Clutter(reference_matrix, labels=("a", "b"))


def test_clutter_rejects_repeated_labels(reference_matrix):
    # two vertices named alike would print two distinct edges the same
    with pytest.raises(ValueError, match="repeated vertex label 'a'"):
        Clutter(reference_matrix, labels=("a", "b", "c", "a", "e"))
    with pytest.raises(ValueError, match="repeated vertex label 'x'"):
        validate([[1, 0], [0, 1]], labels=("x", "x"))
    with pytest.raises(ValueError, match="repeated vertex label 'a'"):
        clutter_from_edges(2, [(0,), (1,)], labels=("a", "a"))


@pytest.mark.parametrize("make", [
    lambda: validate([[0.5, 1], [1, 0]]),
    lambda: validate([["1", 0], [0, 1]]),
    lambda: ExponentMatrix(((1.9, 0), (0, 2.2))),
], ids=["validate-float", "validate-str", "matrix-float"])
def test_non_integer_entries_raise_type_error(make):
    # entries were truncated by int(): 0.5 read as 0 and 1.9 as 1
    with pytest.raises(TypeError):
        make()


def test_bool_entries_read_as_zero_one():
    assert validate([[True, False], [False, True]]).edges == ((1,), (0,))


def test_clutter_rejects_exponent_two():
    with pytest.raises(NotZeroOne):
        Clutter(ExponentMatrix(((2, 1),)))


# ---------------------------------------------------------------- minors


def test_minor_spec_canonicalizes_and_rejects_overlap():
    s = MinorSpec((2, 0), (1,))
    assert s.zeros == (0, 2) and s.ones == (1,)
    with pytest.raises(OverlappingSpec):
        MinorSpec((0,), (0, 1))


def test_minor_contract_one_vertex_of_triangle(triangle):
    m = minor(triangle, MinorSpec((), (2,)))
    assert m.labels == ("x1", "x2")
    # the surviving edge {x1,x2} is a superset of both singletons
    assert set(m.edges) == {(0,), (1,)}


def test_minor_delete_vertex_of_reference_clutter(reference_clutter):
    m = minor(reference_clutter, MinorSpec((0,), ()))
    assert m.labels == ("x2", "x3", "x4", "x5")
    assert set(m.edges) == {(0, 2), (1, 2, 3)}


def test_minor_unit_ideal(triangle):
    m = minor(triangle, MinorSpec((), (0, 1)))
    assert m == NonMinor("unit")


def test_minor_zero_ideal(single_edge):
    assert minor(single_edge, MinorSpec((0,), ())) == NonMinor("zero")


def test_minor_identity(reference_clutter, triangle, single_edge):
    for c in (reference_clutter, triangle, single_edge):
        assert minor(c, MinorSpec((), ())) == c


def test_minor_rejects_a_spec_outside_the_vertices(reference_clutter):
    for spec in (MinorSpec((9,), (7,)), MinorSpec((5,), ()), MinorSpec((), (-1,))):
        with pytest.raises(ValueError, match=r"outside range\(5\)"):
            minor(reference_clutter, spec)


@pytest.mark.parametrize("bounds", [(4, 4), (5, 3), None], ids=["4x4", "5x3", "random100"])
def test_every_construction_path_gives_the_same_clutter(bounds, random100):
    family = random100 if bounds is None else list(enumerate_clutters(*bounds))
    parsed = 0
    for c in family:
        paths = [clutter_from_edges(c.n, c.edges, c.labels),
                 validate(c.matrix.columns, c.labels),
                 minor(c, MinorSpec((), ()))]
        if set().union(*c.edges) == set(range(c.n)):
            text = "".join("edge " + " ".join(f"x{i + 1}" for i in e) + "\n"
                           for e in c.edges)
            paths.append(parse_input(text).clutter())
            parsed += 1
        for other in paths:
            assert other == c and hash(other) == hash(c)
    # the walk leaves no vertex isolated; random100 may
    assert parsed == len(family) or bounds is None and parsed > 0


def test_all_minors_single_edge(single_edge):
    ms = all_minors(single_edge)
    assert len(ms) == 1
    spec, m = ms[0]
    assert spec == MinorSpec((), ()) and m == single_edge


def test_all_minors_triangle(triangle):
    ms = all_minors(triangle)
    by_key = {(m.labels, frozenset(m.edges)) for _, m in ms}
    assert (triangle.labels, frozenset(triangle.edges)) in by_key
    # one deleted vertex leaves the opposite edge
    assert (("x2", "x3"), frozenset({(0, 1)})) in by_key
    # one contracted vertex leaves two singletons
    assert (("x1", "x2"), frozenset({(0,), (1,)})) in by_key
    # mixed specs leave lone vertices
    assert (("x3",), frozenset({(0,)})) in by_key
    assert len(ms) == 10


def test_all_minors_keeps_first_spec(reference_clutter):
    ms = all_minors(reference_clutter)
    assert ms[0][0] == MinorSpec((), ())
    assert ms[0][1] == reference_clutter


def test_all_minors_cap(monkeypatch):
    c = clutter_from_edges(3, [(0, 1, 2)])
    monkeypatch.setattr(clutters, "MINOR_CAP", 5)
    with pytest.raises(SizeLimit):
        all_minors(c)


# ---------------------------------------------------------------- covers


def test_minimal_vertex_covers_reference(reference_clutter):
    assert minimal_vertex_covers(reference_clutter) == (
        (0, 1, 2), (0, 3), (1, 4), (2, 3, 4),
    )


def test_minimal_vertex_covers_triangle(triangle):
    assert minimal_vertex_covers(triangle) == ((0, 1), (0, 2), (1, 2))


def test_minimal_vertex_covers_single(single_edge):
    assert minimal_vertex_covers(single_edge) == ((0,),)


def test_minimal_vertex_covers_cap(reference_clutter, monkeypatch):
    # the search visits 21 nodes here
    monkeypatch.setattr(linalg, "SEARCH_CAP", 10)
    with pytest.raises(SizeLimit) as exc:
        minimal_vertex_covers(reference_clutter)
    assert exc.value.stage == "cover enumeration"
    assert exc.value.cap == 10


def test_covers_match_brute_force(random100):
    family = [*random100, *enumerate_clutters(4, 4), *enumerate_clutters(5, 3)]
    for c in family:
        assert minimal_vertex_covers(c) == tuple(
            brute_minimal_covers(c.n, c.edges))


def test_covers_are_covering_and_minimal(random100):
    for c in random100[:40]:
        for cover in minimal_vertex_covers(c):
            s = set(cover)
            assert all(s & set(e) for e in c.edges)
            for v in cover:
                smaller = s - {v}
                assert any(not (smaller & set(e)) for e in c.edges)


# ---------------------------------------------------------------- numbers


def test_covering_number_examples(reference_clutter, triangle, single_edge):
    assert covering_number(reference_clutter) == 2
    assert covering_number(triangle) == 2
    assert covering_number(single_edge) == 1


def test_matching_number_examples(reference_clutter, triangle, single_edge):
    assert matching_number(reference_clutter) == 2
    assert matching_number(triangle) == 1
    assert matching_number(single_edge) == 1


def test_numbers_match_brute_force(random100):
    for c in random100[:40]:
        assert covering_number(c) == brute_alpha0(c.n, c.edges)
        assert matching_number(c) == brute_beta1(c.edges)


def test_weak_duality(random100):
    for c in random100:
        assert covering_number(c) >= matching_number(c)


def test_koenig_examples(reference_clutter, triangle, single_edge):
    assert koenig(reference_clutter) is True
    assert koenig(triangle) is False
    assert koenig(single_edge) is True


def test_packing_examples(reference_clutter, triangle, single_edge):
    ok, witness = packing_property(triangle)
    assert (ok, witness) == (False, MinorSpec((), ()))
    assert packing_property(single_edge) == (True, None)
    assert packing_property(reference_clutter) == (True, None)


def test_packing_implies_koenig(random100):
    for c in random100[:60]:
        ok, witness = packing_property(c)
        if ok:
            assert koenig(c)
        else:
            assert isinstance(witness, MinorSpec)
            failing = minor(c, witness)
            assert isinstance(failing, Clutter) and not koenig(failing)


@pytest.mark.parametrize("bounds", [None, (4, 4), (5, 3)],
                         ids=["random100", "scan4x4", "scan5x3"])
def test_packing_matches_the_minor_oracle(bounds, random100):
    for c in random100 if bounds is None else enumerate_clutters(*bounds):
        # the first failing spec of the minor-by-minor route
        oracle = next(((False, s) for s, m in all_minors(c) if not koenig(m)),
                      (True, None))
        result = packing_property(c)
        assert result == oracle
        assert packing_property(c, covers=minimal_vertex_covers(c)) == result


def test_packing_keeps_the_minor_route_caps():
    # minor enumeration is checked first, then the matching search counts
    # its nodes: every 3-subset of 12 vertices (220 edges, tau = 10)
    # exhausts it on the clutter itself
    triples12 = clutter_from_edges(12, list(itertools.combinations(range(12), 3)))
    path13 = clutter_from_edges(13, [(i, i + 1) for i in range(12)])
    for c, message in [
        (triples12, "matching search: needs 2000001 states, cap is 2000000"),
        (path13, "minor enumeration: needs 1594323 states, cap is 531441"),
    ]:
        with pytest.raises(SizeLimit) as exc:
            packing_property(c)
        assert str(exc.value) == message
    # K8 (28 edges) is answered: tau = 7 > nu = 4 on the clutter itself
    k8 = clutter_from_edges(8, list(itertools.combinations(range(8), 2)))
    assert packing_property(k8) == (False, MinorSpec((), ()))


def test_matching_cap(monkeypatch):
    # taking the four disjoint edges one by one visits five nodes
    c = clutter_from_edges(4, [(0,), (1,), (2,), (3,)])
    with monkeypatch.context() as patch:
        patch.setattr(clutters, "MATCHING_CAP", 3)
        with pytest.raises(SizeLimit):
            matching_number(c)
    assert matching_number(c) == 4


@pytest.mark.parametrize("cap", [1, 2, 3, 5, 9, clutters.MATCHING_CAP])
def test_disjoint_edges_match_the_recursive_search(cap, search_family, monkeypatch):
    # the same best count, or the same SizeLimit message, on every target
    # up to q + 1
    monkeypatch.setattr(clutters, "MATCHING_CAP", cap)
    for c in search_family:
        masks = c.edge_masks()
        for target in range(c.q + 2):
            assert (search_outcome(clutters._disjoint_edges, masks, target)
                    == search_outcome(recursive_disjoint_edges, masks, target, cap))


def test_disjoint_edges_run_past_the_recursion_limit():
    # 1,200 disjoint masks: one level per mask, deeper than Python's stack
    assert clutters._disjoint_edges([1 << i for i in range(1200)], 1200) == 1200


# ---------------------------------------------------------------- enumeration


def test_enumerate_clutters_tiny_counts():
    fam1 = list(enumerate_clutters(1, 4))
    assert [c.edges for c in fam1] == [((0,),)]
    fam2 = {tuple(sorted(c.edges)) for c in enumerate_clutters(2, 2) if c.n == 2}
    assert fam2 == {((0, 1),), ((0,), (1,))}


def test_enumerate_clutters_matches_antichain_count():
    for n, q in [(2, 2), (3, 3), (4, 2)]:
        got = sorted(
            tuple(sorted(c.edges)) for c in enumerate_clutters(n, q) if c.n == n)
        assert got == brute_antichains(n, q)


@pytest.mark.parametrize("bounds", [(1, 4), (2, 2), (3, 3), (3, 10 ** 9), (4, 4),
                                    (5, 3), (5, 4), (14, 1)],
                         ids=["1x4", "2x2", "3x3", "3xall", "4x4", "5x3", "5x4", "14x1"])
def test_enumeration_matches_the_combinations_walk(bounds):
    # the antichain walk yields what filtering every combination of
    # subsets yields, in the same order; single edges, which the cap admits
    # up to 18 vertices, build no table of incomparable pairs
    assert ([(c.n, c.edges) for c in enumerate_clutters(*bounds)]
            == [(c.n, c.edges) for c in combination_clutters(*bounds)])


def test_enumeration_is_capped():
    # 2,046 and 5,637 candidate edge families stay under the cap
    assert sum(1 for _ in enumerate_clutters(4, 4)) == 119
    assert sum(1 for _ in enumerate_clutters(5, 3)) == 975
    with pytest.raises(SizeLimit) as exc:
        next(enumerate_clutters(6, 6))
    assert (exc.value.stage, exc.value.needed) == ("clutter enumeration", 76_564_490)
    # more edges than subsets adds no candidates and no empty rounds
    assert sum(1 for _ in enumerate_clutters(3, 10 ** 9)) == 12


# ---------------------------------------------------------------- isomorphism


@pytest.mark.parametrize("bounds", [(4, 4), (5, 3), None], ids=["4x4", "5x3", "random100"])
def test_canonical_keys_match_the_relabelling_oracle(bounds, random100):
    # keys are equal exactly when the least edge masks over all n!
    # relabellings are: the pairs (key, form) pair off the classes one to one
    if bounds is None:
        rng = random.Random(21)
        family = [*random100, *(relabelled(c, rng) for c in random100)]
    else:
        family = list(enumerate_clutters(*bounds))
    keys = [_canonical_key(c) for c in family]
    forms = [brute_canonical_form(c) for c in family]
    classes = len(set(forms))
    assert len(set(keys)) == len(set(zip(keys, forms))) == classes < len(family)


def test_canonical_keys_count_the_isomorphism_classes(monkeypatch):
    # OEIS A003182 less its two trivial antichains: 1, 2, 5, 20 and 180
    # classes of clutters on exactly 1..5 vertices
    monkeypatch.setattr(clutters, "ENUMERATION_CAP", 2 ** 32)
    keys = {_canonical_key(c) for c in enumerate_clutters(5, 31)}
    assert Counter(n for n, _, _ in keys) == {1: 1, 2: 2, 3: 5, 4: 20, 5: 180}


def test_canonical_key_past_the_relabel_cap_is_the_labelled_clutter():
    # C25's one block of 25 vertices is past the cap: no permutation is
    # listed, and the key holds its own edge masks
    c25 = clutter_from_edges(25, [(i, (i + 1) % 25) for i in range(25)])
    assert _canonical_key(c25) == (25, 25, tuple(sorted(c25.edge_masks())))


@pytest.mark.parametrize("bounds, classes, kept", [
    ((3, 3), 8, 10), ((4, 4), 26, 52), ((5, 3), 48, 209), ((5, 31), 208, 959),
    ((6, 2), 28, 105), ((7, 2), 41, 226), ((14, 1), 14, 14), ((6, 3), 112, 937)],
    ids=["3x3", "4x4", "5x3", "5xall", "6x2", "7x2", "14x1", "6x3"])
def test_class_copies_match_the_labelled_walk(monkeypatch, bounds, classes, kept):
    # one member per class, counted n!/|Aut| times: the labelled walk's keys,
    # counted, are the oracle.  Where q < n the key permutes edges and the
    # count needs the twin-vertex factor; 6x2, 7x2, 14x1 and 6x3 miscount
    # without it
    monkeypatch.setattr(clutters, "ENUMERATION_CAP", 2 ** 32)
    labelled = Counter(_canonical_key(c) for c in enumerate_clutters(*bounds))
    keyed = []
    key_and_automorphisms = clutters._key_and_automorphisms
    monkeypatch.setattr(clutters, "_key_and_automorphisms",
                        lambda c: keyed.append(c) or key_and_automorphisms(c))
    found = list(_clutter_classes(*bounds))
    # the keys below are not the walk's
    monkeypatch.setattr(clutters, "_key_and_automorphisms", key_and_automorphisms)
    assert {key: copies for key, _, copies in found} == labelled
    assert len(found) == classes
    # only the families with non-increasing vertex degrees are keyed, and
    # each class has one; its representative is the first in walk order
    def sorted_degrees(c):
        degrees = [sum(c.matrix.row(i)) for i in range(c.n)]
        return degrees == sorted(degrees, reverse=True)
    assert keyed == [c for c in enumerate_clutters(*bounds) if sorted_degrees(c)]
    assert len(keyed) == kept
    first = {}
    for c in keyed:
        first.setdefault(_canonical_key(c), c)
    assert [(key, c) for key, c, _ in found] == list(first.items())


def test_class_keys_past_the_relabel_cap_raise(monkeypatch):
    # a copy count needs every relabelling of the key: with RELABEL_CAP = 1
    # the two single-vertex edges on two vertices already need two
    monkeypatch.setattr(clutters, "RELABEL_CAP", 1)
    walk = _clutter_classes(4, 4)
    assert next(walk)[1].edges == ((0,),)
    with pytest.raises(InconsistencyError,
                       match=r"class key of \(\(1,\), \(0,\)\) is past RELABEL_CAP = 1"):
        list(walk)
