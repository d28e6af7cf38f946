import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfmckit import clutters, ideals, linalg
from mfmckit.clutters import clutter_from_edges, minimal_vertex_covers
from mfmckit.errors import SizeLimit
from mfmckit.ideals import closure_power, symbolic_power
from mfmckit.linalg import _scaled_solve, dot, primitive, smith_invariant_factors

from oracles import (
    frac_det, frac_solve, recursive_minimal_solutions, search_outcome, slack_closure,
    snf_by_minors)

small_int = st.integers(min_value=-6, max_value=6)


def square(n, seed):
    rng = random.Random(seed)
    return [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]


def test_dot():
    assert dot((1, 2, 3), (4, 5, 6)) == 32
    assert dot((), ()) == 0


def test_inexact_division_is_an_inconsistency():
    # a raised error, not an assert, so python -O keeps the check
    from mfmckit.errors import InconsistencyError
    from mfmckit.linalg import _exact_div
    assert _exact_div(12, -4) == -3
    with pytest.raises(InconsistencyError):
        _exact_div(7, 2)


def test_inexact_elimination_names_the_entry():
    # integer input always divides exactly; a fractional entry shows that
    # the one check per row still finds and names the inexact quotient
    from mfmckit.errors import InconsistencyError
    from mfmckit.linalg import _bareiss
    with pytest.raises(InconsistencyError, match=r"non-exact division 3/2 / 1$"):
        _bareiss([[1, 0, 0], [0, 1, Fraction(3, 2)], [0, 0, 1]])


def test_primitive_reduces_gcd():
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive((0, 0, 5)) == (0, 0, 1)
    assert primitive((-3,)) == (-1,)  # direction kept, length normalized
    with pytest.raises(ValueError):
        primitive((0, 0))


def solve(rows, rhs):
    """The solution as Fractions (d x) / d from the integer helper, or None
    when singular."""
    solved = _scaled_solve([list(r) + [b] for r, b in zip(rows, rhs)])
    if solved is None:
        return None
    d, x = solved
    return tuple(Fraction(row[0], d) for row in x)


def test_scaled_solve_matches_rational_elimination():
    for seed in range(60):
        n = seed % 4 + 1
        rows = square(n, seed)
        rhs = [random.Random(seed + 1000).randint(-5, 5) for _ in range(n)]
        assert solve(rows, rhs) == frac_solve(rows, rhs)


def test_scaled_solve_singular():
    assert _scaled_solve([[1, 2, 1], [2, 4, 1]]) is None


def test_scaled_solve_exact_multiples():
    # d = +-det W, and d X is integral for several right-hand sides at once
    d, x = _scaled_solve([[2, 0, 1, 0], [0, 4, 0, 1]])
    assert d == 8 and x == [[4, 0], [0, 2]]
    assert _scaled_solve([]) == (1, [])


@pytest.mark.parametrize("rows", [
    [[1, 2, 3], [1, 2, 3], [0, 1, 1]],  # duplicate row
    [[0, 1, 2], [0, 3, 4], [0, 5, 7]],  # zero column
    [[1, 2, 3], [4, 5, 6], [7, 8, 9]],  # pivot missing only at the last step
    [[1, 2], [2, 4]],
    [[0, 1], [1, 0]],  # one row swap
    [[0, 0, 1], [0, 2, 0], [3, 0, 0]],
    [[1, 1, 1], [1, 1, 2], [1, 2, 1]],  # swap at the second step
    [[0, 2, 1, 0], [0, 0, 3, 1], [1, 0, 0, 2], [0, 1, 0, 0]],  # several swaps
])
def test_det_and_solve_share_one_elimination(rows):
    # det is the oracle's: the helper fails exactly on a singular matrix,
    # and otherwise its scale is the determinant up to sign
    rhs = [k + 1 for k in range(len(rows))]
    solved = _scaled_solve([list(r) + [b] for r, b in zip(rows, rhs)])
    assert solve(rows, rhs) == frac_solve(rows, rhs)
    assert (frac_det(rows) == 0) == (solved is None)
    if solved is not None:
        assert abs(solved[0]) == abs(frac_det(rows))


def test_det_zero_exactly_when_solve_fails():
    singular = 0
    for seed in range(300):
        rng = random.Random(seed)
        n = seed % 4 + 1
        rows = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
        rhs = [rng.randint(-2, 2) for _ in range(n)]
        d, x = frac_det(rows), solve(rows, rhs)
        assert x == frac_solve(rows, rhs)
        assert (d == 0) == (x is None)
        singular += d == 0
    assert 30 < singular < 270  # both branches are exercised


def test_smith_single_lifted_column():
    # one generator x1 lifted: column (1, 1)
    assert smith_invariant_factors([[1], [1]]) == (1,)


def test_smith_degenerate_column():
    # column (2, 1): entries are coprime
    assert smith_invariant_factors([[2], [1]]) == (1,)


def test_smith_diag_and_torsion():
    assert smith_invariant_factors([[2, 0], [0, 3]]) == (1, 6)
    assert smith_invariant_factors([[2, 0], [0, 2]]) == (2, 2)
    assert smith_invariant_factors([[0, 0], [0, 0]]) == ()


@pytest.mark.parametrize("rows, factors", [
    ([[-1]], (1,)),
    ([[2, -1], [4, 6]], (1, 16)),
    ([[0, -1, 0], [3, 0, 6]], (1, 3)),
    ([[-2, -1], [-1, -2]], (1, 3)),
    ([[2, 3], [4, 5]], (1, 2)),
    ([[2, 3, 0], [4, 7, 0], [6, 9, 4]], (1, 2, 4)),
    ([[0, 0, 0, 0], [0, 1, 0, 2], [0, 0, 0, 0], [0, 3, 0, -1]], (1, 7)),
    ([[0, 1], [0, 0], [1, 0]], (1, 1)),
    ([[0, 0, -1], [0, 0, 0], [2, 0, 4]], (1, 2)),
    ([[0, 2, 0], [1, 0, 0], [0, 0, 0], [0, 4, 6]], (1, 2, 6)),
], ids=["minus-one", "only-minus-one", "minus-one-zero-column", "minus-ones",
        "unit-after-a-step", "unit-after-a-step-3x3", "zero-rows-and-columns",
        "unit-columns-zero-row", "minus-one-zero-column-and-row", "unit-then-torsion"])
def test_smith_unit_pivots(rows, factors):
    # a unit pivot is cleared by row operations alone: cases where the only
    # unit is -1, where a unit appears only after a non-unit step, and where
    # zero rows and columns sit among the units
    assert snf_by_minors(rows) == factors
    assert smith_invariant_factors(rows) == factors


def test_smith_against_minor_gcds():
    for seed in range(120):
        rng = random.Random(seed)
        m, w = rng.randint(1, 6), rng.randint(1, 8)
        rows = [[rng.randint(-3, 3) for _ in range(w)] for _ in range(m)]
        factors, minors = smith_invariant_factors(rows), snf_by_minors(rows)
        # returned in the divisibility order, not only as the right multiset
        assert tuple(sorted(factors)) == minors
        assert factors == minors


def test_smith_divisibility_chain():
    for seed in range(60):
        rng = random.Random(seed + 500)
        rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(4)]
        facs = smith_invariant_factors(rows)
        assert all(b % a == 0 for a, b in zip(facs, facs[1:]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=1, max_size=4),
       st.randoms(use_true_random=False))
def test_smith_permutation_invariant(rows, rng):
    base = tuple(sorted(smith_invariant_factors(rows)))
    shuffled = list(rows)
    rng.shuffle(shuffled)
    cols = list(range(3))
    rng.shuffle(cols)
    permuted = [[r[c] for c in cols] for r in shuffled]
    assert tuple(sorted(smith_invariant_factors(permuted))) == base


# ---------------------------------------------------------------- minimal points


@pytest.fixture(scope="module")
def plane_systems(search_family):
    # every system the covers, I^(2) and I^(3) of the search family hand the
    # plane kernel, the symbolic powers as a stream
    plane, plane_kernel = [], linalg._plane_points

    def record_plane(*args):
        plane.append(args)
        return plane_kernel(*args)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(clutters, "_plane_points", record_plane)
        patch.setattr(ideals, "_plane_points", record_plane)
        for c in search_family:
            covers = minimal_vertex_covers(c)
            for i in (2, 3):
                symbolic_power(c, i, covers)
    return plane


def slack_system(supports, n, r, stage):
    """The slack search's form of a plane kernel system: one 0/1 row per
    support, with right-hand side r, and r for the bound."""
    return [(tuple(int(k in s) for k in range(n)), r) for s in supports], n, r, stage


def test_minimal_solutions_match_the_recursive_search(search_family):
    # the closure read off the Hilbert basis against the slack search over
    # the vertex normals, the route it replaced
    for c in search_family:
        for i in (1, 2, 3):
            assert closure_power(c.matrix, i).gens == slack_closure(c.matrix, i)


@pytest.mark.parametrize("cap", [1, 2, 5, 17, 60])
def test_minimal_solutions_stop_where_the_recursion_stops(search_family, cap, monkeypatch):
    # symbolic_power lists the plane kernel's points: under a lowered cap it
    # raises the recursion's SizeLimit, else it returns the recursion's points
    systems = [(c, i, minimal_vertex_covers(c)) for c in search_family for i in (2, 3)]
    monkeypatch.setattr(linalg, "SEARCH_CAP", cap)
    for c, i, covers in systems:
        rows = slack_system(covers, c.n, i, "symbolic power enumeration")
        expected = search_outcome(recursive_minimal_solutions, *rows, cap)
        outcome = search_outcome(symbolic_power, c, i, covers)
        assert getattr(outcome, "gens", outcome) == expected


def drained(system):
    """The points the plane kernel yields for system, and the SizeLimit
    message that stops it, or None."""
    points = []
    try:
        points.extend(linalg._plane_points(*system))
    except SizeLimit as e:
        return points, str(e)
    return points, None


@pytest.fixture(scope="module")
def wide_systems():
    # rows wide enough that every row is met while coordinates are left,
    # where the search ends the branch: one row over all n coordinates,
    # a wide row beside a pair, and the n rows that each miss one coordinate
    systems = []
    for n in range(2, 9):
        families = [[tuple(range(n))], [tuple(range(n - 1)), (n - 2, n - 1)],
                    [tuple(range(1, n)), (0, 1)],
                    [tuple(k for k in range(n) if k != j) for j in range(n)]]
        systems += [(rows, n, r, "wide rows") for rows in families for r in (1, 2, 3)]
    return systems


def test_minimal_points_yield_the_solutions_in_order(wide_systems):
    for system in wide_systems:
        expected = recursive_minimal_solutions(*slack_system(*system), linalg.SEARCH_CAP)
        assert drained(system) == (list(expected), None)


@pytest.mark.parametrize("cap", [1, 2, 5, 17, 60])
def test_minimal_points_stop_at_the_node_where_the_recursion_stops(wide_systems, cap,
                                                                   monkeypatch):
    # a branch ended once every row is met counts one node in both searches
    monkeypatch.setattr(linalg, "SEARCH_CAP", cap)
    stopped = 0
    for system in wide_systems:
        found = []
        expected = search_outcome(recursive_minimal_solutions, *slack_system(*system), cap, found)
        outcome = drained(system)
        assert outcome == (found, expected if isinstance(expected, str) else None)
        stopped += outcome[1] is not None and bool(outcome[0])
    assert stopped or cap == 1


def test_plane_points_match_the_recursive_and_the_slack_search(plane_systems):
    # the plane kernel walks the slack search's tree over the 0/1 rows: the
    # same points in the same order
    assert len(plane_systems) == 684
    for system in plane_systems:
        expected = recursive_minimal_solutions(*slack_system(*system), linalg.SEARCH_CAP)
        assert drained(system) == (list(expected), None)


@pytest.mark.parametrize("cap", [1, 2, 5, 17, 60])
def test_plane_points_stop_at_the_node_where_the_slack_search_stops(plane_systems, cap,
                                                                    monkeypatch):
    # the same node count: under a lowered cap the plane kernel yields the
    # points found before the same node, then raises the same SizeLimit
    monkeypatch.setattr(linalg, "SEARCH_CAP", cap)
    stopped = 0
    for system in plane_systems:
        found = []
        expected = search_outcome(recursive_minimal_solutions, *slack_system(*system), cap, found)
        outcome = drained(system)
        assert outcome == (found, expected if isinstance(expected, str) else None)
        stopped += outcome[1] is not None and bool(outcome[0])
    assert stopped or cap == 1


@st.composite
def zero_one_systems(draw):
    """n, r, sorted supports and a cap; some systems have 65-90 rows."""
    n = draw(st.integers(1, 7))
    count = draw(st.one_of(st.integers(0, 12), st.integers(65, 90)))
    support = st.sets(st.integers(0, n - 1), max_size=n).map(sorted).map(tuple)
    return (n, draw(st.integers(1, 4)), draw(st.lists(support, min_size=count, max_size=count)),
            draw(st.sampled_from([3, 40, linalg.SEARCH_CAP])))


@settings(max_examples=150, deadline=None)
@given(zero_one_systems())
def test_plane_points_equal_the_slack_search_on_random_zero_one_rows(case):
    # r is both the right-hand side and the bound; past 64 rows the row
    # masks span several machine words, and an empty row is never met
    n, r, supports, cap = case
    system = (supports, n, r, "random rows")
    found = []
    expected = search_outcome(recursive_minimal_solutions, *slack_system(*system), cap, found)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "SEARCH_CAP", cap)
        assert drained(system) == (found, expected if isinstance(expected, str) else None)


def test_minimal_solutions_run_past_the_recursion_limit():
    # one edge over 2,000 vertices: one coordinate per level, deeper than
    # Python's default stack of 1,000 frames; the edge is met once a vertex
    # is placed, so each cover ends its branch, and the n(n+1)/2 nodes of
    # the unpruned tree, past SEARCH_CAP, are never visited
    wide = clutter_from_edges(2000, [range(2000)])
    assert minimal_vertex_covers(wide) == tuple((v,) for v in range(2000))
