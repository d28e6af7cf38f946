import gc
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

import pytest

from mfmckit import clutters, cones, decisions, hilbert, ideals, linalg
from mfmckit.cli import main
from mfmckit.clutters import (
    MinorSpec, clutter_from_edges, covering_number, enumerate_clutters,
    matching_number, packing_property)
from mfmckit.cones import (
    FacetClassification, is_integral_qa, qa_vertices_direct, support_hyperplanes)
from mfmckit.decisions import (
    TDI_BOX_CAP,
    Analysis,
    NtfResult,
    ScanReport,
    TdiCounterexample,
    TdiReport,
    class_scan,
    conjecture_scan,
    decide_mfmc,
    gr_reduced,
    integrality_equivalences,
    ntf_check,
    tdi_bounded_check,
)
from mfmckit.errors import InconsistencyError, NotSquareFree, SizeLimit
from mfmckit.hilbert import hilbert_basis, semigroup_member, smith_invariants
from mfmckit.ideals import symbolic_power
from mfmckit.linalg import dot
from mfmckit.reporting import analyze, parse_input, powers_table

from oracles import (
    brute_alpha0,
    brute_beta1,
    brute_minimal_covers,
    full_power_ntf_check,
    monoid_member,
    random_clutters,
    search_outcome,
    tdi_integral_max,
    tdi_rational_max,
    tuple_keyed_tdi_scan,
)


# ---------------------------------------------------------------- verdicts


def test_verdict_reference(reference_clutter):
    v = decide_mfmc(reference_clutter)
    assert v.mfmc and v.normal and v.integral
    assert v.koenig and v.packing and v.ntf
    assert not v.torsion_free
    assert v.witnesses == {"torsion_free": (1, 1, 1, 2)}
    assert v.i_max_checked == 3


def test_verdict_triangle(triangle):
    v = decide_mfmc(triangle)
    assert not v.mfmc
    assert v.normal
    assert not v.integral
    assert not v.koenig and not v.packing and not v.ntf
    assert v.torsion_free
    assert v.witnesses["integral"] == (Fraction(1, 2),) * 3
    assert v.witnesses["koenig"] == (2, 1)
    assert v.witnesses["packing"] == MinorSpec((), ())
    assert v.witnesses["ntf"] == (2, (1, 1, 1))


def test_verdict_trivial_cases(single_edge, two_star):
    for c in (single_edge, two_star):
        v = decide_mfmc(c)
        assert v.mfmc and v.normal and v.integral and v.koenig
        assert v.packing and v.torsion_free and v.ntf
        assert v.witnesses == {}


def test_verdict_q6(q6):
    # integral covering polyhedron, but the Rees algebra is not normal
    v = decide_mfmc(q6)
    assert v.integral and not v.normal and not v.mfmc
    assert v.witnesses["normal"] == (1, 1, 1, 1, 1, 1, 2)
    assert not v.koenig
    assert v.witnesses["koenig"] == (2, 1)
    assert brute_alpha0(q6.n, q6.edges) == 2
    assert brute_beta1(q6.edges) == 1
    assert not v.ntf
    i, witness = v.witnesses["ntf"]
    assert (i, witness) == (2, (1, 1, 1, 1, 1, 1))
    # in I^(2): weight >= 2 on every minimal vertex cover
    covers = brute_minimal_covers(q6.n, q6.edges)
    assert all(sum(witness[v] for v in cov) >= 2 for cov in covers)
    # not in I^2: no product of two edges divides it
    cols = q6.matrix.columns
    assert not any(all(a + b <= w for a, b, w in zip(x, y, witness))
                   for x, y in combinations_with_replacement(cols, 2))


def test_verdict_imax_recorded(single_edge):
    assert decide_mfmc(single_edge, i_max=2).i_max_checked == 2


def test_gr_reduced(reference_clutter, triangle, single_edge):
    assert gr_reduced(reference_clutter)
    assert not gr_reduced(triangle)
    assert gr_reduced(single_edge)


# ---------------------------------------------------------------- ntf


def test_ntf_triangle_fails_at_two(triangle):
    assert ntf_check(triangle) == NtfResult(False, 2, (1, 1, 1))
    # power one alone cannot see the failure
    assert ntf_check(triangle, i_max=1) == NtfResult(True)


def test_first_powers_agree(random100):
    # ntf_check starts at i = 2 because I^1 = I^(1) for every clutter
    for c in random100:
        assert ideals.ordinary_power(c.matrix, 1) == ideals.symbolic_power(c, 1)


def test_ntf_holds(reference_clutter, single_edge, two_star):
    for c in (reference_clutter, single_edge, two_star):
        assert ntf_check(c) == NtfResult(True)


def assert_ntf_witness(c, witness):
    """x^w is in I^(i) (weight >= i on every minimal cover) but not in I^i."""
    i, w = witness
    assert all(sum(w[v] for v in cover) >= i
               for cover in brute_minimal_covers(c.n, c.edges))
    assert not monoid_member(w, i, c.matrix.columns)


def cycle(n):
    return clutter_from_edges(n, [(k, (k + 1) % n) for k in range(n)])


@pytest.mark.parametrize("n, i_max, witness", [
    (7, 3, (8, (2,) * 7)),
    (9, 2, (10, (2,) * 9)),
])
def test_ntf_certificate_past_the_scan(n, i_max, witness):
    # no power up to i_max fails, yet the theorem gives ntf = mfmc = false:
    # the fractional vertex (1/2, ..., 1/2) has every edge tight
    c = cycle(n)
    assert ntf_check(c, i_max) == NtfResult(True)
    v = decide_mfmc(c, i_max)
    assert not v.mfmc and not v.ntf
    assert v.witnesses["ntf"] == witness
    assert_ntf_witness(c, witness)


def test_ntf_certificate_from_the_normality_witness(q6):
    # I^(1) = I, so power one finds nothing; Q6 fails normality at degree 2
    v = decide_mfmc(q6, i_max=1)
    assert v.integral and not v.normal and not v.ntf
    assert v.witnesses["ntf"] == (2, (1,) * 6) == (
        v.witnesses["normal"][-1], v.witnesses["normal"][:-1])
    assert_ntf_witness(q6, v.witnesses["ntf"])


def test_ntf_equals_mfmc_with_checked_witnesses(random100):
    # at i_max = 1 every failing verdict carries a certificate
    failing = 0
    for c in random100:
        v = decide_mfmc(c, i_max=1)
        assert v.ntf == v.mfmc
        if not v.ntf:
            failing += 1
            assert_ntf_witness(c, v.witnesses["ntf"])
    assert failing == 32


@pytest.mark.parametrize("name, scan, i_max, message", [
    ("triangle", NtfResult(True), 4,
     r"no power up to 4 fails, but certificate \(4, \(2, 2, 2\)\) does"),
], ids=["scan-misses-certificate"])
def test_ntf_scan_disagreeing_with_the_theorem(request, monkeypatch, name, scan,
                                               i_max, message):
    monkeypatch.setattr(decisions, "ntf_check", lambda a, i: scan)
    with pytest.raises(InconsistencyError, match=message):
        decide_mfmc(request.getfixturevalue(name), i_max)


def test_analyze_power_row_disagreeing_with_mfmc(monkeypatch):
    # decide_mfmc reads ntf off MFMC; analyze's power table is the cross-check
    doc = parse_input("4\n5\n1 0 0 0 1\n0 1 0 1 0\n0 0 1 1 1\n1 1 1 0 0\n3\n")
    real = ideals.symbolic_power
    monkeypatch.setattr(decisions, "symbolic_power",
                        lambda c, i, covers=None: real(c, 1 if i == 2 else i, covers))
    assert decide_mfmc(doc.clutter()).mfmc
    with pytest.raises(InconsistencyError, match="MFMC holds, but power 2 fails"):
        analyze(doc)


@pytest.mark.parametrize("bounds", [None, (4, 4), (5, 3)],
                         ids=["random100", "scan4x4", "scan5x3"])
def test_mfmc_clutters_pass_the_searches(bounds, random100):
    # MFMC at weights 0, 1 and large is Koenig on every minor, and I^i =
    # I^(i) for all i; the verdict reads both off MFMC, the searches agree
    family = random100 if bounds is None else list(enumerate_clutters(*bounds))
    verdicts = [decide_mfmc(c, i_max=1) for c in family]
    mfmc = [c for c, v in zip(family, verdicts) if v.mfmc]
    assert 0 < len(mfmc) < len(family)
    for c in mfmc:
        assert packing_property(c) == (True, None)
        assert covering_number(c) == matching_number(c)
        assert ntf_check(c, 2).ok
    # the converse direction the scan uses (Lehman): packing makes Q(A) integral
    for c, v in zip(family, verdicts):
        if not v.integral:
            assert not packing_property(c)[0]


@pytest.mark.parametrize("i_max", [2, 3, 4])
@pytest.mark.parametrize("module, constant, value, failing, early", [
    (linalg, "SEARCH_CAP", linalg.SEARCH_CAP, 32, 0), (ideals, "ORDINARY_CAP", 20, 21, 0),
    (linalg, "SEARCH_CAP", 40, 27, 9)], ids=["default", "ordinary-cap", "search-cap"])
def test_ntf_check_matches_the_full_powers(random100, monkeypatch, i_max, module,
                                           constant, value, failing, early):
    # the first generator of I^(i) that is no sum of i edges is the least one
    # outside I^i; the sums come under ORDINARY_CAP before the search, as I^i
    # did, so the same SizeLimit stops both.  The stream stops at the
    # witness, so under SEARCH_CAP it may answer where the full I^(i) is refused
    monkeypatch.setattr(module, constant, value)
    counts = Counter()
    for c in random100:
        full = search_outcome(full_power_ntf_check, c, i_max)
        streamed = search_outcome(ntf_check, c, i_max)
        if streamed != full:
            assert full.startswith("symbolic power enumeration") and not streamed.ok
            counts["early"] += 1
        counts["failing"] += not isinstance(streamed, str) and not streamed.ok
    assert (counts["failing"], counts["early"]) == (failing, early)


@pytest.mark.parametrize("name, i_max", [
    ("triangle", 4), ("q6", 3), ("reference_clutter", 4), ("K3,3", 4), ("C7", 4),
    *((f"C{n}", 3 if n < 12 else 2) for n in range(5, 14))])
def test_ntf_check_matches_the_full_powers_on_the_corpus(request, name, i_max):
    if name == "K3,3":
        c = clutter_from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])
    else:
        c = cycle(int(name[1:])) if name[0] == "C" else request.getfixturevalue(name)
    expected = full_power_ntf_check(c, i_max)
    assert ntf_check(c, i_max) == expected
    # an Analysis holding I^(i) reads it instead of the stream
    a = Analysis(c)
    powers_table(a, i_max)
    assert ntf_check(a, i_max) == expected


def test_ntf_check_stops_the_search_at_the_witness(triangle, monkeypatch, capsys,
                                                   tmp_path):
    # the covers take 6 search nodes and I^(2) takes 10, but its witness
    # x1x2x3 comes at the 5th: under a cap of 6 the full power is refused,
    # and the stream answers, also in mfmc, which exited 3 before
    monkeypatch.setattr(linalg, "SEARCH_CAP", 6)
    assert search_outcome(full_power_ntf_check, triangle, 2) == (
        "symbolic power enumeration: needs 7 states, cap is 6")
    assert ntf_check(triangle, 2) == NtfResult(False, 2, (1, 1, 1))
    path = tmp_path / "triangle.in"
    path.write_text("edge a b\nedge b c\nedge a c\n")
    assert main(["mfmc", str(path), "--imax", "2"]) == 0
    assert "ntf: false" in capsys.readouterr().out


def test_ntf_check_checks_the_ordinary_cap_first(triangle, monkeypatch, capsys, tmp_path):
    # C(3+1, 2) = 6 sums of two edges: refused before the covers or I^(2), with
    # the message of the full power
    monkeypatch.setattr(ideals, "ORDINARY_CAP", 5)
    message = "ordinary power enumeration: needs 6 states, cap is 5"
    assert search_outcome(full_power_ntf_check, triangle, 2) == message
    calls = count_calls(monkeypatch)
    with pytest.raises(SizeLimit) as exc:
        ntf_check(triangle, 2)
    assert str(exc.value) == message
    assert calls == {}
    path = tmp_path / "triangle.in"
    path.write_text("edge a b\nedge b c\nedge a c\n")
    assert main(["mfmc", str(path), "--imax", "2"]) == 3
    assert capsys.readouterr().err == f"size limit: {message}\n"


def test_mfmc_without_mfmc_builds_no_power(monkeypatch, triangle, q6, random100):
    # the ntf witness comes off the column sums and the symbolic stream
    family = [triangle, q6, cycle(5), cycle(7),
              *(c for c in random100 if not gr_reduced(c))]
    calls = count_calls(monkeypatch)
    verdicts = [decide_mfmc(c, 3) for c in family]
    assert not any(v.mfmc or v.ntf for v in verdicts)
    assert calls["minimal_vertex_covers"] == len(family)
    assert calls["ordinary_power"] == calls["symbolic_power"] == 0


# ---------------------------------------------------------------- tdi


def test_tdi_triangle(triangle):
    rep = tdi_bounded_check(triangle, 1)
    assert rep.bound == 1
    assert rep.checked == 8
    assert rep.counterexample == TdiCounterexample(
        (1, 1, 1), Fraction(3, 2), 1)
    # the same gap is the first one found with a wider box
    assert tdi_bounded_check(triangle, 2).counterexample.alpha == (1, 1, 1)


def test_tdi_reference_clean(reference_clutter):
    rep = tdi_bounded_check(reference_clutter, 2)
    assert rep.counterexample is None
    assert rep.checked == 3 ** 5


def test_tdi_rejects_degenerate_box(triangle):
    # the box {0}^n holds only alpha = 0: "no gap" there says nothing
    for bound in (0, -2):
        with pytest.raises(ValueError):
            tdi_bounded_check(triangle, bound)


def test_tdi_demand_box_is_capped(reference_clutter, monkeypatch):
    # 31^5 demands: the cap must fire before the Rees cone, its vertices or the grid
    def unreachable(m):
        raise AssertionError("Rees cone built past the cap")
    monkeypatch.setattr("mfmckit.decisions.rees_cone", unreachable)
    with pytest.raises(SizeLimit) as exc:
        tdi_bounded_check(reference_clutter, 30)
    assert (exc.value.stage, exc.value.needed, exc.value.cap) == (
        "tdi demand box", 31 ** 5, TDI_BOX_CAP)


def test_tdi_scan_matches_the_tuple_keyed_oracle(random100, triangle, q6,
                                                 reference_clutter):
    # the indexed table against one keyed by demand tuples, fed the facets
    # and the basic-solution vertices, at every bound B with (B+1)^n <= 10^5
    cycles = [clutter_from_edges(n, [(v, (v + 1) % n) for v in range(n)]) for n in (5, 7)]
    k33 = clutter_from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])
    family = [*random100, *random_clutters(count=100, seed=20261020),
              triangle, q6, reference_clutter, *cycles, k33]
    gaps = Counter()
    for c in family:
        normals = support_hyperplanes(c.matrix).vertex_normals
        vertices = qa_vertices_direct(c.matrix).vertices
        for bound in (1, 2, 3):
            if (bound + 1) ** c.n > 10 ** 5:
                continue
            checked, gap = tuple_keyed_tdi_scan(c.matrix.columns, normals, vertices, bound)
            expected = TdiReport(bound, checked, gap and TdiCounterexample(*gap))
            assert tdi_bounded_check(c, bound) == expected
            gaps[gap is not None] += 1
    assert gaps == {False: 426, True: 192}


FANO = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]


def _circulant(n, k):
    return [tuple((v + i) % n for i in range(k)) for v in range(n)]


@pytest.mark.parametrize("n, edges, lift, checked_at_3", [
    (1, [(0,)], 1, 4),
    (2, [(0, 1)], 1, 16),
    (5, _circulant(5, 2), 2, 342),
    (7, _circulant(7, 2), 2, 5462),
    (7, FANO, 3, 1366),
    (7, _circulant(7, 3), 3, 5462),
    (6, [(i, j) for i in range(3) for j in range(3, 6)], 1, 4 ** 6),
], ids=["edge", "n2", "C5", "C7", "fano", "C7_3", "K33"])
def test_tdi_scan_matches_the_oracle_on_each_half_box_shape(n, edges, lift, checked_at_3):
    # n = 1 has a head over no coordinates and odd n splits unevenly; Fano
    # and C_7^3 have normals with b = 3, which the random families lack;
    # K3,3 is bipartite, so its scan at B = 3 checks the last demand
    c = clutter_from_edges(n, edges)
    normals = support_hyperplanes(c.matrix).vertex_normals
    assert max(-f[-1] for f in normals) == lift
    vertices = qa_vertices_direct(c.matrix).vertices
    for bound in (1, 2, 3):
        checked, gap = tuple_keyed_tdi_scan(c.matrix.columns, normals, vertices, bound)
        expected = TdiReport(bound, checked, gap and TdiCounterexample(*gap))
        assert tdi_bounded_check(c, bound) == expected
    assert checked == checked_at_3


def test_tdi_scan_walks_a_half_million_demand_box():
    # two 10-vertex edges sharing one vertex: a totally unimodular matrix, so
    # no gap in all 2^19 demands, which walk heads of 9 and tails of 10 coordinates
    c = clutter_from_edges(19, [range(10), range(9, 19)])
    assert tdi_bounded_check(c, 1) == TdiReport(1, 2 ** 19)


# the symbolic power first finds the covers, 21 search nodes on the reference
# clutter, so its cap lets that search through
@pytest.mark.parametrize("module, constant, value, call, stage", [
    (linalg, "SEARCH_CAP", 1, lambda fx: clutters.minimal_vertex_covers(fx("reference_clutter")),
     "cover enumeration"),
    (linalg, "SEARCH_CAP", 50, lambda fx: ideals.symbolic_power(fx("reference_clutter"), 3),
     "symbolic power enumeration"),
    (ideals, "ORDINARY_CAP", 1, lambda fx: ideals.closure_power(fx("squares_matrix"), 2),
     "closure power enumeration"),
    (clutters, "MATCHING_CAP", 1, lambda fx: clutters.matching_number(fx("reference_clutter")),
     "matching search"),
    (clutters, "MINOR_CAP", 1, lambda fx: clutters.all_minors(fx("triangle")),
     "minor enumeration"),
    (cones, "QA_ENUM_CAP", 1, lambda fx: cones.qa_vertices_direct(fx("reference_matrix")),
     "vertex enumeration"),
    (hilbert, "DET_CAP", 1, lambda fx: hilbert.hilbert_basis(fx("squares_matrix")),
     "parallelepiped enumeration"),
    (hilbert, "SIMPLEX_CAP", 1, lambda fx: hilbert.hilbert_basis(fx("reference_matrix")),
     "placing triangulation"),
    (cones, "RAY_CAP", 1, lambda fx: cones.support_hyperplanes(fx("reference_matrix")),
     "double description"),
    (ideals, "ORDINARY_CAP", 1, lambda fx: ideals.ordinary_power(fx("reference_matrix"), 3),
     "ordinary power enumeration"),
], ids=["covers", "symbolic", "closure", "matching", "minors", "qa-vertices", "det",
        "simplices", "rays", "ordinary"])
def test_each_constant_is_the_cap(request, monkeypatch, module, constant, value, call, stage):
    # assigning a module's named cap changes the cap its check enforces
    monkeypatch.setattr(module, constant, value)
    with pytest.raises(SizeLimit) as exc:
        call(request.getfixturevalue)
    assert (exc.value.stage, exc.value.cap) == (stage, value)


# ---------------------------------------------------------------- no vacuous verdicts


def test_power_bounds_below_one_rejected(triangle):
    for i_max in (0, -1):
        with pytest.raises(ValueError):
            ntf_check(triangle, i_max)
        with pytest.raises(ValueError):
            decide_mfmc(triangle, i_max=i_max)
        with pytest.raises(ValueError):
            integrality_equivalences(triangle, i_max)
        with pytest.raises(ValueError):
            powers_table(triangle, i_max)


def test_analyze_rejects_vacuous_bounds():
    doc = parse_input("edge a b\nedge b c\nedge a c\n")
    with pytest.raises(ValueError):
        analyze(doc, i_max=0)
    with pytest.raises(ValueError):
        analyze(doc, tdi_bound=-2)
    # tdi_bound = 0 means the scan is off, not a scan of zero vectors
    assert analyze(doc, i_max=1, tdi_bound=0).tdi is None


def test_tdi_rational_side_against_enumeration(random100):
    # vertex minimum equals the basic-solution optimum of the packing LP
    small = [c for c in random100 if c.n <= 3 and c.q <= 4][:5]
    for c in small:
        cols = c.matrix.columns
        vertices = qa_vertices_direct(c.matrix).vertices
        for alpha in product(range(3), repeat=c.n):
            rational = min(dot(alpha, v) for v in vertices)
            assert rational == tdi_rational_max(cols, alpha)


def test_tdi_gap_certificates(random100):
    for c in random100[:20]:
        rep = tdi_bounded_check(c, 1)
        if rep.counterexample:
            ce = rep.counterexample
            assert ce.integral_value < ce.rational_value
            assert ce.integral_value == tdi_integral_max(c.matrix.columns, ce.alpha)
            assert ce.rational_value == tdi_rational_max(c.matrix.columns, ce.alpha)


# ---------------------------------------------------------------- equivalences


def test_equivalences_reference(reference_clutter):
    rep = integrality_equivalences(reference_clutter)
    assert rep.a_integral and rep.b_cover_facets
    assert rep.c_closure_symbolic == (True, True, True)
    assert rep.c_all


def test_equivalences_triangle(triangle):
    rep = integrality_equivalences(triangle)
    assert not rep.a_integral and not rep.b_cover_facets
    assert rep.c_closure_symbolic == (True, False, False)
    assert not rep.c_all


def test_equivalences_single(single_edge):
    rep = integrality_equivalences(single_edge, i_max=4)
    assert rep.a_integral and rep.b_cover_facets and rep.c_all
    assert rep.i_max == 4


def test_equivalences_consistent_on_sample(random100):
    # the three routes may only disagree by raising, which must not happen
    for c in random100[:25]:
        rep = integrality_equivalences(c, i_max=2)
        assert rep.a_integral == rep.b_cover_facets
        if rep.a_integral:
            assert rep.c_all


# ---------------------------------------------------------------- scans


def test_scan_counts(reference_clutter, triangle, two_star):
    rep = conjecture_scan([reference_clutter, triangle, two_star])
    assert rep.total == 3
    assert rep.packing_true == 2  # the triangle drops out
    assert rep.reduced_confirmed == 2
    assert rep.uniform_tested == 1  # only the star has constant edge size >= 2
    assert rep.torsion_free_confirmed == 1
    assert rep.clean


def test_scan_skips_non_packing(triangle):
    rep = conjecture_scan([triangle])
    assert rep.total == 1
    assert rep.packing_true == 0
    assert rep.reduced_confirmed == 0
    assert rep.uniform_tested == 0
    assert rep.clean


@pytest.mark.parametrize("bounds", [(4, 4), (5, 3)], ids=["scan4x4", "scan5x3"])
def test_scan_matches_the_minor_walk(bounds):
    # the scan reads packing off integrality and normality; the minor walk
    # and gr_reduced on each clutter are the oracle
    family = list(enumerate_clutters(*bounds))
    packing = [c for c in family if packing_property(c)[0]]
    reduced = [gr_reduced(c) for c in packing]
    uniform = [c for c in packing if len(set(map(sum, c.matrix.columns))) == 1
               and sum(c.matrix.columns[0]) >= 2]
    torsion_free = [smith_invariants(c.matrix).torsion_free for c in uniform]
    assert conjecture_scan(family) == ScanReport(
        len(family), len(packing), sum(reduced),
        tuple(c for c, ok in zip(packing, reduced) if not ok),
        len(uniform), sum(torsion_free),
        tuple(c for c, ok in zip(uniform, torsion_free) if not ok))


def test_scan_single_edge(single_edge):
    rep = conjecture_scan([single_edge])
    assert rep.packing_true == 1
    assert rep.reduced_confirmed == 1
    assert rep.uniform_tested == 0  # edge size one is excluded
    assert rep.clean


# ---------------------------------------------------------------- invariants


def test_verdict_invariants(random100):
    for c in random100[:40]:
        v = decide_mfmc(c, i_max=2)
        assert v.mfmc == (v.normal and v.integral)
        assert v.mfmc == gr_reduced(c)
        # the oracle routes: the full matching search and semigroup membership
        tau, nu = covering_number(c), matching_number(c)
        assert v.witnesses.get("koenig") == (None if tau == nu else (tau, nu))
        assert v.normal == all(semigroup_member(c.matrix, z)
                               for z in hilbert_basis(c.matrix))
        assert v.ntf == v.mfmc
        if not v.koenig:
            assert not v.packing
        if v.packing:
            assert v.koenig
        if v.witnesses.get("packing") == MinorSpec((), ()):
            assert not v.koenig
        for key in v.witnesses:
            assert not getattr(v, key if key != "torsion_free" else "torsion_free")


def test_mfmc_implies_no_bounded_tdi_gap(random100):
    for c in random100[:15]:
        if decide_mfmc(c, i_max=1).mfmc:
            assert tdi_bounded_check(c, 2).counterexample is None


def test_packing_failures_have_checkable_witness(random100):
    from mfmckit.clutters import koenig, minor
    for c in random100[:30]:
        ok, spec = packing_property(c)
        if not ok:
            assert not koenig(minor(c, spec))


# ---------------------------------------------------------------- one Analysis per clutter

# each counted function, by the module or class that defines it
COUNTED = {"ordinary_power": ideals, "symbolic_power": ideals,
           "closure_power": ideals, "qa_vertices_direct": cones,
           "support_hyperplanes": cones, "hilbert_basis": hilbert,
           "rees_cone": cones, "_dd_steps": cones,
           "qa_vertices": FacetClassification,
           "minimal_vertex_covers": clutters, "minor": clutters,
           "matching_number": clutters, "semigroup_member": hilbert,
           "packing_property": clutters, "_disjoint_edges": clutters,
           "_key_and_automorphisms": clutters}


def count_calls(monkeypatch) -> Counter:
    """Count calls of the counted functions made through their class or
    any mfmckit module attribute that refers to them."""
    calls = Counter()
    modules = [m for name, m in sys.modules.items()
               if name == "mfmckit" or name.startswith("mfmckit.")]
    for name, home in COUNTED.items():
        original = getattr(home, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        for owner in [*modules, home]:
            if getattr(owner, name, None) is original:
                monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("text, search", [
    ("edge 1 2\nedge 2 3\nedge 3 4\nedge 4 5\nedge 1 5\n", {"_disjoint_edges": 1}),
    ("4\n5\n1 0 0 0 1\n0 1 0 1 0\n0 0 1 1 1\n1 1 1 0 0\n3\n", {}),
    ("edge 1 2 3\nedge 1 4 5\nedge 2 4 6\nedge 3 5 6\n",
     {"_disjoint_edges": 1, "closure_power": 3}),
], ids=["C5", "reference", "Q6"])
def test_analyze_computes_each_object_once(monkeypatch, text, search):
    doc = parse_input(text)
    calls = count_calls(monkeypatch)
    analyze(doc, i_max=3, tdi_bound=2)
    # one Rees cone and one double description pass give the basis and the
    # facets; the vertices are read off the facets once, and basic-solution
    # vertices run once, as the cross-check of the facet route; neither the membership search nor the full matching
    # search runs; C5 fails Koenig, so its packing witness needs no minor
    # walk, and the reference example has MFMC, so it runs no search at all;
    # the closure powers are the kept I^i where R[It] is normal, and are read
    # off the basis on Q6, where it is not
    assert calls == {"ordinary_power": 3, "symbolic_power": 3,
                     "qa_vertices_direct": 1, "qa_vertices": 1, "rees_cone": 1,
                     "_dd_steps": 1,
                     "minimal_vertex_covers": 1, **search}


def test_mfmc_verdicts_run_no_search(monkeypatch, reference_clutter, single_edge,
                                     random100):
    family = [reference_clutter, single_edge,
              *(c for c in random100[:10] if gr_reduced(c))]
    assert len(family) > 2
    calls = count_calls(monkeypatch)
    for c in family:
        assert decide_mfmc(c).mfmc
    # integrality comes off the vertex normals, so no vertex list is built
    searches = ("packing_property", "_disjoint_edges", "minimal_vertex_covers",
                "ordinary_power", "symbolic_power", "qa_vertices")
    assert [calls[name] for name in searches] == [0] * len(searches)


def test_decisions_skip_basic_solution_vertices(monkeypatch, random100, tmp_path,
                                                capsys):
    calls = count_calls(monkeypatch)
    failing = fractional = 0
    for k, c in enumerate(random100[:10], start=1):
        # the covers serve only the witnesses of a clutter without MFMC, and
        # the witness of a fractional one is read off its vertex normals
        verdict = decide_mfmc(c, i_max=2)
        failing += not verdict.mfmc
        fractional += not verdict.integral
        assert calls["minimal_vertex_covers"] == failing
        assert calls["qa_vertices"] == 0
        # one Rees cone and one double description pass per verdict
        assert calls["rees_cone"] == calls["_dd_steps"] == k
    assert 0 < fractional <= failing < 10
    conjecture_scan(random100[:10])
    cones_before = calls["rees_cone"]
    assert calls["_dd_steps"] == cones_before
    path = tmp_path / "c5.in"
    path.write_text("edge 1 2\nedge 2 3\nedge 3 4\nedge 4 5\nedge 1 5\n")
    assert main(["mfmc", str(path), "--imax", "2"]) == 0
    assert "mfmc: false" in capsys.readouterr().out
    assert calls["rees_cone"] == calls["_dd_steps"] == cones_before + 1
    assert calls["qa_vertices"] == 0  # C5 is fractional, and builds no list either
    assert calls["qa_vertices_direct"] == calls["minor"] == 0
    assert calls["semigroup_member"] == calls["matching_number"] == 0
    assert calls["support_hyperplanes"] == calls["hilbert_basis"] == 0


def test_integrality_equivalences_build_no_vertex_list(monkeypatch, random100,
                                                        triangle, q6):
    # (a) comes off the vertex normals; the basic-solution vertices are the oracle
    family = [*random100[:20], triangle, q6]
    expected = [is_integral_qa(c.matrix, qa_vertices_direct(c.matrix).vertices)[0]
                for c in family]
    assert 0 < expected.count(False) < len(family)
    calls = count_calls(monkeypatch)
    assert [integrality_equivalences(c, 2).a_integral for c in family] == expected
    assert calls["qa_vertices"] == calls["qa_vertices_direct"] == 0


def test_analyze_checks_the_tdi_box_first(monkeypatch):
    # 31^5 demands: refused before any Rees-cone object is built
    doc = parse_input("4\n5\n1 0 0 0 1\n0 1 0 1 0\n0 0 1 1 1\n1 1 1 0 0\n3\n")
    calls = count_calls(monkeypatch)
    with pytest.raises(SizeLimit) as exc:
        analyze(doc, tdi_bound=30)
    assert str(exc.value) == "tdi demand box: needs 28629151 states, cap is 1000000"
    assert calls == {}


def test_analysis_gives_the_clutter_results(random100):
    for c in random100:
        a = Analysis(c)
        assert decide_mfmc(a) == decide_mfmc(c)
        assert ntf_check(a) == ntf_check(c)
        assert integrality_equivalences(a) == integrality_equivalences(c)
        assert tdi_bounded_check(a, 2) == tdi_bounded_check(c, 2)
        assert gr_reduced(a) == gr_reduced(c)
        assert powers_table(a) == powers_table(c)


@pytest.mark.parametrize("fact", [
    decide_mfmc, ntf_check, integrality_equivalences, gr_reduced, powers_table,
    tdi_bounded_check], ids=lambda fact: fact.__name__)
def test_fact_functions_take_an_exponent_matrix(fact, random100, squares_matrix,
                                                mixed_pair_matrix):
    # a 0/1 matrix is read as its clutter; any other matrix is not square-free
    for c in random100[:20]:
        assert fact(c.matrix) == fact(c)
    for m in (squares_matrix, mixed_pair_matrix):
        with pytest.raises(NotSquareFree):
            fact(m)


def test_analysis_reads_basis_and_facets_off_one_pass(monkeypatch, random100,
                                                      reference_clutter, triangle,
                                                      q6, single_edge, two_star):
    cycles = [clutter_from_edges(n, [(i, (i + 1) % n) for i in range(n)])
              for n in range(5, 10)]
    family = [*random100, reference_clutter, triangle, q6, single_edge, two_star,
              *cycles]
    # the public wrappers, each with its own Rees cone and pass, are the oracle
    expected = [(support_hyperplanes(c.matrix), hilbert_basis(c.matrix))
                for c in family]
    calls = count_calls(monkeypatch)
    for k, (c, (facets, basis)) in enumerate(zip(family, expected), start=1):
        first = Analysis(c)
        assert (first.basis, first.facets) == (basis, facets)
        # one pass, whichever is read first
        assert calls["_dd_steps"] == 2 * k - 1
        second = Analysis(c)
        assert (second.facets, second.basis) == (facets, basis)
        assert calls["_dd_steps"] == 2 * k
        assert calls["rees_cone"] == 2 * k
    assert calls["support_hyperplanes"] == calls["hilbert_basis"] == 0


def test_scan_makes_one_pass_per_clutter(monkeypatch):
    # every 4x4 and 5x3 clutter is either fractional or integral and normal,
    # so packing comes off the one pass and no cover or minor search runs;
    # integrality comes off the vertex-facet lifts, so no vertex is built;
    # the facts hold for every relabelling, so one pass serves each
    # isomorphism class: 26 classes among 119 clutters, 48 among 975.  The
    # class scan keys only the families with non-increasing vertex degrees,
    # 52 and 209, and no class is a counterexample, so it walks the
    # labelled clutters no second time
    calls = count_calls(monkeypatch)
    for bounds, report, classes, keys in [
            ((4, 4), ScanReport(119, 75, 75, (), 34, 34, ()), 26, 52),
            ((5, 3), ScanReport(975, 647, 647, (), 157, 157, ()), 48, 209)]:
        for scan, keyed in [(lambda: conjecture_scan(enumerate_clutters(*bounds)), report.total),
                            (lambda: class_scan(*bounds), keys)]:
            assert scan() == report
            assert calls["_key_and_automorphisms"] == keyed
            assert calls["_dd_steps"] == calls["rees_cone"] == classes
            assert calls["packing_property"] == calls["minimal_vertex_covers"] == 0
            assert calls["qa_vertices"] == calls["qa_vertices_direct"] == 0
            calls.clear()


def test_full_five_vertex_scan(monkeypatch):
    # all 7,020 clutters on at most five vertices, 208 isomorphism classes
    monkeypatch.setattr(clutters, "ENUMERATION_CAP", 2 ** 32)
    calls = count_calls(monkeypatch)
    report = conjecture_scan(enumerate_clutters(5, 31))
    assert report == ScanReport(7020, 1177, 1177, (), 370, 370, ())
    assert calls["_dd_steps"] == calls["rees_cone"] == 208
    assert calls["packing_property"] == 0
    # the class scan keys the 959 families with non-increasing degrees
    calls.clear()
    assert class_scan(5, 31) == report
    assert calls["_key_and_automorphisms"] == 959
    assert calls["_dd_steps"] == calls["rees_cone"] == 208
    assert calls["packing_property"] == 0


def test_class_scan_past_the_relabel_cap_raises(monkeypatch, capsys):
    # a class's copy count needs every relabelling of its key; past
    # RELABEL_CAP it would be wrong, so the scan stops as a bug (exit 4)
    monkeypatch.setattr(clutters, "RELABEL_CAP", 1)
    with pytest.raises(InconsistencyError, match="past RELABEL_CAP = 1"):
        class_scan(4, 4)
    assert main(["scan", "--max-vertices", "2", "--max-edges", "2"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "internal error: class key of ((1,), (0,)) is past RELABEL_CAP = 1: "
        "its labelled copies cannot be counted\n")


@pytest.mark.parametrize("bounds", [(4, 4), (5, 3)], ids=["scan4x4", "scan5x3"])
def test_scan_lists_every_member_of_a_failing_class(monkeypatch, bounds):
    # a Smith form reporting torsion for every even edge count fails whole
    # classes; the counterexamples are then every labelled member, in family
    # order, as a per-clutter loop without the memo lists them
    family = list(enumerate_clutters(*bounds))
    smith_calls = []

    def torsion_when_even(m):
        smith_calls.append(m)
        return hilbert.SmithInvariants((), 0, m.q % 2 == 1)
    monkeypatch.setattr(decisions, "smith_invariants", torsion_when_even)
    facts = [decisions._scan_facts(c) for c in family]
    uniform = [c for c, (packing, _, uni, _) in zip(family, facts) if packing and uni]
    bad = tuple(c for c, (packing, _, uni, ok) in zip(family, facts)
                if packing and uni and not ok)
    del smith_calls[:]
    report = conjecture_scan(family)
    assert report.torsion_counterexamples == bad
    assert (report.uniform_tested, report.torsion_free_confirmed) == (
        len(uniform), len(uniform) - len(bad))
    # one Smith form per class, and some failing class has several members
    classes = {clutters._canonical_key(c) for c in uniform}
    assert len(smith_calls) == len(classes) < len(uniform)
    assert len({clutters._canonical_key(c) for c in bad}) < len(bad)
    # the class scan lists the same members: it walks the labelled
    # clutters again for the failing classes
    del smith_calls[:]
    assert class_scan(*bounds) == report
    assert len(smith_calls) == len(classes)


def test_scan_past_the_relabel_cap_analyses_each_copy(monkeypatch):
    # with RELABEL_CAP = 1 a clutter with a block of two or more vertices
    # keys on its labelled edges, so its copies each get a pass: the twelve
    # labelled 5-cycles get twelve, and the 26 classes of 4x4 get 55 instead
    # of one per class or 119; the report does not change
    c5 = [(i, (i + 1) % 5) for i in range(5)]
    copies = tuple(dict.fromkeys(clutter_from_edges(5, [[p[v] for v in e] for e in c5])
                                 for p in permutations(range(5))))
    assert len(copies) == 12
    expected = {family: conjecture_scan(family)
                for family in (copies, tuple(enumerate_clutters(4, 4)))}
    monkeypatch.setattr(clutters, "RELABEL_CAP", 1)
    calls = count_calls(monkeypatch)
    for (family, report), passes in zip(expected.items(), (12, 55)):
        assert conjecture_scan(family) == report
        assert calls["_dd_steps"] == passes
        calls.clear()


@pytest.mark.parametrize("bounds, fractional", [
    ((1, 4), 0), ((2, 2), 0), ((3, 3), 1), ((3, 10 ** 9), 1), ((4, 4), 44),
    ((5, 3), 328), ((5, 4), 1804), (None, 32)],
    ids=["1x4", "2x2", "3x3", "3xall", "4x4", "5x3", "5x4", "random100"])
def test_integrality_by_lift_matches_the_vertex_denominators(bounds, fractional,
                                                               random100):
    # a vertex normal's lift is -1 exactly when its vertex is integral, and
    # the least lift below -1 names the least fractional vertex; the
    # denominators of the basic-solution vertices are the oracle
    family = random100 if bounds is None else list(enumerate_clutters(*bounds))
    lifted = [Analysis(c).integral for c in family]
    assert lifted == [is_integral_qa(c.matrix, qa_vertices_direct(c.matrix).vertices)
                      for c in family]
    assert [holds for holds, _ in lifted].count(False) == fractional


def test_mfmc_integral_witness_is_the_least_fractional_vertex(random100):
    for c in [*random100, *enumerate_clutters(4, 4)]:
        v = decide_mfmc(c, i_max=2)
        assert (v.integral, v.witnesses.get("integral")) == is_integral_qa(
            c.matrix, qa_vertices_direct(c.matrix).vertices)


def test_mfmc_builds_no_fraction_list(monkeypatch, random100, tmp_path, capsys):
    # every vertex list, read off the facets or by basic solutions, is built
    # by _sorted_fractions; decide_mfmc and the mfmc command build none, also
    # where they name a fractional vertex
    lists = []
    sorted_fractions = cones._sorted_fractions

    def counted(points):
        lists.append(points)
        return sorted_fractions(points)
    monkeypatch.setattr(cones, "_sorted_fractions", counted)
    verdicts = [decide_mfmc(c, i_max=2) for c in random100]
    path = tmp_path / "c5.in"
    path.write_text("edge 1 2\nedge 2 3\nedge 3 4\nedge 4 5\nedge 1 5\n")
    assert main(["mfmc", str(path), "--imax", "2"]) == 0
    assert "witness: 1/2 1/2 1/2 1/2 1/2" in capsys.readouterr().out
    assert lists == []
    assert sum("integral" in v.witnesses for v in verdicts) == 32
    assert Analysis(random100[0]).facets.qa_vertices() and len(lists) == 1  # the counter counts


def test_tdi_check_builds_no_fraction_list(monkeypatch, random100):
    # a gap's rational value is read off the vertex normals; the least
    # <alpha, v> over the basic-solution vertices is the oracle
    oracle = {c: qa_vertices_direct(c.matrix).vertices for c in random100}
    lists = []
    sorted_fractions = cones._sorted_fractions

    def counted(points):
        lists.append(points)
        return sorted_fractions(points)
    monkeypatch.setattr(cones, "_sorted_fractions", counted)
    gaps = 0
    for c in random100:
        gap = tdi_bounded_check(c, 2).counterexample
        if gap is not None:
            gaps += 1
            assert gap.rational_value == min(dot(gap.alpha, v) for v in oracle[c])
            assert gap.integral_value < gap.rational_value
    # every one of the 32 clutters with a fractional vertex has a gap in the box
    assert lists == [] and gaps == 32


def test_searches_leave_no_reference_cycles(triangle, monkeypatch):
    # the recursive searches and the clutter walk drop their self-referencing
    # closures on return, so nothing waits for the cyclic collector, also when
    # a cap stops them, the walk is closed early or a stream is left early
    c5 = clutter_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    gc.collect()
    gc.disable()
    try:
        for c in (c5, triangle):
            assert not decide_mfmc(c).mfmc
            assert gc.collect() == 0
        covers = clutters.minimal_vertex_covers(c5)  # the cap below would stop this search too
        # ntf_check leaves the stream of I^(3) at its witness x1...x5
        assert ntf_check(Analysis(c5), 3) == NtfResult(False, 3, (1,) * 5)
        assert gc.collect() == 0
        stream = ideals._symbolic_points(c5, 3, covers)
        assert next(stream) == (0, 0, 0, 3, 3)
        del stream
        assert gc.collect() == 0
        monkeypatch.setattr(linalg, "SEARCH_CAP", 10)
        with pytest.raises(SizeLimit, match="symbolic power enumeration: needs 11 states"):
            symbolic_power(c5, 3, covers)
        assert gc.collect() == 0
        monkeypatch.setattr(clutters, "MATCHING_CAP", 2)
        with pytest.raises(SizeLimit, match="matching search: needs 3 states"):
            matching_number(c5)
        assert gc.collect() == 0
        assert semigroup_member(triangle.matrix, (1, 1, 1, 1))
        assert gc.collect() == 0
        assert sum(1 for _ in enumerate_clutters(4, 4)) == 119
        assert gc.collect() == 0
        walk = enumerate_clutters(4, 4)
        assert next(walk).edges == ((0,),)
        walk.close()
        assert gc.collect() == 0
    finally:
        gc.enable()
