import json

import pytest

from mfmckit.decisions import Verdict
from mfmckit.errors import (
    DimensionMismatch, NotAntichain, NotZeroOne, ParseError, UnsupportedMode)
from mfmckit.reporting import (
    WITNESSES,
    analyze,
    generator_block,
    hyperplane_block,
    parse_input,
    powers_table,
    render_text,
    report_from_json,
    report_to_dict,
    report_to_json,
    vertex_lines,
)

REFERENCE_INPUT = "4\n5\n1 0 0 0 1\n0 1 0 1 0\n0 0 1 1 1\n1 1 1 0 0\n3\n"

REFERENCE_TEXT = "\n".join([
    "9 generators of integral closure of Rees algebra: ",
    "  0  0  0  0  1  0",
    "  0  0  0  1  0  0",
    "  0  0  1  0  0  0",
    "  0  0  1  1  1  1",
    "  0  1  0  0  0  0",
    "  0  1  0  1  0  1",
    "  1  0  0  0  0  0",
    "  1  0  0  0  1  1",
    "  1  1  1  0  0  1",
    "",
    "10 support hyperplanes: ",
    "   0   0   0   0   0   1",
    "   0   0   0   0   1   0",
    "   0   0   0   1   0   0",
    "   0   0   1   0   0   0",
    "   0   0   1   1   1  -1",
    "   0   1   0   0   0   0",
    "   0   1   0   0   1  -1",
    "   1   0   0   0   0   0",
    "   1   0   0   1   0  -1",
    "   1   1   1   0   0  -1",
    "",
    "vertices of covering polyhedron:",
    "0 0 1 1 1",
    "0 1 0 0 1",
    "1 0 0 1 0",
    "1 1 1 0 0",
    "",
    "mfmc: true",
    "normal: true",
    "integral: true",
    "koenig: true",
    "packing: true",
    "torsion_free: false   invariant factors [1, 1, 1, 2]",
    "ntf: true",
    "powers checked up to i = 3",
    "",
    "  i  ordinary  symbolic  closure  ord=symb  clos=symb  ord=clos",
    "  1         4         4        4      true       true      true",
    "  2         9         9        9      true       true      true",
    "  3        16        16       16      true       true      true",
    "",
])


# ---------------------------------------------------------------- parsing


def test_parse_classic_block(reference_matrix):
    doc = parse_input(REFERENCE_INPUT)
    assert doc.matrix == reference_matrix
    assert doc.labels == ("x1", "x2", "x3", "x4", "x5")
    assert doc.mode == "rees"
    assert doc.source_format == "normaliz"


def test_parse_classic_tolerates_comments_and_blanks(reference_matrix):
    messy = ("# incidence data\n\n4\n5\n\n1 0 0 0 1\n0 1 0 1 0\n"
             "# middle note\n0 0 1 1 1\n1 1 1 0 0\n\n3\n\n")
    assert parse_input(messy).matrix == reference_matrix


def test_parse_native(triangle):
    doc = parse_input("edge a b;\nedge b c;\nedge a c;\n")
    assert doc.labels == ("a", "b", "c")
    assert doc.matrix == triangle.matrix
    assert doc.source_format == "native"


def test_parse_native_tolerates_comments_blanks_and_semicolons(triangle):
    doc = parse_input("edge a b;\n   # indented note\n\nedge b c ;\n\tedge a c;\n")
    assert doc.labels == ("a", "b", "c")
    assert doc.matrix == triangle.matrix
    assert doc.clutter().edges == triangle.edges


def test_parse_names_the_first_dominating_pair_in_sorted_order():
    # three dominating pairs; the sorted columns name (0,0,1) | (0,1,1) first
    with pytest.raises(NotAntichain) as err:
        parse_input("3\n3\n1 1 1\n0 1 1\n0 0 1\n3\n")
    assert (err.value.smaller, err.value.larger) == ((0, 0, 1), (0, 1, 1))
    assert str(err.value) == "generator (0, 0, 1) divides generator (0, 1, 1)"


def test_parse_native_natural_label_order():
    doc = parse_input("edge x10 x2\nedge x1 x10\n")
    assert doc.labels == ("x1", "x2", "x10")


def test_parse_errors_carry_line_numbers():
    # header promises four rows but only three follow
    truncated = "4\n5\n1 0 0 0 1\n0 1 0 1 0\n0 0 1 1 1\n"
    with pytest.raises(ParseError) as exc:
        parse_input(truncated)
    assert isinstance(exc.value, DimensionMismatch)
    assert exc.value.line == 5
    assert "expected 4 rows, found 3" in str(exc.value)

    with pytest.raises(DimensionMismatch) as exc:
        parse_input("2\n2\n1 0\n0 1\n")  # mode digit missing
    assert exc.value.line == 4

    with pytest.raises(UnsupportedMode) as exc:
        parse_input("2\n2\n1 0\n0 1\n2\n")
    assert exc.value.line == 5

    with pytest.raises(DimensionMismatch) as exc:
        parse_input("2\n3\n1 1 0\n1 0\n3\n")
    assert exc.value.line == 4
    assert "row has 2 entries" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_input("1\n2\n1 -1\n3\n")
    assert exc.value.line == 3
    assert "negative" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_input("1\n2\n1 a\n3\n")
    assert exc.value.line == 3

    with pytest.raises(ParseError) as exc:
        parse_input("1\n1\n1\n3\nleftover\n")
    assert exc.value.line == 5

    with pytest.raises(DimensionMismatch):
        parse_input("0\n2\n3\n")


def test_entry_error_names_the_input_line():
    # the matrix sorts (2, 0) after (0, 1); the error must still point
    # at the first data row, on line 3
    doc = parse_input("2\n2\n2 0\n0 1\n3\n")
    with pytest.raises(NotZeroOne) as exc:
        doc.clutter()
    assert (exc.value.line, exc.value.row, exc.value.col, exc.value.value) == (3, 0, 0, 2)
    assert str(exc.value) == "line 3: entry 2 at row 0, column 0 is not 0/1"


@pytest.mark.parametrize("text, message", [
    # one bad entry, on the last data line; it sorts to the middle column
    ("# c\n3\n3\n0 0 1\n\n1 1 0\n0 2 0\n3\n", "line 7: entry 2 at row 2, column 1 is not 0/1"),
    # two bad entries in two rows: the later one in input order sorts first
    ("3\n3\n1 1 0\n0 3 0\n0 0 2\n3\n", "line 4: entry 3 at row 1, column 1 is not 0/1"),
    # two bad entries in one row
    ("2\n3\n0 1 1\n4 0 2\n3\n", "line 4: entry 4 at row 1, column 0 is not 0/1"),
])
def test_entry_error_names_the_first_bad_entry_in_input_order(text, message):
    with pytest.raises(NotZeroOne) as exc:
        parse_input(text).clutter()
    assert str(exc.value) == message


def test_parse_rejects_junk():
    with pytest.raises(ParseError) as exc:
        parse_input("")
    assert exc.value.line == 1
    with pytest.raises(ParseError):
        parse_input("# only comments\n")
    with pytest.raises(ParseError) as exc:
        parse_input("vertex a b\n")
    assert "unrecognized" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_input("edge a b\nfoo bar\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_input("edge\n")
    with pytest.raises(ParseError) as exc:
        parse_input("edge x1 x2\n;\nedge x2 x3\n")  # a bare terminator line
    assert exc.value.line == 2


# ---------------------------------------------------------------- rendering


def test_render_reference_golden():
    report = analyze(parse_input(REFERENCE_INPUT))
    assert render_text(report) == REFERENCE_TEXT


def test_render_triangle_sections():
    report = analyze(parse_input("edge a b\nedge b c\nedge a c\n"), tdi_bound=1)
    text = render_text(report)
    lines = text.splitlines()
    assert "6 generators of integral closure of Rees algebra: " in lines
    assert "8 support hyperplanes: " in lines
    assert "   1   1   1  -2" in lines
    assert "1/2 1/2 1/2" in lines
    assert "mfmc: false" in lines
    assert "integral: false   witness: 1/2 1/2 1/2" in lines
    assert "koenig: false   covering 2 != matching 1" in lines
    assert "packing: false   witness: zeros=[] ones=[]" in lines
    assert "ntf: false   witness: i=2 monomial 1 1 1" in lines
    assert "tdi check up to demand bound 1: 8 vectors examined" in lines
    assert "duality gap at alpha = 1 1 1: rational 3/2, integral 1" in lines
    assert text.endswith("\n")


def test_render_without_tdi_has_no_tdi_block():
    report = analyze(parse_input("edge a b\nedge b c\nedge a c\n"))
    assert "tdi check" not in render_text(report)


def test_render_deterministic():
    report = analyze(parse_input(REFERENCE_INPUT))
    assert render_text(report) == render_text(report)


def test_block_helpers():
    assert generator_block([(1, 0), (0, 1)]) == (
        "2 generators of integral closure of Rees algebra: \n  0  1\n  1  0")
    assert hyperplane_block([(1, -1)]) == "1 support hyperplanes: \n   1  -1"
    from fractions import Fraction
    assert vertex_lines([(Fraction(1, 2), Fraction(3))]) == "1/2 3"


def test_powers_table_triangle(triangle):
    rows = powers_table(triangle, 3)
    assert [(r.i, r.ordinary, r.symbolic, r.closure) for r in rows] == [
        (1, 3, 3, 3), (2, 6, 4, 6), (3, 10, 6, 10)]
    assert all(r.ordinary_eq_closure for r in rows)
    assert [r.ordinary_eq_symbolic for r in rows] == [True, False, False]
    assert [r.closure_eq_symbolic for r in rows] == [True, False, False]


# ---------------------------------------------------------------- json


def _reports():
    yield analyze(parse_input(REFERENCE_INPUT))
    yield analyze(parse_input("edge a b\nedge b c\nedge a c\n"), tdi_bound=1)
    yield analyze(parse_input("edge a b\nedge a c\n"), tdi_bound=1)


def test_json_round_trip():
    for report in _reports():
        text = report_to_json(report)
        back = report_from_json(text)
        assert back == report
        assert report_to_json(back) == text


def test_json_shape():
    report = analyze(parse_input(REFERENCE_INPUT))
    data = json.loads(report_to_json(report))
    assert data["verdict"]["mfmc"] is True
    assert data["verdict"]["witnesses"] == {"torsion_free": [1, 1, 1, 2]}
    assert data["input"]["labels"] == ["x1", "x2", "x3", "x4", "x5"]
    assert len(data["hilbert_basis"]) == 9
    assert len(data["support_hyperplanes"]["vertex_normals"]) == 4
    assert data["tdi"] is None
    assert data["vertices"][0] == ["0", "0", "1", "1", "1"]


def test_json_fraction_witness():
    report = analyze(parse_input("edge a b\nedge b c\nedge a c\n"), tdi_bound=1)
    data = report_to_dict(report)
    assert data["verdict"]["witnesses"]["integral"] == ["1/2", "1/2", "1/2"]
    assert data["tdi"]["counterexample"]["rational"] == "3/2"
    back = report_from_json(report_to_json(report))
    assert back.verdict.witnesses["integral"] == report.verdict.witnesses["integral"]


def test_witness_table_follows_the_verdict_fields():
    # verdict_lines prints mfmc, then every fact of this table, in order
    names = list(Verdict._fields)
    assert ["mfmc", *WITNESSES] == names[:names.index("witnesses")]
