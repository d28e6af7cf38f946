"""Input parsing, the full analysis pipeline, and text/JSON rendering.

Two input dialects are accepted: the classic integer-block format
(count, dimension, rows, trailing mode digit) and a line-oriented edge
list.  Text output mirrors the classic generator/hyperplane blocks.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from fractions import Fraction

from .clutters import Clutter, ExponentMatrix, MinorSpec, MINOR_CAP, _default_labels
from .cones import FacetClassification, QAPolyhedron, qa_vertices_direct
from .decisions import (
    ScanReport,
    TdiCounterexample,
    TdiReport,
    Verdict,
    as_analysis,
    decide_mfmc,
    integrality_equivalences,
    require_i_max,
    require_tdi_box,
    tdi_bounded_check,
)
from .errors import (
    DimensionMismatch,
    InconsistencyError,
    NotZeroOne,
    ParseError,
    Record,
    UnsupportedMode,
)

REES_MODE = "rees"


class InputDocument(Record):
    matrix: ExponentMatrix
    labels: tuple
    mode: str
    source_format: str
    # (input line, generator) in input order; the matrix sorts its columns
    source_rows: tuple = ()
    _hidden = ("source_rows",)

    def clutter(self) -> Clutter:
        try:
            return Clutter(self.matrix, self.labels)
        except NotZeroOne:  # name the first bad entry in input order
            for r, (line, row) in enumerate(self.source_rows):
                for col, x in enumerate(row):
                    if x not in (0, 1):
                        raise NotZeroOne(r, col, x, line) from None
            raise


def _natural_key(name: str):
    parts = re.split(r"(\d+)", name)
    return tuple(int(p) if p.isdigit() else p for p in parts)


def _parse_normaliz(lines) -> InputDocument:
    stream = [(no, ln.split()) for no, ln in lines]
    pos = 0

    def take_int_line(what):
        nonlocal pos
        if pos >= len(stream):
            raise DimensionMismatch(stream[-1][0], f"missing {what}")
        no, toks = stream[pos]
        if len(toks) != 1 or not re.fullmatch(r"-?\d+", toks[0]):
            raise ParseError(no, f"expected a single integer ({what})")
        pos += 1
        return no, int(toks[0])

    _, q = take_int_line("generator count")
    _, n = take_int_line("dimension")
    if q < 1 or n < 1:
        raise DimensionMismatch(stream[0][0], f"bad shape {q} x {n}")
    rows = []
    for r in range(q):
        if pos >= len(stream):
            raise DimensionMismatch(stream[-1][0],
                                    f"expected {q} rows, found {r}")
        no, toks = stream[pos]
        pos += 1
        if len(toks) != n:
            raise DimensionMismatch(no, f"row has {len(toks)} entries, expected {n}")
        try:
            row = tuple(int(t) for t in toks)
        except ValueError:
            raise ParseError(no, "non-integer entry") from None
        if any(x < 0 for x in row):
            raise ParseError(no, "negative entry")
        rows.append((no, row))
    no, mode = take_int_line("mode digit")
    if mode != 3:
        raise UnsupportedMode(no, f"mode {mode} is not supported (only 3)")
    if pos < len(stream):
        raise ParseError(stream[pos][0], "unexpected trailing content")
    matrix = ExponentMatrix(tuple(row for _, row in rows))
    return InputDocument(matrix, _default_labels(n), REES_MODE, "normaliz", tuple(rows))


def _parse_native(lines) -> InputDocument:
    edges = []
    for no, ln in lines:
        text = ln.strip().rstrip(";").strip()
        toks = text.split()
        if not toks:
            raise ParseError(no, "';' without a directive")
        if toks[0] != "edge":
            raise ParseError(no, f"unknown directive {toks[0]!r}")
        if ";" in text:
            raise ParseError(no, "';' before the end of the line: one edge per line")
        if "edge" in toks[1:]:
            raise ParseError(no, "a second 'edge' on the line: one edge per line")
        if any(t.startswith("#") for t in toks[1:]):
            raise ParseError(no, "'#' after an edge: comments take a whole line")
        if len(toks) == 1:
            raise ParseError(no, "edge without vertices")
        if len(set(toks)) < len(toks):  # "edge" is not among the vertices
            twice = next(v for k, v in enumerate(toks) if v in toks[:k])
            raise ParseError(no, f"vertex {twice!r} twice in one edge")
        edges.append(tuple(toks[1:]))
    names = sorted({v for e in edges for v in e}, key=_natural_key)
    rows = tuple(tuple(int(v in e) for v in names) for e in edges)
    return InputDocument(ExponentMatrix(rows), tuple(names), REES_MODE, "native")


def parse_input(text: str) -> InputDocument:
    """Parse either input dialect, sniffing from the first content line;
    one leading byte-order mark is dropped."""
    lines = [(no, ln) for no, ln in enumerate(text.removeprefix("\ufeff").splitlines(), start=1)]
    content = [(no, ln) for no, ln in lines
               if ln.strip() and not ln.strip().startswith("#")]
    if not content:
        raise ParseError(1, "empty input")
    first = content[0][1].split()[0]
    if re.fullmatch(r"-?\d+", first):
        return _parse_normaliz(content)
    if first == "edge":
        return _parse_native(content)
    raise ParseError(content[0][0], f"unrecognized input starting with {first!r}")


class PowerRow(Record):
    i: int
    ordinary: int
    symbolic: int
    closure: int
    ordinary_eq_symbolic: bool
    closure_eq_symbolic: bool
    ordinary_eq_closure: bool


class Report(Record):
    document: InputDocument
    verdict: Verdict
    hilbert_basis: tuple
    facets: FacetClassification
    vertices: QAPolyhedron
    powers: tuple
    tdi: TdiReport = None


def powers_table(source, i_max: int = 3):
    require_i_max(i_max)
    a = as_analysis(source)
    out = []
    for i in range(1, i_max + 1):
        o, s, cl = (a.power(kind, i) for kind in ("ordinary", "symbolic", "closure"))
        out.append(PowerRow(i, len(o), len(s), len(cl),
                            o.gens == s.gens, cl.gens == s.gens, o.gens == cl.gens))
    return tuple(out)


def analyze(doc: InputDocument, i_max: int = 3, tdi_bound: int = 0,
            minor_cap: int = MINOR_CAP) -> Report:
    """Run the whole pipeline on a clutter input document, through one Analysis.

    Each power row must show I^i = I^(i) when the verdict has MFMC; the
    covering-polyhedron vertices read off the facets must match basic
    solutions; a mismatch is a bug and raises InconsistencyError, and
    integrality_equivalences cross-checks the power/facet readings.
    tdi_bound = 0 skips the duality-gap scan, and an oversized demand box
    is refused before any Rees-cone object is built."""
    if tdi_bound < 0:
        raise ValueError(f"tdi_bound must be >= 0 (0 = off), got {tdi_bound}")
    a = as_analysis(doc.clutter())
    if tdi_bound:
        require_tdi_box(a.clutter.n, tdi_bound)
    basis = a.basis  # the placing pass meets its caps before any power meets its own
    powers = powers_table(a, i_max)
    verdict = decide_mfmc(a, i_max=i_max, minor_cap=minor_cap)
    for row in powers:
        if verdict.mfmc and not row.ordinary_eq_symbolic:
            raise InconsistencyError(f"MFMC holds, but power {row.i} fails")
    vertices = QAPolyhedron(a.clutter.matrix, a.facets.qa_vertices())
    direct = qa_vertices_direct(a.clutter.matrix)
    if direct != vertices:
        raise InconsistencyError(
            f"vertex routes disagree: {direct.vertices} vs {vertices.vertices}"
        )
    integrality_equivalences(a, i_max)
    tdi = tdi_bounded_check(a, tdi_bound) if tdi_bound else None
    return Report(doc, verdict, basis, a.facets, vertices, powers, tdi)


# ---------------------------------------------------------------- text


def _frac_str(x) -> str:
    return str(Fraction(x))


def _words(xs) -> str:
    return " ".join(str(x) for x in xs)


# per Verdict fact after mfmc, in field order: witness text, JSON value, read-back
Witness = namedtuple("Witness", "text to_json from_json")
WITNESSES = {
    "normal": Witness(lambda w: "   witness: " + _words(w), list, tuple),
    "integral": Witness(lambda w: "   witness: " + _words(w),
                        lambda w: [_frac_str(x) for x in w],
                        lambda d: tuple(Fraction(s) for s in d)),
    "koenig": Witness(lambda w: f"   covering {w[0]} != matching {w[1]}",
                      lambda w: {"covering": w[0], "matching": w[1]},
                      lambda d: (d["covering"], d["matching"])),
    "packing": Witness(lambda w: f"   witness: zeros={list(w.zeros)} ones={list(w.ones)}",
                       lambda w: {"zeros": list(w.zeros), "ones": list(w.ones)},
                       lambda d: MinorSpec(tuple(d["zeros"]), tuple(d["ones"]))),
    "torsion_free": Witness(lambda w: f"   invariant factors {list(w)}", list, tuple),
    "ntf": Witness(lambda w: f"   witness: i={w[0]} monomial " + _words(w[1]),
                   lambda w: {"i": w[0], "monomial": list(w[1])},
                   lambda d: (d["i"], tuple(d["monomial"]))),
}


def _bool(b) -> str:
    return "true" if b else "false"


def generator_block(rows) -> str:
    lines = [f"{len(rows)} generators of integral closure of Rees algebra: "]
    lines += ["".join(f"{x:3d}" for x in r) for r in sorted(rows)]
    return "\n".join(lines)


def hyperplane_block(rows) -> str:
    lines = [f"{len(rows)} support hyperplanes: "]
    lines += ["".join(f"{x:4d}" for x in r) for r in sorted(rows)]
    return "\n".join(lines)


def vertex_lines(vertices) -> str:
    return "\n".join(_words(v) for v in vertices)


def verdict_lines(v: Verdict) -> str:
    lines = []
    for k in ("mfmc", *WITNESSES):
        line = f"{k}: {_bool(getattr(v, k))}"
        if k in v.witnesses:
            line += WITNESSES[k].text(v.witnesses[k])
        lines.append(line)
    lines.append(f"powers checked up to i = {v.i_max_checked}")
    return "\n".join(lines)


def powers_lines(rows) -> str:
    head = "  i  ordinary  symbolic  closure  ord=symb  clos=symb  ord=clos"
    lines = [head]
    for r in rows:
        lines.append(
            f"{r.i:3d}{r.ordinary:10d}{r.symbolic:10d}{r.closure:9d}"
            f"{_bool(r.ordinary_eq_symbolic):>10}{_bool(r.closure_eq_symbolic):>11}"
            f"{_bool(r.ordinary_eq_closure):>10}"
        )
    return "\n".join(lines)


def tdi_lines(t: TdiReport) -> str:
    lines = [f"tdi check up to demand bound {t.bound}: {t.checked} vectors examined"]
    if t.counterexample is None:
        lines.append("no duality gap found")
    else:
        ce = t.counterexample
        lines.append(
            "duality gap at alpha = " + _words(ce.alpha)
            + f": rational {ce.rational_value}, integral {ce.integral_value}"
        )
    return "\n".join(lines)


def render_text(report: Report) -> str:
    parts = [
        generator_block(report.hilbert_basis),
        "",
        hyperplane_block(report.facets.all_rows()),
        "",
        "vertices of covering polyhedron:",
        vertex_lines(report.vertices.vertices),
        "",
        verdict_lines(report.verdict),
        "",
        powers_lines(report.powers),
    ]
    if report.tdi is not None:
        parts += ["", tdi_lines(report.tdi)]
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------- json


def facets_to_dict(fc: FacetClassification) -> dict:
    return {"coordinate_indices": list(fc.coordinate_indices),
            "vertex_normals": [list(f) for f in fc.vertex_normals]}


def basis_to_list(basis) -> list:
    return [list(z) for z in basis]


def vertices_to_list(vertices) -> list:
    return [[_frac_str(x) for x in v] for v in vertices]


def powers_to_list(rows) -> list:
    return [dict(vars(r)) for r in rows]


def verdict_to_dict(v: Verdict) -> dict:
    """The verdict's fields as JSON-ready values, keyed by field name."""
    return dict(vars(v), witnesses={k: WITNESSES[k].to_json(w)
                                    for k, w in v.witnesses.items()})


def scan_to_dict(report: ScanReport) -> dict:
    """The scan's fields as JSON-ready values, counterexamples as edge lists."""
    return dict(vars(report), **{
        k: [[list(e) for e in c.edges] for c in getattr(report, k)]
        for k in ("reduced_counterexamples", "torsion_counterexamples")})


def report_to_dict(report: Report) -> dict:
    doc = report.document
    data = {
        "input": {
            "columns": [list(c) for c in doc.matrix.columns],
            "labels": list(doc.labels),
            "mode": doc.mode,
            "source_format": doc.source_format,
        },
        "verdict": verdict_to_dict(report.verdict),
        "hilbert_basis": basis_to_list(report.hilbert_basis),
        "support_hyperplanes": facets_to_dict(report.facets),
        "vertices": vertices_to_list(report.vertices.vertices),
        "powers": powers_to_list(report.powers),
        "tdi": None,
    }
    if report.tdi is not None:
        t = {"bound": report.tdi.bound, "checked": report.tdi.checked,
             "counterexample": None}
        if report.tdi.counterexample is not None:
            ce = report.tdi.counterexample
            t["counterexample"] = {
                "alpha": list(ce.alpha),
                "rational": _frac_str(ce.rational_value),
                "integral": ce.integral_value,
            }
        data["tdi"] = t
    return data


def report_to_json(report: Report) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"


def report_from_dict(data: dict) -> Report:
    inp = data["input"]
    matrix = ExponentMatrix(tuple(tuple(c) for c in inp["columns"]))
    doc = InputDocument(matrix, tuple(inp["labels"]), inp["mode"],
                        inp["source_format"])
    dv = data["verdict"]
    verdict = Verdict(**dict(dv, witnesses={k: WITNESSES[k].from_json(w)
                                            for k, w in dv["witnesses"].items()}))
    basis = tuple(tuple(z) for z in data["hilbert_basis"])
    sh = data["support_hyperplanes"]
    fc = FacetClassification(
        matrix.n + 1,
        tuple(sh["coordinate_indices"]),
        tuple(tuple(f) for f in sh["vertex_normals"]),
    )
    vertices = QAPolyhedron(
        matrix, tuple(tuple(Fraction(s) for s in vv) for vv in data["vertices"])
    )
    powers = tuple(PowerRow(**r) for r in data["powers"])
    tdi = None
    if data.get("tdi") is not None:
        t = data["tdi"]
        ce = None
        if t["counterexample"] is not None:
            cd = t["counterexample"]
            ce = TdiCounterexample(tuple(cd["alpha"]), Fraction(cd["rational"]),
                                   cd["integral"])
        tdi = TdiReport(t["bound"], t["checked"], ce)
    return Report(doc, verdict, basis, fc, vertices, powers, tdi)


def report_from_json(text: str) -> Report:
    return report_from_dict(json.loads(text))
