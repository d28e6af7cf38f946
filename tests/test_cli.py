import hashlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mfmckit
from mfmckit import ideals, linalg
from mfmckit.cli import main
from mfmckit.errors import (
    ClassificationError, InconsistencyError, MfmcError, SizeLimit)

from test_reporting import REFERENCE_INPUT, REFERENCE_TEXT

TRIANGLE_NATIVE = "edge a b\nedge b c\nedge a c\n"
Q6_NATIVE = "edge 1 2 3\nedge 1 4 5\nedge 2 4 6\nedge 3 5 6\n"
C5_NATIVE = "edge 1 2\nedge 2 3\nedge 3 4\nedge 4 5\nedge 1 5\n"

# the flags each subcommand's handler reads
READS = {
    "analyze": ("--format", "--imax", "--minor-cap", "--tdi-bound"),
    "facets": ("--format",),
    "hilbert": ("--format",),
    "vertices": ("--format",),
    "powers": ("--format", "--imax"),
    "mfmc": ("--format", "--imax", "--minor-cap"),
    "scan": ("--format", "--max-vertices", "--max-edges"),
}
FLAGS = sorted({flag for flags in READS.values() for flag in flags})


@pytest.fixture
def reference_file(tmp_path):
    path = tmp_path / "reference.in"
    path.write_text(REFERENCE_INPUT)
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.in"
    path.write_text(TRIANGLE_NATIVE)
    return str(path)


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------- analyze


def test_analyze_text_matches_library_rendering(capsys, reference_file):
    rc, out, err = run(capsys, ["analyze", reference_file])
    assert rc == 0 and err == ""
    assert out == REFERENCE_TEXT


def test_analyze_json(capsys, reference_file):
    rc, out, _ = run(capsys, ["analyze", reference_file, "--format", "json"])
    assert rc == 0
    data = json.loads(out)
    assert data["verdict"]["mfmc"] is True
    assert data["verdict"]["witnesses"] == {"torsion_free": [1, 1, 1, 2]}
    assert data["tdi"] is None


def test_analyze_tdi_flag(capsys, triangle_file):
    rc, out, _ = run(capsys, ["analyze", triangle_file, "--tdi-bound", "1"])
    assert rc == 0
    assert "duality gap at alpha = 1 1 1: rational 3/2, integral 1" in out


def test_analyze_imax_flag(capsys, triangle_file):
    rc, out, _ = run(capsys, ["analyze", triangle_file, "--imax", "1"])
    assert rc == 0
    assert "powers checked up to i = 1" in out
    assert "  2  " not in out.split("ord=clos")[1]


def test_analyze_runs_are_identical(capsys, reference_file):
    _, first, _ = run(capsys, ["analyze", reference_file, "--format", "json"])
    _, second, _ = run(capsys, ["analyze", reference_file, "--format", "json"])
    assert first == second


# ---------------------------------------------------------------- sub-reports


def test_facets_text(capsys, reference_file):
    rc, out, _ = run(capsys, ["facets", reference_file])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "10 support hyperplanes: "
    assert "   1   1   1   0   0  -1" in lines


def test_facets_json(capsys, reference_file):
    rc, out, _ = run(capsys, ["facets", reference_file, "--format", "json"])
    data = json.loads(out)
    assert data["coordinate_indices"] == [0, 1, 2, 3, 4, 5]
    assert sorted(data["vertex_normals"]) == [
        [0, 0, 1, 1, 1, -1], [0, 1, 0, 0, 1, -1],
        [1, 0, 0, 1, 0, -1], [1, 1, 1, 0, 0, -1]]


def test_hilbert_output(capsys, reference_file):
    rc, out, _ = run(capsys, ["hilbert", reference_file])
    assert rc == 0
    assert out.splitlines()[0] == "9 generators of integral closure of Rees algebra: "
    rc, out, _ = run(capsys, ["hilbert", reference_file, "--format", "json"])
    assert len(json.loads(out)) == 9


def test_vertices_output(capsys, triangle_file):
    rc, out, _ = run(capsys, ["vertices", triangle_file])
    assert rc == 0
    assert "1/2 1/2 1/2" in out.splitlines()
    rc, out, _ = run(capsys, ["vertices", triangle_file, "--format", "json"])
    assert ["1/2", "1/2", "1/2"] in json.loads(out)


def test_powers_output(capsys, triangle_file):
    rc, out, _ = run(capsys, ["powers", triangle_file])
    assert rc == 0
    assert out.splitlines()[0].startswith("  i  ordinary")
    rc, out, _ = run(capsys, ["powers", triangle_file, "--format", "json"])
    rows = json.loads(out)
    assert [r["symbolic"] for r in rows] == [3, 4, 6]


def test_mfmc_output(capsys, triangle_file):
    rc, out, _ = run(capsys, ["mfmc", triangle_file])
    assert rc == 0
    assert "mfmc: false" in out
    assert "ntf: false   witness: i=2 monomial 1 1 1" in out
    rc, out, _ = run(capsys, ["mfmc", triangle_file, "--format", "json"])
    data = json.loads(out)
    assert data["mfmc"] is False
    assert data["witnesses"]["integral"] == ["1/2", "1/2", "1/2"]
    assert data["witnesses"]["ntf"] == {"i": 2, "monomial": [1, 1, 1]}


def test_mfmc_ntf_past_the_power_scan(capsys, tmp_path):
    # C7 first fails at I^4 != I^(4), past the default --imax 3; ntf equals
    # mfmc and the certificate is tested in test_decisions
    path = tmp_path / "c7.in"
    path.write_text("".join(f"edge {k} {k % 7 + 1}\n" for k in range(1, 8)))
    rc, out, _ = run(capsys, ["mfmc", str(path)])
    assert rc == 0
    assert "mfmc: false" in out
    assert "ntf: false   witness: i=8 monomial 2 2 2 2 2 2 2" in out
    rc, out, _ = run(capsys, ["mfmc", str(path), "--format", "json"])
    data = json.loads(out)
    assert (data["mfmc"], data["ntf"]) == (False, False)
    assert data["witnesses"]["ntf"] == {"i": 8, "monomial": [2] * 7}


def test_mfmc_eleven_cycle_at_the_default_imax(capsys, tmp_path):
    # the third symbolic power of C11 lies past the (i + 1)^n box of 4^11
    # points; the minimal-point search reaches it
    path = tmp_path / "c11.in"
    path.write_text("".join(f"edge {k} {k % 11 + 1}\n" for k in range(1, 12)))
    rc, out, _ = run(capsys, ["mfmc", str(path), "--format", "json"])
    assert rc == 0
    data = json.loads(out)
    assert (data["mfmc"], data["ntf"], data["i_max_checked"]) == (False, False, 3)
    assert data["witnesses"]["ntf"] == {"i": 12, "monomial": [2] * 11}


def _cycle(n):
    return "".join(f"edge {k} {k % n + 1}\n" for k in range(1, n + 1))


def test_mfmc_fifteen_cycle_at_the_default_imax(capsys, tmp_path):
    # no power up to 3 fails, so the symbolic powers I^(2) and I^(3) are
    # searched to their end before the certificate i = n + 1 answers
    path = tmp_path / "c15.in"
    path.write_text(_cycle(15))
    rc, out, err = run(capsys, ["mfmc", str(path), "--format", "json"])
    assert (rc, err) == (0, "")
    assert out == json.dumps({
        "i_max_checked": 3, "integral": False, "koenig": False, "mfmc": False,
        "normal": True, "ntf": False, "packing": False, "torsion_free": True,
        "witnesses": {
            "integral": ["1/2"] * 15,
            "koenig": {"covering": 8, "matching": 7},
            "ntf": {"i": 16, "monomial": [2] * 15},
            "packing": {"ones": [], "zeros": []},
        },
    }, indent=2) + "\n"


@pytest.mark.parametrize("text, argv, line", [
    (_cycle(12), [], "mfmc: true"),
    (_cycle(14), ["--imax", "1"], "mfmc: true"),
    ("".join(f"edge a{i} b{j}\n" for i in range(5) for j in range(5)),
     ["--imax", "1"], "mfmc: true"),
    (_cycle(16), [], "mfmc: true"),
    (_cycle(15), ["--imax", "1"], "packing: false   witness: zeros=[] ones=[]"),
    (_cycle(25), ["--imax", "1"], "koenig: false   covering 13 != matching 12"),
], ids=["C12", "C14-imax1", "K55-imax1", "C16", "C15-imax1", "C25-imax1"])
def test_mfmc_verdicts_past_the_search_caps(capsys, tmp_path, text, argv, line):
    # MFMC answers Koenig, packing and ntf with no search, and a clutter
    # that fails Koenig fails packing at the first minor spec, itself; the
    # matching search is bounded by its nodes, so C25's 25 edges are no bar
    path = tmp_path / "c.in"
    path.write_text(text)
    rc, out, err = run(capsys, ["mfmc", str(path), *argv])
    assert (rc, err) == (0, "")
    assert line in out.splitlines()


# ---------------------------------------------------------------- scan


def test_scan_text(capsys):
    rc, out, _ = run(capsys, ["scan", "--max-vertices", "3", "--max-edges", "3"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "scanned 12 clutters (up to 3 vertices, 3 edges)"
    assert lines[1] == "packing property holds: 11"  # the triangle drops out
    assert lines[2].startswith("reduced associated graded ring: 11 confirmed")
    assert lines[3].startswith("uniform edge size >= 2: 5 tested, 5 torsion-free")
    assert lines[-1] == "bounded evidence only; the underlying conjectures stay open"
    assert not any(line.startswith("COUNTEREXAMPLE") for line in lines)


def test_scan_json(capsys):
    rc, out, _ = run(capsys, ["scan", "--max-vertices", "3", "--max-edges", "3",
                              "--format", "json"])
    data = json.loads(out)
    assert data["total"] == 12
    assert data["packing_true"] == 11
    assert data["reduced_counterexamples"] == []
    assert data["torsion_counterexamples"] == []
    assert "open" in data["note"]


def test_scan_counterexamples(capsys, monkeypatch):
    # no small clutter is a real counterexample, so normality is made to fail
    # for two isomorphism classes and torsion-freeness for one, to pin how
    # counterexamples print; the scan reads each fact once per class, so the
    # classes are picked by their edge sizes, which relabelling keeps: a
    # vertex and a disjoint pair, three single vertices, and two pairs
    import mfmckit.decisions as decisions
    from mfmckit.hilbert import SmithInvariants

    def sizes(m):
        return tuple(sorted(map(sum, m.columns)))
    is_normal, smith = decisions.is_normal, decisions.smith_invariants
    monkeypatch.setattr(decisions, "is_normal",
                        lambda m, basis: (False, None)
                        if sizes(m) in {(1, 2), (1, 1, 1)}
                        else is_normal(m, basis))
    monkeypatch.setattr(decisions, "smith_invariants",
                        lambda m: SmithInvariants((1, 2), 2, False)
                        if sizes(m) == (2, 2) else smith(m))
    argv = ["scan", "--max-vertices", "3", "--max-edges", "3"]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert out == "\n".join([
        "scanned 12 clutters (up to 3 vertices, 3 edges)",
        "packing property holds: 11",
        "reduced associated graded ring: 7 confirmed, 4 counterexamples",
        "uniform edge size >= 2: 5 tested, 2 torsion-free, 3 counterexamples",
        "COUNTEREXAMPLE (reduced): (('x2', 'x3'), ('x1',))",
        "COUNTEREXAMPLE (reduced): (('x2',), ('x1', 'x3'))",
        "COUNTEREXAMPLE (reduced): (('x3',), ('x1', 'x2'))",
        "COUNTEREXAMPLE (reduced): (('x3',), ('x2',), ('x1',))",
        "COUNTEREXAMPLE (torsion): (('x1', 'x3'), ('x1', 'x2'))",
        "COUNTEREXAMPLE (torsion): (('x2', 'x3'), ('x1', 'x2'))",
        "COUNTEREXAMPLE (torsion): (('x2', 'x3'), ('x1', 'x3'))",
        "bounded evidence only; the underlying conjectures stay open",
    ]) + "\n"
    rc, out, _ = run(capsys, argv + ["--format", "json"])
    assert rc == 0
    assert out == json.dumps({
        "note": "bounded evidence only; the underlying conjectures stay open",
        "packing_true": 11,
        "reduced_confirmed": 7,
        "reduced_counterexamples": [[[1, 2], [0]], [[1], [0, 2]], [[2], [0, 1]],
                                    [[2], [1], [0]]],
        "torsion_counterexamples": [[[0, 2], [0, 1]], [[1, 2], [0, 1]],
                                    [[1, 2], [0, 2]]],
        "torsion_free_confirmed": 2,
        "total": 12,
        "uniform_tested": 5,
    }, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("bounds", [(4, 4), (5, 3)], ids=["scan4x4", "scan5x3"])
def test_scan_of_failing_classes_matches_the_labelled_scan(capsys, monkeypatch, bounds):
    # a Smith form reporting torsion for every even edge count fails whole
    # classes; scan analyses one clutter per class, and its report lists
    # the same labelled counterexamples, in the same order, as the scan of
    # every labelled clutter
    import mfmckit.decisions as decisions
    from mfmckit.clutters import enumerate_clutters
    from mfmckit.hilbert import SmithInvariants
    from mfmckit.reporting import scan_to_dict

    monkeypatch.setattr(decisions, "smith_invariants",
                        lambda m: SmithInvariants((), 0, m.q % 2 == 1))
    labelled = decisions.conjecture_scan(enumerate_clutters(*bounds))
    assert labelled.torsion_counterexamples
    rc, out, _ = run(capsys, ["scan", "--max-vertices", str(bounds[0]),
                              "--max-edges", str(bounds[1]), "--format", "json"])
    assert rc == 0
    data = json.loads(out)
    assert data.pop("note").startswith("bounded evidence only")
    assert data == scan_to_dict(labelled)


# ---------------------------------------------------------------- byte identity

# sha256 of stdout, recorded before the input subcommands shared one handler
STDOUT_SHA256 = {
    ("triangle", "analyze", "text"): "93610835b6fa1cb210a8abd6473ee52177fb3a617182a3d99b970effd1c6b6ae",
    ("triangle", "analyze", "json"): "d310b0872a1d6d407132136b281fa4a966f1eb697e8e75df18d7faf1874673e5",
    ("triangle", "mfmc", "text"): "1bfaa86efdd0d50a19d5835a866be396c290f31324a59a85df6cd9f8903b80b2",
    ("triangle", "mfmc", "json"): "4413ab2584077479d8e1cadb7d548738ca559d9689f4e9fb40ba2a5d230ad7b1",
    ("triangle", "powers", "text"): "9ea4311211023698c3cfaf5f5cc53be6819979325b70232085d29116decd7ca7",
    ("triangle", "powers", "json"): "c97774de16a3f4d9e0e81e6a75a4166ad2dce899fb726deea8fb2ac1cf4a3061",
    ("q6", "analyze", "text"): "a21f3e1cfc2f447dad11b79d37e7fb2fdb287105e07a6b0d861c55206c253ea1",
    ("q6", "analyze", "json"): "140bc101dfe3f555ae45d1cda287dfe082a91a208098d4737cc5fda83955339c",
    ("q6", "mfmc", "text"): "bb1223301d8ae2ff8cadaabbc16831e07683eb9759190dfe4685670d044c7f29",
    ("q6", "mfmc", "json"): "7c02faf172a05a2352fb6f84fc01939ceb954ac7385a8b77f14e4a1c2564b6f8",
    ("q6", "powers", "text"): "4fd56c54126cc17df9cdb50a6b2b9ea73bb3d30301c2be988e8cbf4a1d0b5cfa",
    ("q6", "powers", "json"): "ecd100e3828612a8045900eecd4f41c2ffdcca9bed77dfaa8efeca5312b57597",
    ("reference", "analyze", "text"): "11572826e8dfaf5d8985d0f54c0042da9f2fb12266c38bee3ba47ca569d4627a",
    ("reference", "analyze", "json"): "18baca7afd10b918a06a82e95dea32b3f278997c6ca2a6aab88c61c165b740ac",
    ("reference", "mfmc", "text"): "62f383384e96e5aa377c1d4884fbd9f117e1d6e164d86dd59fed3d96bb77e0e4",
    ("reference", "mfmc", "json"): "4653a769520ecb2bd808ed077e538464b3c6515bea10b2223ebbe26d44f6ab8b",
    ("reference", "powers", "text"): "ed039b615684ed7bb532871597411e0137917e1ce0cec25ee9c0b2141e85f13e",
    ("reference", "powers", "json"): "7a8889ea75df69e0146996a5217a4b10cb2f3f024d2431a0756f4252c5c0688f",
    ("c5", "analyze", "text"): "e9a195281ba4343f1d34f6cba40e38e4657fe8d9153719a19906b9cecf512f89",
    ("c5", "analyze", "json"): "a417177c431b13b47f7cb4ce909317543640f9a980aa8cb4f8792ed924b6f13b",
    ("c5", "mfmc", "text"): "260bb8f1ae207f6bbf25cbf54df531a6012878f8459383466b70559597433c13",
    ("c5", "mfmc", "json"): "3f55a096b17857c57888046242735e255194a46578f2ed132b8231582d4795ee",
    ("c5", "powers", "text"): "43dd0e387aca264dd9bdb99234ecbe9f7885451fd7a13d9bf22730d1b3d52b85",
    ("c5", "powers", "json"): "ab33a07b361d3b422dad10abe53a99ff0fd4896f20c6d54701449a0c74d57fed",
}
DIGEST_INPUTS = {"triangle": TRIANGLE_NATIVE, "q6": Q6_NATIVE,
                 "reference": REFERENCE_INPUT, "c5": C5_NATIVE}


@pytest.mark.parametrize("name, command, fmt", sorted(STDOUT_SHA256))
def test_stdout_is_byte_identical(capsys, tmp_path, name, command, fmt):
    path = tmp_path / f"{name}.in"
    path.write_text(DIGEST_INPUTS[name])
    extra = ["--tdi-bound", "2"] if command == "analyze" else []
    rc, out, err = run(capsys, [command, str(path), "--format", fmt, *extra])
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[name, command, fmt]


# ---------------------------------------------------------------- wiring


def test_stdin_dash(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(TRIANGLE_NATIVE))
    rc, out, _ = run(capsys, ["vertices"])
    assert rc == 0
    assert "1/2 1/2 1/2" in out


def test_input_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.in"
    bad.write_text("edge\n")
    rc, out, err = run(capsys, ["analyze", str(bad)])
    assert rc == 2
    assert out == ""
    assert err.startswith("input error: ")

    nested = tmp_path / "nested.in"
    nested.write_text("edge a b\nedge a b c\n")  # second edge contains the first
    rc, _, err = run(capsys, ["mfmc", str(nested)])
    assert rc == 2
    assert err.startswith("input error: ")


@pytest.mark.parametrize("text, reason", [
    ("edge x1 x2; edge x2 x3;\n", "';' before the end of the line"),
    ("edge a b edge c d\n", "a second 'edge' on the line"),
], ids=["semicolon", "second-edge"])
def test_two_edges_on_one_line_are_an_input_error(capsys, tmp_path, text, reason):
    # read as one edge, either line would give a single-edge clutter with MFMC
    path = tmp_path / "merged.in"
    path.write_text(text)
    rc, out, err = run(capsys, ["mfmc", str(path)])
    assert (rc, out, err) == (2, "", f"input error: line 1: {reason}: one edge per line\n")


def test_inline_comment_is_an_input_error(capsys, tmp_path):
    # read as labels, "# first" would give the edge {#, a, b, first} and MFMC
    path = tmp_path / "commented.in"
    path.write_text("edge a b # first\nedge b c\n")
    rc, out, err = run(capsys, ["mfmc", str(path)])
    assert (rc, out, err) == (
        2, "", "input error: line 1: '#' after an edge: comments take a whole line\n")


def test_repeated_vertex_in_an_edge_is_an_input_error(capsys, tmp_path):
    # merged, "edge a a b" would be the edge {a, b}, with the facets of {a, b}, {c}
    path = tmp_path / "repeated.in"
    path.write_text("edge a a b\nedge c\n")
    rc, out, err = run(capsys, ["facets", str(path)])
    assert (rc, out, err) == (2, "", "input error: line 1: vertex 'a' twice in one edge\n")


@pytest.mark.parametrize("text", [TRIANGLE_NATIVE, REFERENCE_INPUT], ids=["native", "normaliz"])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_a_leading_byte_order_mark_is_dropped(capsys, monkeypatch, tmp_path, text, source):
    # the input reads as it does without the mark; a second mark is content
    plain = tmp_path / "plain.in"
    plain.write_text(text)
    expected = run(capsys, ["analyze", str(plain)])
    assert expected[0] == 0
    for marks, want in [(1, expected), (2, None)]:
        data = b"\xef\xbb\xbf" * marks + text.encode()
        if source == "stdin":
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
            argv = ["analyze", "-"]
        else:
            marked = tmp_path / "marked.in"
            marked.write_bytes(data)
            argv = ["analyze", str(marked)]
        got = run(capsys, argv)
        if want is None:
            first = text.split()[0]
            assert got == (2, "", f"input error: line 1: unrecognized input starting with "
                                  f"{chr(0xFEFF) + first!r}\n")
        else:
            assert got == want


@pytest.mark.parametrize("make, reason", [
    (lambda path: None, "No such file or directory"),
    (lambda path: path.mkdir(), "Is a directory"),
    (lambda path: path.write_bytes(b"edge a \xff\n"),
     "'utf-8' codec can't decode byte 0xff in position 7: invalid start byte"),
], ids=["missing", "directory", "not-utf8"])
def test_unreadable_input_is_an_input_error(capsys, tmp_path, make, reason):
    path = tmp_path / "clutter.in"
    make(path)
    rc, out, err = run(capsys, ["mfmc", str(path)])
    assert (rc, out, err) == (2, "", f"input error: {path}: {reason}\n")


def test_size_limit_exit_code(capsys, tmp_path):
    # the triangle plus a pendant edge is Koenig but has no MFMC, so the
    # packing witness needs the minor walk
    path = tmp_path / "pendant.in"
    path.write_text(TRIANGLE_NATIVE + "edge c d\n")
    rc, out, err = run(capsys, ["mfmc", str(path), "--minor-cap", "1"])
    assert rc == 3
    assert out == ""
    assert err == "size limit: minor enumeration: needs 81 states, cap is 1\n"


@pytest.mark.parametrize("argv, message", [
    (["analyze", "{r}", "--tdi-bound", "30"],
     "size limit: tdi demand box: needs 28629151 states, cap is 1000000\n"),
    (["scan", "--max-vertices", "6", "--max-edges", "6"],
     "size limit: clutter enumeration: needs 76564490 states, cap is 1000000\n"),
])
def test_demand_box_and_enumeration_caps(capsys, reference_file, argv, message):
    rc, out, err = run(capsys, [a.format(r=reference_file) for a in argv])
    assert (rc, out, err) == (3, "", message)


def test_search_cap_constant_binds_in_mfmc(capsys, tmp_path, monkeypatch):
    # the cover search on C5 visits 4 nodes before it passes a cap of 3
    monkeypatch.setattr(linalg, "SEARCH_CAP", 3)
    path = tmp_path / "c5.in"
    path.write_text(C5_NATIVE)
    rc, out, err = run(capsys, ["mfmc", str(path)])
    assert (rc, out, err) == (
        3, "", "size limit: cover enumeration: needs 4 states, cap is 3\n")


def test_analyze_meets_the_power_caps_before_the_minor_walk(capsys, tmp_path, monkeypatch):
    # analyze builds its power table before the verdict, so when a power cap
    # and the minor cap both bind, the power cap stops it; mfmc builds no
    # power and still stops at the minor walk of the packing witness
    path = tmp_path / "pendant.in"
    path.write_text(TRIANGLE_NATIVE + "edge c d\n")
    minors = "size limit: minor enumeration: needs 81 states, cap is 1\n"
    assert run(capsys, ["analyze", str(path), "--minor-cap", "1"]) == (3, "", minors)
    monkeypatch.setattr(ideals, "ORDINARY_CAP", 5)
    assert run(capsys, ["analyze", str(path), "--minor-cap", "1"]) == (
        3, "", "size limit: ordinary power enumeration: needs 10 states, cap is 5\n")
    assert run(capsys, ["mfmc", str(path), "--minor-cap", "1"]) == (3, "", minors)


def test_internal_error_exit_code(capsys, reference_file, monkeypatch):
    from mfmckit.cones import FacetClassification
    monkeypatch.setattr(FacetClassification, "qa_vertices", lambda fc: ())
    rc, out, err = run(capsys, ["analyze", reference_file])
    assert rc == 4
    assert out == ""
    assert err.startswith("internal error: vertex routes disagree")
    assert "Traceback" not in err


def test_classification_error_exit_code(capsys, reference_file, monkeypatch):
    import mfmckit.cli as cli
    from mfmckit.errors import ClassificationError

    def broken(m):
        raise ClassificationError("normal fits neither family")
    monkeypatch.setattr(cli, "support_hyperplanes", broken)
    rc, out, err = run(capsys, ["facets", reference_file])
    assert (rc, out) == (4, "")
    assert err == "internal error: normal fits neither family\n"


def _concrete_errors(cls=MfmcError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _concrete_errors(sub)


@pytest.mark.parametrize("error", list(_concrete_errors()),
                         ids=lambda cls: cls.__name__)
def test_every_error_class_has_an_exit_code(capsys, reference_file, monkeypatch,
                                            error):
    import mfmckit.cli as cli

    def failing(text):
        # built without __init__, whose signature differs from class to class
        raise error.__new__(error, "boom")
    monkeypatch.setattr(cli, "parse_input", failing)
    if issubclass(error, SizeLimit):
        expected = 3, "size limit: "
    elif issubclass(error, (InconsistencyError, ClassificationError)):
        expected = 4, "internal error: "
    else:
        expected = 2, "input error: "
    rc, out, err = run(capsys, ["facets", reference_file])
    assert (rc, out, err) == (expected[0], "", expected[1] + "boom\n")


@pytest.mark.parametrize("argv", [
    ["mfmc", "{t}", "--imax", "0"],
    ["analyze", "{t}", "--imax", "-1"],
    ["powers", "{t}", "--imax", "0"],
    ["analyze", "{t}", "--tdi-bound", "-2"],
    ["analyze", "{t}", "--imax", "two"],
    ["scan", "--max-vertices", "0"],
    ["scan", "--max-edges", "0"],
    ["mfmc", "{t}", "--minor-cap", "-5"],
    ["analyze", "{t}", "--minor-cap", "0"],
])
def test_vacuous_bounds_are_usage_errors(capsys, triangle_file, argv):
    with pytest.raises(SystemExit) as exc:
        main([a.format(t=triangle_file) for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[-2]}: " in captured.err


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in READS for flag in FLAGS
    if flag not in READS[command]])
def test_unread_flags_are_usage_errors(capsys, triangle_file, command, flag):
    # the value 0 makes (scan, --imax) the case scan --imax 0: the flag
    # itself must be rejected, not its value
    argv = [command] + ([] if command == "scan" else [triangle_file])
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag} 0" in captured.err


@pytest.mark.parametrize("command", sorted(READS))
def test_each_subcommand_takes_the_flags_it_reads(capsys, triangle_file, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == {"--help", *READS[command]}
    values = {"--format": "json", "--imax": "1", "--minor-cap": "1000",
              "--tdi-bound": "1", "--max-vertices": "2", "--max-edges": "2"}
    argv = [command] + ([] if command == "scan" else [triangle_file])
    argv += [x for flag in READS[command] for x in (flag, values[flag])]
    rc, out, err = run(capsys, argv)
    assert (rc, err) == (0, "")
    json.loads(out)


@pytest.mark.parametrize("text", [TRIANGLE_NATIVE, Q6_NATIVE, REFERENCE_INPUT])
def test_subcommand_json_matches_analyze(capsys, tmp_path, text):
    path = tmp_path / "clutter.in"
    path.write_text(text)

    def json_of(*argv):
        rc, out, _ = run(capsys, [argv[0], str(path), "--format", "json", *argv[1:]])
        assert rc == 0
        return json.loads(out)

    report = json_of("analyze")
    assert json_of("facets") == report["support_hyperplanes"]
    assert json_of("vertices") == report["vertices"]
    assert json_of("hilbert") == report["hilbert_basis"]
    assert json_of("powers", "--imax", "3") == report["powers"]
    assert json_of("mfmc") == report["verdict"]


def test_tdi_bound_only_on_analyze(capsys, triangle_file):
    for command in ("mfmc", "powers", "facets", "hilbert", "vertices"):
        with pytest.raises(SystemExit) as exc:
            main([command, triangle_file, "--tdi-bound", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tdi-bound" in capsys.readouterr().err
    rc, out, _ = run(capsys, ["analyze", triangle_file, "--imax", "1",
                              "--tdi-bound", "0"])
    assert rc == 0
    assert "tdi check" not in out


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------- one parser


def test_defaults_do_not_carry_over_between_calls(capsys, triangle_file):
    rc, out, _ = run(capsys, ["mfmc", triangle_file, "--format", "json", "--imax", "1"])
    assert rc == 0 and json.loads(out)["i_max_checked"] == 1
    rc, out, _ = run(capsys, ["mfmc", triangle_file, "--format", "json"])
    assert rc == 0 and json.loads(out)["i_max_checked"] == 3


def test_a_usage_error_leaves_the_next_call_unchanged(capsys, triangle_file):
    first = run(capsys, ["mfmc", triangle_file])
    with pytest.raises(SystemExit) as exc:
        main(["mfmc", triangle_file, "--imax", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, ["mfmc", triangle_file]) == first


# ---------------------------------------------------------------- python -O


@pytest.mark.parametrize("argv", [["mfmc"], ["analyze", "--format", "json"]],
                         ids=["mfmc", "analyze-json"])
def test_optimized_interpreter_prints_the_same(capsys, tmp_path, argv):
    # python -O strips every assert, so no answer may rest on one
    src = str(Path(mfmckit.__file__).parent.parent)
    for name, text in (("triangle", TRIANGLE_NATIVE), ("c5", C5_NATIVE)):
        path = tmp_path / f"{name}.in"
        path.write_text(text)
        rc, out, err = run(capsys, [*argv, str(path)])
        optimized = subprocess.run(
            [sys.executable, "-O", "-B", "-m", "mfmckit.cli", *argv, str(path)],
            capture_output=True, text=True, timeout=120, cwd=tmp_path,
            env={"PYTHONPATH": src, "PATH": ""})
        assert (optimized.returncode, optimized.stdout, optimized.stderr) == (rc, out, err)
        assert rc == 0 and "mfmc" in out
