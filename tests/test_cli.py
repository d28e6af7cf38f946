import io
import json
import re

import pytest

from mfmckit.cli import main

from test_reporting import REFERENCE_INPUT, REFERENCE_TEXT

TRIANGLE_NATIVE = "edge a b\nedge b c\nedge a c\n"
Q6_NATIVE = "edge 1 2 3\nedge 1 4 5\nedge 2 4 6\nedge 3 5 6\n"

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


def test_size_limit_exit_code(capsys, reference_file):
    rc, out, err = run(capsys, ["mfmc", reference_file, "--minor-cap", "1"])
    assert rc == 3
    assert out == ""
    assert err.startswith("size limit: ")


def test_internal_error_exit_code(capsys, reference_file, monkeypatch):
    import mfmckit.reporting as reporting
    from mfmckit.cones import QAPolyhedron
    monkeypatch.setattr(reporting, "qa_vertices_via_rees",
                        lambda m: QAPolyhedron(m, ()))
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
