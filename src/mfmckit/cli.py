"""Command line front end."""

from __future__ import annotations

import argparse
import json
import sys

from .clutters import MINOR_CAP, enumerate_clutters
from .cones import qa_vertices_direct, support_hyperplanes
from .decisions import conjecture_scan, decide_mfmc
from .errors import (
    ClassificationError,
    EmptyEdge,
    InconsistencyError,
    NotAntichain,
    NotSquareFree,
    NotZeroOne,
    OverlappingSpec,
    ParseError,
    SizeLimit,
    ZeroCone,
)
from .hilbert import hilbert_basis
from .reporting import (
    analyze,
    facets_to_dict,
    generator_block,
    hyperplane_block,
    parse_input,
    powers_lines,
    powers_table,
    powers_to_list,
    render_text,
    report_to_json,
    verdict_lines,
    verdict_to_dict,
    vertex_lines,
    vertices_to_list,
)

INPUT_ERRORS = (ParseError, NotZeroOne, NotAntichain, EmptyEdge,
                OverlappingSpec, NotSquareFree, ZeroCone)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_analyze(args) -> int:
    doc = parse_input(_read(args.input))
    report = analyze(doc, i_max=args.imax, tdi_bound=args.tdi_bound,
                     minor_cap=args.minor_cap)
    _emit(report_to_json(report) if args.format == "json"
          else render_text(report))
    return 0


def _cmd_facets(args) -> int:
    doc = parse_input(_read(args.input))
    fc = support_hyperplanes(doc.matrix)
    if args.format == "json":
        _emit(json.dumps(facets_to_dict(fc), indent=2, sort_keys=True))
    else:
        _emit(hyperplane_block(fc.all_rows()))
    return 0


def _cmd_hilbert(args) -> int:
    doc = parse_input(_read(args.input))
    basis = hilbert_basis(doc.matrix)
    if args.format == "json":
        _emit(json.dumps([list(z) for z in basis], indent=2))
    else:
        _emit(generator_block(basis))
    return 0


def _cmd_vertices(args) -> int:
    doc = parse_input(_read(args.input))
    qa = qa_vertices_direct(doc.matrix)
    if args.format == "json":
        _emit(json.dumps(vertices_to_list(qa.vertices), indent=2))
    else:
        _emit(vertex_lines(qa.vertices))
    return 0


def _cmd_powers(args) -> int:
    doc = parse_input(_read(args.input))
    rows = powers_table(doc.clutter(), args.imax)
    if args.format == "json":
        _emit(json.dumps(powers_to_list(rows), indent=2))
    else:
        _emit(powers_lines(rows))
    return 0


def _cmd_mfmc(args) -> int:
    doc = parse_input(_read(args.input))
    verdict = decide_mfmc(doc.clutter(), i_max=args.imax,
                          minor_cap=args.minor_cap)
    if args.format == "json":
        _emit(json.dumps(verdict_to_dict(verdict), indent=2, sort_keys=True))
    else:
        _emit(verdict_lines(verdict))
    return 0


def _cmd_scan(args) -> int:
    family = enumerate_clutters(args.max_vertices, args.max_edges)
    report = conjecture_scan(family)
    note = "bounded evidence only; the underlying conjectures stay open"
    if args.format == "json":
        _emit(json.dumps({
            "total": report.total,
            "packing_true": report.packing_true,
            "reduced_confirmed": report.reduced_confirmed,
            "reduced_counterexamples": [
                [list(e) for e in c.edges] for c in report.reduced_counterexamples
            ],
            "uniform_tested": report.uniform_tested,
            "torsion_free_confirmed": report.torsion_free_confirmed,
            "torsion_counterexamples": [
                [list(e) for e in c.edges] for c in report.torsion_counterexamples
            ],
            "note": note,
        }, indent=2, sort_keys=True))
    else:
        lines = [
            f"scanned {report.total} clutters "
            f"(up to {args.max_vertices} vertices, {args.max_edges} edges)",
            f"packing property holds: {report.packing_true}",
            f"reduced associated graded ring: {report.reduced_confirmed} "
            f"confirmed, {len(report.reduced_counterexamples)} counterexamples",
            f"uniform edge size >= 2: {report.uniform_tested} tested, "
            f"{report.torsion_free_confirmed} torsion-free, "
            f"{len(report.torsion_counterexamples)} counterexamples",
        ]
        for c in report.reduced_counterexamples:
            lines.append("COUNTEREXAMPLE (reduced): " + repr(c.edge_labels()))
        for c in report.torsion_counterexamples:
            lines.append("COUNTEREXAMPLE (torsion): " + repr(c.edge_labels()))
        lines.append(note)
        _emit("\n".join(lines))
    return 0


def _int_at_least(least: int):
    """argparse type: an int no smaller than least (usage error, exit 2)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value
    parse.__name__ = "int"  # argparse reports a ValueError as "invalid int value"
    return parse


# Every subcommand argument; build_parser gives each only those its handler reads.
ARGUMENTS = {
    "input": dict(nargs="?", default="-", help="input file, or - for stdin"),
    "--format": dict(choices=("text", "json"), default="text"),
    "--imax": dict(type=_int_at_least(1), default=3,
                   help="largest ideal power to inspect (>= 1)"),
    "--minor-cap": dict(type=_int_at_least(1), default=MINOR_CAP,
                        help="cap on minor enumeration states"),
    "--tdi-bound": dict(type=_int_at_least(0), default=0,
                        help="demand bound for the duality-gap scan (0 = off)"),
    "--max-vertices": dict(type=_int_at_least(1), default=4),
    "--max-edges": dict(type=_int_at_least(1), default=4),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mfmckit",
        description="Exact max-flow min-cut analysis of clutters via Rees cones",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, fn, *arguments):
        sp = sub.add_parser(name)
        for arg in arguments:
            sp.add_argument(arg, **ARGUMENTS[arg])
        sp.set_defaults(fn=fn)

    command("analyze", _cmd_analyze, "input", "--format", "--imax",
            "--minor-cap", "--tdi-bound")
    command("facets", _cmd_facets, "input", "--format")
    command("hilbert", _cmd_hilbert, "input", "--format")
    command("vertices", _cmd_vertices, "input", "--format")
    command("powers", _cmd_powers, "input", "--format", "--imax")
    command("mfmc", _cmd_mfmc, "input", "--format", "--imax", "--minor-cap")
    command("scan", _cmd_scan, "--format", "--max-vertices", "--max-edges")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SizeLimit as e:
        print(f"size limit: {e}", file=sys.stderr)
        return 3
    except INPUT_ERRORS as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except (InconsistencyError, ClassificationError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
