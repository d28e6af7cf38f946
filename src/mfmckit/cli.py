"""Command line front end."""

from __future__ import annotations

import argparse
import json
import sys

from .clutters import MINOR_CAP
from .cones import qa_vertices_via_rees, support_hyperplanes
from .decisions import class_scan, decide_mfmc
from .errors import ClassificationError, InconsistencyError, MfmcError, SizeLimit
from .hilbert import hilbert_basis
from .reporting import (
    analyze,
    basis_to_list,
    facets_to_dict,
    generator_block,
    hyperplane_block,
    parse_input,
    powers_lines,
    powers_table,
    powers_to_list,
    render_text,
    report_to_dict,
    scan_to_dict,
    verdict_lines,
    verdict_to_dict,
    vertex_lines,
    vertices_to_list,
)


def _read(path: str) -> str:
    """The input text; a path that cannot be read or decoded is an input error."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise MfmcError(f"{path}: {getattr(e, 'strerror', None) or e}") from e


def _emit(text: str):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_view(args) -> int:
    """Print the JSON or text form of the object computed from the input."""
    compute, to_json, to_text = args.view
    obj = compute(parse_input(_read(args.input)), args)
    if args.format == "json":
        data = to_json(obj)
        # objects print with sorted keys, lists (and so power rows) in order
        _emit(json.dumps(data, indent=2, sort_keys=isinstance(data, dict)))
    else:
        _emit(to_text(obj))
    return 0


def _cmd_scan(args) -> int:
    report = class_scan(args.max_vertices, args.max_edges)
    note = "bounded evidence only; the underlying conjectures stay open"
    if args.format == "json":
        _emit(json.dumps(dict(scan_to_dict(report), note=note), indent=2, sort_keys=True))
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

    def command(name, fn, *arguments, **defaults):
        sp = sub.add_parser(name)
        for arg in arguments:
            sp.add_argument(arg, **ARGUMENTS[arg])
        sp.set_defaults(fn=fn, **defaults)

    def view(name, compute, to_json, to_text, *arguments):
        command(name, _cmd_view, "input", "--format", *arguments,
                view=(compute, to_json, to_text))

    view("analyze", lambda doc, a: analyze(doc, a.imax, a.tdi_bound, a.minor_cap),
         report_to_dict, render_text, "--imax", "--minor-cap", "--tdi-bound")
    view("facets", lambda doc, a: support_hyperplanes(doc.matrix),
         facets_to_dict, lambda fc: hyperplane_block(fc.all_rows()))
    view("hilbert", lambda doc, a: hilbert_basis(doc.matrix),
         basis_to_list, generator_block)
    view("vertices", lambda doc, a: qa_vertices_via_rees(doc.matrix).vertices,
         vertices_to_list, vertex_lines)
    view("powers", lambda doc, a: powers_table(doc.clutter(), a.imax),
         powers_to_list, powers_lines, "--imax")
    view("mfmc", lambda doc, a: decide_mfmc(doc.clutter(), a.imax, a.minor_cap),
         verdict_to_dict, verdict_lines, "--imax", "--minor-cap")
    command("scan", _cmd_scan, "--format", "--max-vertices", "--max-edges")
    return p


PARSER = build_parser()  # built once at import; parse_args keeps no state between calls


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except SizeLimit as e:
        print(f"size limit: {e}", file=sys.stderr)
        return 3
    except (InconsistencyError, ClassificationError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4
    except MfmcError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
