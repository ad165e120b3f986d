"""Command-line interface: verify, extract, jacobi, weights, split, export.

Exit codes: 0 all checks passed, 1 discrepancies or failures found
(report on stdout), 2 usage or parse errors (diagnostics on stderr).
Every command runs serially in one process: a worker pool measured
slower than serial on every corpus command.  ``verify`` and ``jacobi``
still accept ``--jobs N`` and ignore it, because the benchmark's referee
workload still passes it.  ``json`` is imported only when a report is
written as JSON.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence, Union

from . import corpus
from .algebra import (AlgebraError, BracketTable, DiscrepancyReport, NotEigenvector,
                      Realization, check_jacobi, extract_structure_constants,
                      triangular_split, verify_realization, weights)
from .io import (ParseError, emit_definition, emit_extract_failure, emit_report, emit_table,
                 json_text, parse_definition)

_FORMATS = ("text", "json", "latex")
_JOBS_HELP = "accepted for compatibility and ignored: every check runs serially"


class CliError(Exception):
    """Usage-level failure mapped to exit code 2."""


def _positive_jobs(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid jobs count {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("jobs must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colorlie",
        description="Exact checks for the graded algebras shipped in the corpus.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p, realizations=True):
        p.add_argument("--algebra", choices=corpus.ALGEBRAS,
                       help="corpus algebra id")
        if realizations:
            p.add_argument("--realization", choices=("dmodule", "vectorfield"),
                           help="which corpus realization to use")
        p.add_argument("--file", help="definition file to use instead of the corpus")

    verify = sub.add_parser("verify", help="replay a realization against a table")
    add_source(verify)
    verify.add_argument("--table", help="table to check against: corpus id "
                                        "(contains a dot) or definition file path; "
                                        "defaults to the corpus table for corpus realizations")
    verify.add_argument("--format", choices=_FORMATS, default="text")
    verify.add_argument("--jobs", type=_positive_jobs, default=1, help=_JOBS_HELP)

    extract = sub.add_parser("extract", help="re-derive structure constants from a realization")
    add_source(extract)
    extract.add_argument("--format", choices=_FORMATS, default="text")

    jacobi = sub.add_parser("jacobi", help="check the graded Jacobi identity on a table")
    jacobi.add_argument("--algebra", choices=corpus.ALGEBRAS)
    jacobi.add_argument("--basis", choices=("standard", "pm"), default="standard")
    jacobi.add_argument("--file", help="table definition file instead of the corpus")
    jacobi.add_argument("--format", choices=_FORMATS, default="text")
    jacobi.add_argument("--jobs", type=_positive_jobs, default=1, help=_JOBS_HELP)

    weights_p = sub.add_parser("weights", help="grading-operator eigenvalues per basis element")
    weights_p.add_argument("--algebra", choices=corpus.ALGEBRAS, required=True)
    weights_p.add_argument("--format", choices=("text", "json"), default="text")

    split = sub.add_parser("split", help="triangular split by weight signs")
    split.add_argument("--algebra", choices=corpus.ALGEBRAS, required=True)
    split.add_argument("--format", choices=("text", "json"), default="text")

    export = sub.add_parser("export", help="print a corpus entry in an interchange format")
    export.add_argument("--entry", required=True,
                        help="corpus entry id (see `export --list`)")
    export.add_argument("--format", choices=("definition", "text", "json", "latex"),
                        default="definition")
    return parser


def _load_definition_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_definition(text)
    except ParseError as exc:
        raise CliError(f"{path}:{exc.line}:{exc.col}: {exc.reason}") from exc


def _entry_table(entry, what: str) -> BracketTable:
    if entry.kind != "table":
        raise CliError(f"{what} is a {entry.kind} definition, expected a table")
    return entry.payload["table"]


def _entry_realization(entry, what: str) -> Realization:
    if entry.kind not in ("d-module", "vector-field"):
        raise CliError(f"{what} is a {entry.kind} definition, expected a realization")
    return entry.payload["realization"]


def _resolve_table_spec(spec: str) -> BracketTable:
    if "." in spec and not os.path.exists(spec):
        try:
            return _entry_table(corpus.load(spec), spec)
        except corpus.UnknownId:
            pass
    return _entry_table(_load_definition_file(spec), spec)


def _resolve_verify(args) -> tuple[Realization, BracketTable, str]:
    if args.file:
        real = _entry_realization(_load_definition_file(args.file), args.file)
        if not args.table:
            raise CliError("--file requires --table (corpus id or table file)")
        table = _resolve_table_spec(args.table)
        subject = f"{args.file} vs {args.table}"
    elif args.algebra and args.realization:
        real, table = corpus.realization(args.algebra, args.realization)
        if args.table:
            table = _resolve_table_spec(args.table)
            subject = f"{args.algebra} {args.realization} vs {args.table}"
        else:
            basis = corpus.realization_basis(args.algebra, args.realization)
            subject = f"{args.algebra} {args.realization} vs {args.algebra} table ({basis})"
    else:
        raise CliError("verify needs --algebra and --realization, or --file")
    if real.basis != table.basis:
        raise CliError("realization and table declare different bases")
    return real, table, subject


# _verify_chunk and _jacobi_chunk keep their names and one-payload signature
# because bench/tracer.py wraps them by name (CHUNKS) and calls fn(payload).
def _verify_chunk(payload) -> DiscrepancyReport:
    real, table, pairs = payload
    return verify_realization(real, table, pairs)


def _jacobi_chunk(payload) -> DiscrepancyReport:
    table, triples = payload
    return check_jacobi(table, triples)


def _emit_checks(report: DiscrepancyReport, fmt: str, counted: str, problems: str) -> str:
    """Text: '<subject>: <counted> verified', or '... checked, N <problems>' and the entries."""
    if fmt != "text":
        return emit_report(report, fmt)
    if report.ok:
        return f"{report.subject}: {counted} verified\n"
    lines = [f"{report.subject}: {counted} checked, {len(report.entries)} {problems}"]
    lines += [f"  {item}" for item in report.entries]
    return "\n".join(lines) + "\n"


def _cmd_verify(args) -> int:
    real, table, subject = _resolve_verify(args)
    report = _verify_chunk((real, table, None))._replace(subject=subject)
    sys.stdout.write(_emit_checks(report, args.format,
                                  f"{len(real.basis)} generators, {report.checked} unordered pairs",
                                  "discrepancies"))
    return 0 if report.ok else 1


def _cmd_extract(args) -> int:
    if args.file:
        real = _entry_realization(_load_definition_file(args.file), args.file)
    elif args.algebra and args.realization:
        real, _ = corpus.realization(args.algebra, args.realization)
    else:
        raise CliError("extract needs --algebra and --realization, or --file")
    try:
        table = extract_structure_constants(real)
    except AlgebraError as exc:  # no closure, dependent basis, lam or degree trouble
        subject = args.file or f"{args.algebra} {args.realization}"
        sys.stdout.write(emit_extract_failure(subject, exc, args.format))
        return 1
    sys.stdout.write(emit_table(table, args.format))
    return 0


def _cmd_jacobi(args) -> int:
    if args.file:
        table = _entry_table(_load_definition_file(args.file), args.file)
        subject = f"graded Jacobi on {args.file}"
    elif args.algebra:
        table = corpus.table(args.algebra, args.basis)
        subject = f"graded Jacobi on {args.algebra} table ({args.basis})"
    else:
        raise CliError("jacobi needs --algebra or --file")
    report = _jacobi_chunk((table, None))._replace(subject=subject)
    sys.stdout.write(_emit_checks(report, args.format, f"{report.checked} triples", "failures"))
    return 0 if report.ok else 1


def _computed_weights(args):
    basis = corpus.realization_basis(args.algebra, "vectorfield")
    table = corpus.table(args.algebra, basis)
    grading = corpus.weights_entry(args.algebra).payload["grading_labels"]
    try:
        computed = weights(table, grading)
    except NotEigenvector as exc:
        raise CliError(str(exc)) from exc
    return basis, grading, table, computed


def _cmd_weights(args) -> int:
    basis, grading, table, computed = _computed_weights(args)
    if args.format == "text":
        lines = [f"{args.algebra} weights ({basis} basis) under ({', '.join(grading)})"]
        lines += [f"  {label} = ({', '.join(str(v) for v in computed[label])})"
                  for label, _ in table.basis]
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write(json_text({
            "algebra": args.algebra, "basis": basis, "grading": list(grading),
            "weights": {label: [str(v) for v in computed[label]]
                        for label, _ in table.basis},
        }))
    return 0


def _cmd_split(args) -> int:
    basis, grading, table, computed = _computed_weights(args)
    split = triangular_split(computed)
    if args.format == "text":
        lines = [f"{args.algebra} triangular split ({basis} basis)"]
        lines += [f"  {key}: {' '.join(split[key])}"
                  for key in ("positive", "zero", "negative")]
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write(json_text({
            "algebra": args.algebra, "basis": basis,
            "split": {key: split[key] for key in ("positive", "zero", "negative")}}))
    return 0


def _cmd_export(args) -> int:
    try:
        entry = corpus.load(args.entry)
    except corpus.UnknownId as exc:
        raise CliError(str(exc)) from exc
    if args.format == "definition":
        sys.stdout.write(emit_definition(entry))
        return 0
    table = _entry_table(entry, args.entry)
    sys.stdout.write(emit_table(table, args.format))
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "extract": _cmd_extract,
    "jacobi": _cmd_jacobi,
    "weights": _cmd_weights,
    "split": _cmd_split,
    "export": _cmd_export,
}


def main(argv: Union[Sequence[str], None] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (CliError, corpus.UnknownId, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
