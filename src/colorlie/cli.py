"""Command-line interface: verify, extract, jacobi, weights, split, export.

Exit codes: 0 all checks passed, 1 discrepancies or failures found
(report on stdout), 2 usage or parse errors, or a coefficient too long
to print (diagnostics on stderr).  Every command runs serially in one
process; ``verify`` and ``jacobi`` accept ``--jobs N`` and ignore it.
The _SPEC table drives parsing, the usage line and ``--help``, whose text
has a fixed width.  So no run imports ``argparse``, nor the ``gettext``,
``locale`` and ``shutil`` it loads; ``json`` is imported only when a report
is written as JSON; ``fractions``, ``decimal`` and ``pkgutil`` by no run.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import Sequence, Union

from . import corpus
from .algebra import (AlgebraError, BracketTable, DiscrepancyReport, NotEigenvector,
                      Realization, check_jacobi, extract_structure_constants,
                      triangular_split, verify_realization, weights)
from .io import (ParseError, emit_definition, emit_extract_failure, emit_report, emit_table,
                 json_text, parse_definition)
from .scalars import TooLongToPrint

_REQUIRED = object()  # the default of an option that must be given
_HELP = {"-h": None, "--help": None}  # flags with no option tuple: they print the help


class CliError(Exception):
    """Usage-level failure mapped to exit code 2."""


def _shown(option) -> str:
    flag, kind = option[:2]
    return f"{flag} {{{','.join(kind)}}}" if isinstance(kind, tuple) else f"{flag} {kind}"


def _usage(command) -> str:
    if command is None:
        return f"usage: colorlie [-h] {{{','.join(_SPEC)}}} ..."
    return " ".join([f"usage: colorlie {command} [-h]"] + [
        _shown(o) if o[2] is _REQUIRED else f"[{_shown(o)}]" for o in _SPEC[command][2]])


def _help_text(command) -> str:
    """Usage, description and one line per command or option, whatever the terminal width."""
    rows = [("-h, --help", "show this help message and exit")] + (
        [(_shown(o), o[3]) for o in _SPEC[command][2]] if command
        else [(c, h) for c, (_, h, _) in _SPEC.items()])
    width = max(len(name) for name, _ in rows)
    return "\n".join([_usage(command), "", _SPEC[command][1] if command else
                      "Exact checks for the graded algebras shipped in the corpus.", ""] +
                     [f"  {name.ljust(width)}  {text}" for name, text in rows]) + "\n"


def _flag(arg: str, flags, command) -> Union[str, None]:
    """The flag arg names, in full or as the unique prefix of a long flag, else None."""
    name = arg.partition("=")[0]
    matches = [name] if name in flags else [f for f in flags if name[2:] and f.startswith(name)]
    if len(matches) > 1:
        raise CliError(f"ambiguous option {name}: {' or '.join(matches)}\n{_usage(command)}")
    return matches[0] if matches else None


def parse_args(argv: Sequence[str]) -> Union[SimpleNamespace, str]:
    """The command and its option values as _SPEC reads them, or the help text for -h.

    As in argparse, an ambiguous prefix anywhere is an error; then options are read left
    to right; a missing or an unrecognized argument is an error only at the end.  Each
    error raises CliError, ending in the usage line.
    """
    if not argv or argv[0] not in _SPEC:
        if argv and _flag(argv[0], _HELP, None):
            return _help_text(None)
        reason = f"unknown command {argv[0]!r}" if argv else "missing command"
        raise CliError(f"{reason} (choose from {', '.join(_SPEC)})\n{_usage(None)}")
    command = argv[0]
    flags = {**_HELP, **{option[0]: option for option in _SPEC[command][2]}}
    values = {flag[2:]: option[2] for flag, option in flags.items() if option}
    unknown, rest = [], iter([(arg, _flag(arg, flags, command)) for arg in argv[1:]])
    for arg, flag in rest:
        if not flag:
            unknown.append(arg)
            continue
        if not flags[flag]:
            return _help_text(command)
        _, kind, default, _ = flags[flag]
        value, after = (arg.partition("=")[2], None) if "=" in arg else next(rest, (None, None))
        # as in argparse, "-", a negative number and a text with a space are values
        if value is None or after or ("=" not in arg and value[:1] == "-" and value != "-"
                                      and " " not in value and not value[1:].isdigit()):
            problem = "expected one argument"
        elif isinstance(kind, tuple) and value not in kind:
            problem = f"invalid choice {value!r} (choose from {', '.join(kind)})"
        elif isinstance(default, int) and not (
                value.strip().removeprefix("+").isdecimal() and int(value) >= 1):
            problem = f"{value!r} is not an integer >= 1"
        else:
            values[flag[2:]] = int(value) if isinstance(default, int) else value
            continue
        raise CliError(f"argument {flag}: {problem}\n{_usage(command)}")
    missing = ", ".join(f"--{dest}" for dest, value in values.items() if value is _REQUIRED)
    if missing or unknown:
        raise CliError((f"the following arguments are required: {missing}" if missing else
                        f"unrecognized arguments: {' '.join(unknown)}") + f"\n{_usage(command)}")
    return SimpleNamespace(command=command, **values)


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


def _entry_payload(entry, what: str, key: str):
    """entry.payload[key]: only a table holds "table", only a realization "realization"."""
    if key not in entry.payload:
        raise CliError(f"{what} is a {entry.kind} definition, expected a {key}")
    return entry.payload[key]


def _resolve_table_spec(spec: str) -> BracketTable:
    if "." in spec and not os.path.exists(spec):
        try:
            return _entry_payload(corpus.load(spec), spec, "table")
        except corpus.UnknownId:
            pass
    return _entry_payload(_load_definition_file(spec), spec, "table")


def _resolve_realization(args, command: str) -> tuple[Realization, str]:
    """The realization of --file, or of --algebra and --realization, and its name."""
    if args.file and (args.algebra or args.realization):
        raise CliError(f"{command} needs --algebra and --realization, or --file, not both")
    if args.file:
        return _entry_payload(_load_definition_file(args.file), args.file, "realization"), args.file
    if args.algebra and args.realization:
        real = corpus.load(f"{args.algebra}.{args.realization}").payload["realization"]
        return real, f"{args.algebra} {args.realization}"
    raise CliError(f"{command} needs --algebra and --realization, or --file")


def _resolve_verify(args) -> tuple[Realization, BracketTable, str]:
    real, name = _resolve_realization(args, "verify")
    if args.table:
        table = _resolve_table_spec(args.table)
        subject = f"{name} vs {args.table}"
    elif args.file:
        raise CliError("--file requires --table (corpus id or table file)")
    else:
        basis = corpus.realization_basis(args.algebra, args.realization)
        table = corpus.table(args.algebra, basis)
        subject = f"{name} vs {args.algebra} table ({basis})"
    if real.basis != table.basis:
        raise CliError("realization and table declare different bases")
    return real, table, subject


# _verify_chunk and _jacobi_chunk keep their names and one-payload signature
# because bench/tracer.py wraps them by name (CHUNKS) and calls fn(payload).
# The payloads are (realization, table) and the table.
def _verify_chunk(payload) -> DiscrepancyReport:
    real, table = payload
    return verify_realization(real, table)


def _jacobi_chunk(table) -> DiscrepancyReport:
    return check_jacobi(table)


def _cmd_verify(args) -> int:
    real, table, subject = _resolve_verify(args)
    report = _verify_chunk((real, table))._replace(subject=subject)
    sys.stdout.write(emit_report(report, args.format,
                                 f"{len(real.basis)} generators, {report.checked} unordered pairs",
                                 "discrepancies"))
    return 0 if report.ok else 1


def _cmd_extract(args) -> int:
    real, subject = _resolve_realization(args, "extract")
    try:
        table = extract_structure_constants(real)
    except AlgebraError as exc:  # no closure, dependent basis, lam or degree trouble
        sys.stdout.write(emit_extract_failure(subject, exc, args.format))
        return 1
    sys.stdout.write(emit_table(table, args.format))
    return 0


def _cmd_jacobi(args) -> int:
    if bool(args.file) == bool(args.algebra):
        raise CliError("jacobi needs --algebra or --file, not both")
    if args.file:
        table = _entry_payload(_load_definition_file(args.file), args.file, "table")
        subject = f"graded Jacobi on {args.file}"
    else:
        table = corpus.table(args.algebra, args.basis)
        subject = f"graded Jacobi on {args.algebra} table ({args.basis})"
    report = _jacobi_chunk(table)._replace(subject=subject)
    sys.stdout.write(emit_report(report, args.format, f"{report.checked} triples", "failures"))
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
        lines += [f"  {key}: {' '.join(labels)}" for key, labels in split.items()]
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write(json_text({"algebra": args.algebra, "basis": basis, "split": split}))
    return 0


def _cmd_export(args) -> int:
    entry = corpus.load(args.entry)
    if args.format == "definition":
        sys.stdout.write(emit_definition(entry))
        return 0
    table = _entry_payload(entry, args.entry, "table")
    sys.stdout.write(emit_table(table, args.format))
    return 0


_ALGEBRA = ("--algebra", corpus.ALGEBRAS, None, "corpus algebra id")
_REALIZATION = ("--realization", ("dmodule", "vectorfield"), None, "corpus realization to use")
_SOURCE = (_ALGEBRA, _REALIZATION, ("--file", "FILE", None, "realization definition file"))
_FORMAT = ("--format", ("text", "json", "latex"), "text", "report format")
_JOBS = ("--jobs", "JOBS", 1, "accepted for compatibility and ignored: every check runs serially")
_GRADED = (("--algebra", corpus.ALGEBRAS, _REQUIRED, "corpus algebra id"),
           ("--format", ("text", "json"), "text", "report format"))
# command: (function, help, options).  An option is (flag, its choices (a tuple) or
# metavar, its default or _REQUIRED, help); an int default makes its value an integer >= 1.
_SPEC = {
    "verify": (_cmd_verify, "replay a realization against a table", _SOURCE + (
        ("--table", "TABLE", None, "table to check against: corpus id (contains a dot) or "
         "definition file path; defaults to the corpus table for corpus realizations"),
        _FORMAT, _JOBS)),
    "extract": (_cmd_extract, "re-derive structure constants from a realization",
                _SOURCE + (_FORMAT,)),
    "jacobi": (_cmd_jacobi, "check the graded Jacobi identity on a table", (
        _ALGEBRA, ("--basis", ("standard", "pm"), "standard", "basis of the corpus table"),
        ("--file", "FILE", None, "table definition file instead of the corpus"), _FORMAT, _JOBS)),
    "weights": (_cmd_weights, "grading-operator eigenvalues per basis element", _GRADED),
    "split": (_cmd_split, "triangular split by weight signs", _GRADED),
    "export": (_cmd_export, "print a corpus entry in an interchange format", (
        ("--entry", "ENTRY", _REQUIRED, "corpus entry id such as g22.table; an unknown id "
         "prints the known ones"),
        ("--format", ("definition", "text", "json", "latex"), "definition", "output format"))),
}


def main(argv: Union[Sequence[str], None] = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):
            sys.stdout.write(args)
            return 0
        return _SPEC[args.command][0](args)
    except (CliError, corpus.UnknownId, ParseError, TooLongToPrint) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
