"""The table-driven command-line parser against argparse, the parser it replaced.

The oracle is the argparse parser that ``colorlie.cli`` used before: its
``build_parser`` and ``_positive_jobs`` below are copied as they were.  Each
argv is generated from ``cli._SPEC``: every command, subsets of its options
written as ``--opt value`` and ``--opt=value``, unique and ambiguous prefixes,
repeats, bad choices, bad ``--jobs`` counts, a stray positional, a missing
value, and ``-h`` at each level.  Where the oracle accepts an argv,
``parse_args`` gives every option the same value; where it prints help,
``main`` prints help and exits 0; where it exits 2, ``main`` exits 2 with an
``error:`` line and then the usage line on stderr.
"""

import argparse
import contextlib
import io
from itertools import combinations

import pytest

from colorlie import cli, corpus

# The oracle: build_parser as it was, verbatim.
_FORMATS = ("text", "json", "latex")
_JOBS_HELP = "accepted for compatibility and ignored: every check runs serially"


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
                        help="corpus entry id such as g22.table; an unknown id "
                             "prints the known ones")
    export.add_argument("--format", choices=("definition", "text", "json", "latex"),
                        default="definition")
    return parser


def oracle(argv):
    """(exit code, namespace dict or help text) as the argparse parser reads argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return 0, vars(build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue()


def sample(option):
    """(good, other, bad): two values the oracle accepts for option, one it refuses or None."""
    _, kind, default, _ = option
    if isinstance(kind, tuple):
        return kind[0], kind[-1], "nope"
    return ("2", "3", "0") if isinstance(default, int) else ("a.txt", "b c.txt", None)


def argvs():
    yield from ([], ["frobnicate"], ["-h"], ["--help"], ["--he"], ["--bogus"], ["verify.x"])
    for command, (_, _, options) in cli._SPEC.items():
        flags = ["-h", "--help"] + [option[0] for option in options]
        yield from ([command], [command, "stray"], [command, "--bogus"], [command, "-x"],
                    [command, "-h"], [command, "--help"], [command, "--h"],
                    [command, "stray", "-h"], [command, "--bogus", "--help"])
        for size in range(len(options) + 1):
            for subset in combinations(options, size):
                spaced = [word for o in subset for word in (o[0], sample(o)[1])]
                yield [command] + spaced
                yield [command] + [f"{o[0]}={sample(o)[0]}" for o in subset]
        full = [word for o in options for word in (o[0], sample(o)[0])]
        yield [command] + full + ["-h"]
        for option in options:
            flag, good, other, bad = option[0], *sample(option)
            yield from ([command, flag], [command, flag, "-h"], [command, flag, "--bogus"],
                        [command, flag, "-"], [command, flag, "-1"], [command, f"{flag}=-x"],
                        [command, flag, good, flag, other], [command, f"{flag}={good}", flag])
            if bad is not None:
                yield from ([command, flag, bad], [command, f"{flag}={bad}"],
                            [command, flag, bad, "-h"], [command, "-h", flag, bad])
            for end in range(3, len(flag)):
                prefix = flag[:end]
                matches = [f for f in flags if f.startswith(prefix)]
                yield ([command] + full + [prefix, good] if len(matches) == 1
                       else [command, prefix, good])
                yield [command, f"{prefix}={good}"]
        if any(o[0] == "--jobs" for o in options):
            for count in ("0", "-1", "x", "3", "+3", " 4", "1.5", ""):
                yield from ([command, "--jobs", count], [command, f"--jobs={count}"])
        yield [command] + full + ["stray"]


CASES = list(dict.fromkeys(tuple(argv) for argv in argvs()))


@pytest.mark.parametrize("argv", CASES, ids=[" ".join(argv) or "<none>" for argv in CASES])
def test_parser_matches_argparse(argv, capsys):
    code, parsed = oracle(list(argv))
    if code == 0 and isinstance(parsed, dict):
        assert vars(cli.parse_args(list(argv))) == parsed
        return
    assert cli.main(list(argv)) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert out.startswith("usage: colorlie") and err == ""
    else:
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.splitlines()[1].startswith("usage: colorlie")


def test_every_outcome_is_generated():
    outcomes = {(code, isinstance(parsed, dict)) for code, parsed in map(oracle, CASES)}
    assert outcomes == {(0, True), (0, False), (2, False)}
    assert len(CASES) > 300


@pytest.mark.parametrize("command", [None, *cli._SPEC])
def test_help_does_not_depend_on_the_terminal_width(command, capsys, monkeypatch):
    argv = ["--help"] if command is None else [command, "--help"]
    texts = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        assert cli.main(argv) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0].startswith(cli._usage(command) + "\n\n")
    assert len(texts[0].splitlines()) == 4 + (len(cli._SPEC) if command is None
                                              else len(cli._SPEC[command][2])) + 1
