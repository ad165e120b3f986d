"""Golden CLI snapshots: stdout and exit code of every command, byte for byte.

``golden/cli.json`` maps a case name to its argv, exit code and stdout.
It covers every command on every corpus algebra in text, each command in
json and latex, every corpus entry through ``export``, the five-pair
residual report of ``verify g22 vectorfield``, and failure reports read
from the small definition files next to it.  The cases run in-process
through ``cli.main`` from inside ``golden/``, so file subjects print as
bare names.  An intended output change edits the JSON by hand.
"""

import json
from pathlib import Path

import pytest

from colorlie.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cli.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_snapshot(name, capsys, monkeypatch):
    case = CASES[name]
    monkeypatch.chdir(GOLDEN)
    code = main(case["argv"])
    assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])
