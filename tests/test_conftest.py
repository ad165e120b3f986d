"""The acceptance summary counts the tests of test_acceptance.py and no others."""

from types import SimpleNamespace

import conftest
import pytest


class Reporter:
    def __init__(self):
        self.lines = []

    def section(self, title):
        self.lines.append(title)

    def write_line(self, line):
        self.lines.append(line)


@pytest.mark.parametrize("nodeid, lines", [
    ("tests/test_syntax.py::test_parses_as_python_3_10[tests/test_acceptance.py]", []),
    ("tests/test_acceptance.py::test_criterion_1_g121_reconstruction",
     ["acceptance criteria", "PASS  criterion 1 g121 reconstruction"]),
], ids=["parametrized-id-of-another-file", "acceptance-test"])
def test_only_acceptance_tests_get_a_verdict_line(monkeypatch, nodeid, lines):
    monkeypatch.setattr(conftest, "_ACCEPTANCE", {})
    conftest.pytest_runtest_logreport(SimpleNamespace(
        nodeid=nodeid, when="call", passed=True, failed=False, skipped=False))
    reporter = Reporter()
    conftest.pytest_terminal_summary(reporter, 0, None)
    assert reporter.lines == lines
