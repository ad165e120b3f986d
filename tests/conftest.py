"""Shared test configuration: the acceptance verdict summary."""

_ACCEPTANCE: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.nodeid.split("::")[0].rsplit("/", 1)[-1] != "test_acceptance.py":
        return
    if report.when == "call":
        _ACCEPTANCE[report.nodeid] = "PASS" if report.passed else "FAIL"
    elif report.failed or report.skipped:
        # setup/teardown problems still deserve a verdict line
        _ACCEPTANCE.setdefault(report.nodeid, "FAIL")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_ACCEPTANCE):
        name = nodeid.split("::")[-1]
        label = name.removeprefix("test_").replace("_", " ")
        terminalreporter.write_line(f"{_ACCEPTANCE[nodeid]}  {label}")
