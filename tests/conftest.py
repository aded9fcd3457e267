import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

ACCEPTANCE_LINES = []

# --report-digests: (test id, report) for every ExperimentReport built while
# a test ran, and the digest lines written at the end of the session
_REPORTS = []
_DIGESTS = []


def pytest_addoption(parser):
    parser.addoption(
        "--report-digests", metavar="FILE", default=None,
        help="write the SHA-256 of ExperimentReport.to_json() of every "
             "report each test built to FILE, one 'test index digest' line "
             "each, so two trees' reports compare with diff")


def pytest_configure(config):
    if not config.getoption("--report-digests"):
        return
    from rsdekit.montecarlo import ExperimentReport

    init = ExperimentReport.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        _REPORTS.append(self)

    ExperimentReport.__init__ = recording_init


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    # a report is hashed once its test is done with it (fixtures included)
    start = len(_REPORTS)
    yield
    for i, report in enumerate(_REPORTS[start:]):
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        _DIGESTS.append(f"{item.nodeid} {i} {digest}")


def pytest_sessionfinish(session):
    path = session.config.getoption("--report-digests")
    if path:
        Path(path).write_text("".join(line + "\n" for line in _DIGESTS))


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
