"""Benchmark-suite plumbing.

pytest only collects ``test_*.py`` on its own, so the benches are named
on the command line.  The paper artefacts (``paper_artefacts.py``) run
under::

    PYTHONPATH=src python -m pytest benchmarks/bench_paper_artefacts.py --benchmark-only

pytest captures stdout, so each artefact registers its table through
the ``report`` fixture; a terminal-summary hook prints every registered
table after the benchmark timings.
"""

from typing import List

import pytest

# The artefacts' checks are plain asserts in a helper module; rewrite
# them so a failing check shows its operands.
pytest.register_assert_rewrite("paper_artefacts")

_REPORTS: List[str] = []


@pytest.fixture
def report():
    """Register a formatted table for the end-of-run summary."""

    def _add(text: str) -> None:
        _REPORTS.append(text)

    return _add


def pytest_terminal_summary(terminalreporter):
    if not _REPORTS:
        return
    terminalreporter.section("paper reproduction tables")
    for text in _REPORTS:
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)
