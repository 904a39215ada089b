"""The paper-artefact runner: every artefact in ``paper_artefacts``,
rendered, held to its pin, then checked::

    PYTHONPATH=src python -m pytest benchmarks/bench_paper_artefacts.py --benchmark-only
"""

import pytest

from paper_artefacts import ARTEFACTS, assert_pinned


@pytest.mark.parametrize("artefact", ARTEFACTS, ids=lambda a: a.id)
def test_paper_artefact(artefact, benchmark, report):
    measured = benchmark.pedantic(artefact.measure, rounds=1, iterations=1)
    table = artefact.render(measured)
    report(table)
    assert_pinned(artefact.id, table)
    artefact.check(measured)
