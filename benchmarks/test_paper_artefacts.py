"""The paper-artefact table is well formed, and its cheap artefacts
match their pins on every run (``bench_paper_artefacts.py`` runs them
all)."""

import ast
import inspect
import textwrap

import pytest

from paper_artefacts import ARTEFACTS, PINS, REGEN, Artefact, assert_pinned


def check_count(artefact: Artefact) -> int:
    """The ``assert`` statements in the artefact's checks."""
    source = textwrap.dedent(inspect.getsource(type(artefact).check))
    return sum(isinstance(node, ast.Assert)
               for node in ast.walk(ast.parse(source)))


def test_ids_are_unique():
    ids = [artefact.id for artefact in ARTEFACTS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("artefact", ARTEFACTS, ids=lambda a: a.id)
def test_artefact_is_declared_in_full(artefact):
    assert artefact.section and type(artefact).__doc__
    assert bool(artefact.grid) != (type(artefact).measure is not Artefact.measure)
    assert (PINS / f"{artefact.id}.txt").is_file()
    assert check_count(artefact) > 0


def test_no_pin_is_orphaned():
    assert ({pin.stem for pin in PINS.glob("*.txt")}
            == {artefact.id for artefact in ARTEFACTS})


#: Artefacts whose ``measure()`` costs at most 1.2 CPU-s (one process,
#: ``REPRO_SWEEP_JOBS=1``; about 8 s together), held to their pins on
#: every run.  CI's nightly job runs all of them.
PIN_CHECKED = (
    "fig03-strategy-utilization", "fig04-gpu-scaleout",
    "fig05-footprint-irregularity", "fig06-vmm-latency",
    "table1-vmm-breakdown", "sec22-native-vs-caching", "fig12-platforms",
    "fig14-memory-trace", "table2-model-registry", "ablation-chunk-size",
    "ablation-fragmentation-limit", "ext-expandable-segments",
    "ext-inference-serving", "ext-online-serving", "ext-paged-vs-stitched",
    "ext-swap-vs-recompute", "ext-prefix-sharing",
    "ext-disagg-vs-colocated",
)


@pytest.mark.parametrize("artefact_id", PIN_CHECKED)
def test_matches_its_pin(artefact_id):
    (artefact,) = [a for a in ARTEFACTS if a.id == artefact_id]
    measured = artefact.measure()
    assert_pinned(artefact.id, artefact.render(measured))
    artefact.check(measured)


@pytest.mark.skipif(REGEN, reason="REPRO_REGEN_GOLDENS=1 rewrites pins")
def test_a_drifted_or_unpinned_table_fails():
    table = (PINS / "table1-vmm-breakdown.txt").read_text(encoding="utf-8")[:-1]
    assert_pinned("table1-vmm-breakdown", table)
    with pytest.raises(AssertionError):
        assert_pinned("table1-vmm-breakdown", table.replace("115.603", "115.600"))
    with pytest.raises(AssertionError, match="no pin"):
        assert_pinned("no-such-artefact", table)
