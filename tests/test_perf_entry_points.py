"""The perf harness's traced entry points resolve where they are defined.

``benchmarks/perf/child.py`` wraps each of its ``ENTRY_POINTS`` with a
span by looking the name up in its owner's own namespace,
``vars(owner)[attr]``.  A refactor that moves one into a base class (or
renames it) breaks only the benchmark's traced run; this test resolves
every entry exactly as ``SpanRecorder.install`` does, so the break
shows in the tier-1 suite.  The harness is loaded read-only, under a
private module name.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "benchmarks" / "perf" / "child.py"


def _load_child():
    spec = importlib.util.spec_from_file_location("_perf_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ENTRY_POINTS = _load_child().ENTRY_POINTS


@pytest.mark.parametrize("module_name, dotted", ENTRY_POINTS,
                         ids=[f"{m}:{d}" for m, d in ENTRY_POINTS])
def test_entry_point_is_defined_on_its_owner(module_name, dotted):
    owner = importlib.import_module(module_name)
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert attr in vars(owner), (
        f"{module_name}.{dotted} is not defined on {owner!r} itself "
        "(inherited or renamed); the traced benchmark run cannot wrap it")
    raw = vars(owner)[attr]
    assert callable(raw) or isinstance(raw, (classmethod, staticmethod))
