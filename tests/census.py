"""Which ``src/repro`` functions no shipped caller reaches.

Runs, in one process under ``sys.setprofile``, the union of:

- every paper artefact's ``measure`` / ``render`` / ``check``
  (``benchmarks/paper_artefacts.py``);
- the five perf-harness workloads at seed 0 (``benchmarks/perf``);
- the eleven examples, at the smallest arguments
  ``tests/test_examples_smoke.py`` gives them;
- every ``repro <command> --help``;
- the 14 golden cells (``tests/test_equivalence_goldens.py``).

Every function ``src/repro`` defines (by AST: functions, methods and
nested functions; lambdas aside) that none of these calls is
*unreached*.  Each unreached function that stays in ``src/`` is
listed in ``tests/census_unreached.txt`` with one reason (a function
only a test calls belongs with the tests):

- ``interface default``: a base-class, protocol or observer-hook
  method, or a Python data-model method (``__repr__``, ``__len__``);
- ``invariant check``: a ``check_invariants`` or what only it calls;
- ``CLI / CI smoke``: reached by a documented command, a CI smoke or
  a CLI option the union does not run;
- ``documented public API``: named in ``docs/`` or ``README.md``;
- ``test observation point``: state a test reads that no run needs.

About five CPU-minutes::

    PYTHONPATH=src python tests/census.py           # print the unreached
    PYTHONPATH=src python tests/census.py --check   # compare with the list

``--check`` exits 1 on an unreached function that is not on the list,
on a listed one that something now reaches (strike it), and on an
entry whose reason is not one of the five.
``REPRO_SWEEP_JOBS=1`` is set first, so every grid point runs in this
process, inside the profiler.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LIST = Path(__file__).resolve().parent / "census_unreached.txt"

#: The only reasons a listed function may give for staying.
REASONS = ("interface default", "invariant check", "CLI / CI smoke",
           "documented public API", "test observation point")

#: Example -> the argv tail ``tests/test_examples_smoke.py`` runs it with.
EXAMPLES = {
    "quickstart": [], "vmm_microbench": [], "fragmentation_report": [],
    "serving_inference": ["opt-1.3b", "30"],
    "finetune_llm": ["opt-1.3b", "2"],
    "tiered_serving": ["opt-1.3b", "12", "60"],
    "disagg_serving": ["opt-1.3b", "6", "30"],
    "cluster_scaleout": ["opt-1.3b"],
    "batch_scaling": ["opt-1.3b"],
    "memory_trace": ["1"],
    "online_serving": ["opt-1.3b", "6", "10"],
}


# ----------------------------------------------------------------------
# What src/ defines
# ----------------------------------------------------------------------
def _defs(tree: ast.AST, prefix: str) -> Iterator[Tuple[str, int]]:
    """(qualified name, first line of its code object) of every function
    under ``tree``; a decorated function's code starts at its first
    decorator."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + node.name
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            yield name, first
            yield from _defs(node, name + ".")
        elif isinstance(node, ast.ClassDef):
            yield from _defs(node, prefix + node.name + ".")
        else:
            yield from _defs(node, prefix)


def defined() -> Dict[Tuple[str, int], str]:
    """(file, first line) -> ``module.qualname`` for every function in
    ``src/repro``."""
    out: Dict[Tuple[str, int], str] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, first in _defs(tree, module + "."):
            out[(str(path), first)] = name
    return out


# ----------------------------------------------------------------------
# The union of shipped callers
# ----------------------------------------------------------------------
def _artefacts() -> None:
    from paper_artefacts import ARTEFACTS

    for artefact in ARTEFACTS:
        measured = artefact.measure()
        artefact.render(measured)
        artefact.check(measured)


def _workloads() -> None:
    import child
    import specs

    with tempfile.TemporaryDirectory() as out_dir:
        for name in specs.NAMES:
            child.measure({"mode": "run", "workload": name, "seed": 0,
                           "out_dir": out_dir})


def _examples() -> None:
    for name, args in EXAMPLES.items():
        spec = importlib.util.spec_from_file_location(
            f"example_{name}", ROOT / "examples" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        argv, sys.argv = sys.argv, [f"{name}.py", *args]
        try:
            module.main()
        finally:
            sys.argv = argv


def _help_pins() -> None:
    from test_cli_help import COMMANDS

    from repro.cli import main

    for command in COMMANDS:
        with contextlib.suppress(SystemExit):
            main([command, "--help"])


def _golden_cells() -> None:
    from test_equivalence_goldens import SCENARIOS

    for run in SCENARIOS.values():
        run()


SOURCES = {"paper artefacts": _artefacts, "harness workloads": _workloads,
           "examples": _examples, "--help pins": _help_pins,
           "golden cells": _golden_cells}


def reached() -> Set[Tuple[str, int]]:
    """(file, first line) of every code object the union calls."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    for path in (SRC, ROOT / "benchmarks", ROOT / "benchmarks" / "perf",
                 ROOT / "tests"):
        sys.path.insert(0, str(path))
    for name, run in SOURCES.items():
        print(f"census: {name}", file=sys.stderr)
        with contextlib.redirect_stdout(io.StringIO()):
            sys.setprofile(profile)
            try:
                run()
            finally:
                sys.setprofile(None)
    return {(code.co_filename, code.co_firstlineno) for code in codes}


# ----------------------------------------------------------------------
# The committed list
# ----------------------------------------------------------------------
def load_list() -> List[Tuple[str, str]]:
    """``(name, reason)`` per entry, in file order; ``#`` lines and
    blank lines are comments."""
    entries = []
    for line in LIST.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, _, reason = line.partition(": ")
            entries.append((name, reason))
    return entries


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with tests/census_unreached.txt")
    args = parser.parse_args()
    os.environ["REPRO_SWEEP_JOBS"] = "1"
    functions = defined()
    hit = reached()
    unreached = sorted(name for key, name in functions.items()
                       if key not in hit)
    print(f"{len(unreached)} of {len(functions)} src/repro functions "
          "unreached")
    if not args.check:
        print("\n".join(unreached))
        return 0
    listed = dict(load_list())
    new = [name for name in unreached if name not in listed]
    stale = sorted(set(listed) - set(unreached))
    for name in new:
        print(f"unreached and not listed: {name}")
    for name in stale:
        print(f"listed but reached (or gone): {name}")
    unknown = sorted(name for name, why in listed.items()
                     if why not in REASONS)
    for name in unknown:
        print(f"listed without an allowed reason: {name}")
    return 1 if new or stale or unknown else 0


if __name__ == "__main__":
    sys.exit(main())
