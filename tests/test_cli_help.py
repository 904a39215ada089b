"""Every ``repro <command> --help`` text is pinned.

A CLI rewrite that means to keep the interface must leave these texts
alone; one that changes a flag on purpose shows the change as a diff
of ``tests/golden/cli/``.  The texts are rendered at a fixed terminal
width (``COLUMNS=100``).  After a deliberate change, rewrite the pins
with::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_cli_help.py
"""

import argparse
import os
from pathlib import Path

import pytest

from repro.cli import build_parser, main

PINS = Path(__file__).resolve().parent / "golden" / "cli"
REGEN = os.environ.get("REPRO_REGEN_GOLDENS") == "1"

COMMANDS = ("compare", "run", "sweep", "trace", "replay", "serve",
            "microbench", "models", "list-allocators", "list-components")


def test_every_command_is_pinned():
    commands, = (action.choices for action in build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    assert tuple(commands) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_help_matches_its_pin(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "100")
    with pytest.raises(SystemExit) as exited:
        main([command, "--help"])
    assert exited.value.code == 0
    text = capsys.readouterr().out
    pin = PINS / f"{command}.txt"
    if REGEN:
        PINS.mkdir(parents=True, exist_ok=True)
        pin.write_text(text, encoding="utf-8")
    assert text == pin.read_text(encoding="utf-8")
