"""Smoke test: every script in ``examples/`` runs to completion.

Each script runs in-process as ``__main__`` with no arguments (its
defaults), from a temporary working directory so the files it writes
land there.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: Files an example writes into its working directory.
WRITES = {"animation_export.py": "frames",
          "exhaustive_verification.py": "theorem1_scaling.svg"}


@pytest.mark.parametrize("script",
                         sorted(p.name for p in EXAMPLES.glob("*.py")))
def test_example_runs(script, tmp_path, monkeypatch, capsys):
    path = str(EXAMPLES / script)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [path])
    runpy.run_path(path, run_name="__main__")
    assert capsys.readouterr().out
    if script in WRITES:
        assert (tmp_path / WRITES[script]).exists()
