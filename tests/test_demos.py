"""The instant demos run to completion against the current API."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["collection_budget.py", "knife_edge_fit.py"])
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    # demos write their CSV files into the working directory
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
