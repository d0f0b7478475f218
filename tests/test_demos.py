"""Every demo script runs to the end without raising."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
# Demo flags that shrink a run to smoke-test size.
ARGS = {"patch_scaling.py": ["--trials", "20"]}


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path, monkeypatch):
    # In-process, so the scripts share one import of numpy and scipy.
    monkeypatch.setattr(sys, "argv", [str(path), *ARGS.get(path.name, [])])
    runpy.run_path(str(path), run_name="__main__")
