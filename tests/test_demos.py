"""Every demo still imports against the library, and the quick one runs."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path):
    # run_name other than "__main__" loads the module without calling main()
    assert callable(runpy.run_path(str(path), run_name="demo")["main"])


def test_modal_screening_runs(capsys):
    path = next(p for p in DEMOS if p.stem == "modal_screening")
    runpy.run_path(str(path), run_name="demo")["main"]()
    out = capsys.readouterr().out
    assert "stiffness models survive" in out
    assert "true model retained: True" in out
