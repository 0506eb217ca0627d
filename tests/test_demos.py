"""Every demo still imports against the library, and the quick ones run."""

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


def test_tmd_frame_wind_runs(capsys):
    path = next(p for p in DEMOS if p.stem == "tmd_frame_wind")
    runpy.run_path(str(path), run_name="demo")["main"]()
    lines = capsys.readouterr().out.splitlines()
    laws = ("power_law_truth", "linear", "cubic", "boucwen")
    rms = {line.split()[0]: (line.split()[1], line.split()[3])
           for line in lines if line.split()[:1] and line.split()[0] in laws}
    assert set(rms) == set(laws)
    assert len(set(rms.values())) == len(laws)


def test_equivalent_linear_comparison_runs(capsys):
    path = next(p for p in DEMOS if p.stem == "equivalent_linear_comparison")
    runpy.run_path(str(path), run_name="demo")["main"]()
    headers = [line.split()[1:] for line in capsys.readouterr().out.splitlines()
               if line.split()[:1] == ["r_d"]]
    # one table of zeta_eq and one of k_eq, each with a column per code variant
    assert headers == [["aashto", "jpwri", "modified_aashto", "caltrans"]] * 2
