"""One changed value, line or time-series cell never crashes ``falsikit run``.

Each example copies a small workspace (two classes of 8 candidates, 5 s
records), changes one thing in it and runs ``cli.main`` with warnings raised
as errors.  The run either succeeds (exit 0) or is refused (exit 2) with a
message that names a section header or a class of the config, a key or a file;
anything else, a traceback or a numpy warning included, fails the test.
"""

import contextlib
import io
import re
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from falsikit.cli import main as cli_main
from falsikit.dynamics import IsolatedSystem, add_measurement_noise, band_limited_record, simulate
from falsikit.pipeline import write_timeseries

# the tier-1 pipeline workspace with one RK4 substep per sample, so a run that
# passes every check takes tens of milliseconds
CONFIG = """\
[run]
master_seed = 11
samples_per_class = 8
output_dir = out
dt_int = 0.05

[building]
story_masses = 300 300 300
story_stiffnesses = 40 40 40
base_mass = 500

[noise]
sigma_fraction = 0.15

[measurement]
file = measured.tsv

[excitation]
calibration = cal.tsv
prediction = pred.tsv
prediction_truth = pred_truth.tsv

[class:boucwen]
binding = boucwen
k_post = lognormal 4.5 0.25
c_b = lognormal 20 4
r_k = uniform 0.16 0.0058
Q_y = uniform 4.75 0.2887

[class:aashto]
binding = aashto
k_post = lognormal 4.5 0.25
c_b = lognormal 20 4
r_k = uniform 0.16 0.0058
r_d = uniform 2.5 0.2887
"""
SERIES = ("cal.tsv", "pred.tsv", "measured.tsv", "pred_truth.tsv")

# values that each parse differently; none asks for a long run (no large
# sample count, no dt_int that divides 0.05 s into many substeps) or names a
# path outside the workspace
TOKENS = ("", "0", "1", "-1", "3", "0.5", "0.025", "1e-300", "1e300", "1e-5", "nan", "inf",
          "-inf", "abc", "5OO", "%", "1 2", "1 2 3", "0 0", "lognormal 1 2", "lognormal 0 1",
          "uniform 0 0", "uniform 1 5", "normal -5 1 positive", "normal 1 0", "fixed",
          "boucwen", "bilinear", "aashto", "caltrans", "out", "cal.tsv", "measured.tsv",
          "pred.tsv measured.tsv", "missing.tsv", "1e300 1e300 1e300", "1e-300 1e-300 1e-300")
KEYS = ("master_seed", "samples_per_class", "output_dir", "alpha", "dt_int", "story_masses",
        "story_stiffnesses", "base_mass", "damping_ratio", "damping_modes", "sigma",
        "sigma_fraction", "file", "calibration", "prediction", "prediction_truth", "binding",
        "k_post", "c_b", "r_k", "Q_y", "r_d", "n_pow", "fixed_Q_y", "fixed_r_d", "bogus")
SECTIONS = ("run", "building", "noise", "measurement", "excitation", "class:boucwen",
            "class:bilinear", "class:x", "class:", "nosie")

lines = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(KEYS), st.sampled_from(TOKENS)),
    st.sampled_from(SECTIONS).map("[{}]".format),
    st.sampled_from(TOKENS),
)
changes = st.one_of(
    st.tuples(st.just("value"), st.integers(0, 10 ** 6), st.sampled_from(TOKENS)),
    st.tuples(st.just("line"), st.integers(0, 10 ** 6), lines),
    st.tuples(st.just("cell"), st.sampled_from(SERIES), st.integers(0, 10 ** 6),
              st.integers(0, 1), st.sampled_from(TOKENS)),
)


@pytest.fixture(scope="module")
def template(tmp_path_factory, building):
    directory = tmp_path_factory.mktemp("fuzz_template")
    cal = band_limited_record(5.0, 0.05, seed=3, peak=2.0)
    pred = band_limited_record(5.0, 0.05, seed=4, peak=2.5)
    iso = IsolatedSystem(building, "boucwen", k_post=4.0, c_b=20.0, r_k=0.1667, Q_y=5.0)
    measured = add_measurement_noise(simulate(iso, cal), 0.2, np.random.default_rng(1))
    write_timeseries(directory / "cal.tsv", 0.05, cal.samples)
    write_timeseries(directory / "pred.tsv", 0.05, pred.samples)
    write_timeseries(directory / "measured.tsv", 0.05, measured.d)
    write_timeseries(directory / "pred_truth.tsv", 0.05, simulate(iso, pred).d)
    (directory / "run.ini").write_text(CONFIG)
    return directory


def _apply(directory: Path, change) -> None:
    """Change one value or line of run.ini, or one cell of a time-series file."""
    kind, *args = change
    if kind == "cell":
        name, row, column, token = args
        rows = [line.split("\t") for line in (directory / name).read_text().splitlines()]
        rows[row % len(rows)][column] = token
        (directory / name).write_text("".join("\t".join(cells) + "\n" for cells in rows))
        return
    config = directory / "run.ini"
    text = config.read_text().splitlines()
    index, new = args
    if kind == "value":
        assignments = [i for i, line in enumerate(text) if " = " in line]
        index = assignments[index % len(assignments)]
        new = f"{text[index].split(' = ')[0]} = {new}"
    text[index % len(text)] = new
    config.write_text("\n".join(text) + "\n")


def _run(template: Path, change=None) -> tuple[int, str, str, bool]:
    """``falsikit run`` on a copy of the workspace with ``change`` applied, warnings
    raised as errors: the exit code, stderr, the config that ran and whether the
    run made its output directory."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "ws"
        shutil.copytree(template, directory)
        if change is not None:
            _apply(directory, change)
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = cli_main(["run", "--config", str(directory / "run.ini")])
        return (code, err.getvalue(), (directory / "run.ini").read_text(),
                (directory / "out").exists())


def _names_a_cause(err: str, config: str) -> bool:
    """Whether ``err`` names a section header or a class of ``config``, one of its keys
    or a file of the workspace."""
    headers = re.findall(r"^\s*(\[[^\]\n]*\])", config, re.MULTILINE)
    classes = [f"class '{h[len('[class:'):-1]}'" for h in headers if h.startswith("[class:")]
    keys = re.findall(r"^\s*([^\s=\[]+)\s*=", config, re.MULTILINE)
    names = ("run.ini",) + SERIES + tuple(keys) + tuple(headers) + tuple(classes)
    return any(name in err for name in names)


def test_a_bracket_alone_names_no_cause():
    # a model index list is no section, and only a class of the config names one
    assert not _names_a_cause("error: simulation diverged at t = 0.1 s (models [0, 1])\n", CONFIG)
    assert not _names_a_cause("error: class 'x': simulation diverged at t = 0.1 s\n", CONFIG)
    assert _names_a_cause("error: class 'aashto': simulation diverged at t = 0.1 s\n", CONFIG)
    assert _names_a_cause("error: [noise] residuals overflow\n", CONFIG)


def _check(template: Path, change) -> None:
    """The run with ``change`` succeeds or is refused, naming a section, key or file."""
    code, err, config, _ = _run(template, change)
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith("error: ") and "Traceback" not in err, err
        assert _names_a_cause(err, config), err


def _value(key, token):
    """The change that sets the first ``key`` of the config to ``token``."""
    keys = [line.split(" = ")[0] for line in CONFIG.splitlines() if " = " in line]
    return ("value", keys.index(key), token)


# a building whose fastest mode lies far outside RK4's stability region at the step
_TOO_STIFF = (r"\[building\] is too stiff for \[run\] dt_int = 0\.05 s: dt_int times its "
              r"operator's spectral radius is %s > 2\.96\n")


# inputs that once ended the run with a numpy overflow warning, or with every candidate
# diverging at the first steps; and whether the refusal comes after output_dir is made
@pytest.mark.parametrize("change,message,made_output", [
    (_value("base_mass", "1e300"),
     r"\[class:aashto\] aashto damping overflows at 1e\+303 kg of mass", False),
    (_value("sigma_fraction", "1e-300"),
     r"\[noise\] residuals over a sigma of [0-9.e+-]+ overflow the log-likelihood", True),
    (("cell", "measured.tsv", 50, 1, "1e300"),
     r"measured\.tsv: non-finite entry, or one beyond 1e\+150 in magnitude, at data row 51",
     False),
    (("cell", "pred_truth.tsv", 0, 1, "1e300"),
     r"pred_truth\.tsv: non-finite entry, or one beyond 1e\+150 in magnitude, at data "
     r"row 1", False),
    (_value("story_masses", "1e-300 1e-300 1e-300"), _TOO_STIFF % r"1\.8e\+151", False),
    (_value("story_stiffnesses", "1e300 1e300 1e300"), _TOO_STIFF % r"1\.67e\+149", False),
    (_value("base_mass", "1e-300"), _TOO_STIFF % r"1\.64e\+301", False),
], ids=("base_mass", "sigma_fraction", "measured", "pred_truth", "story_masses-tiny",
        "story_stiffnesses-huge", "base_mass-tiny"))
def test_overflow_is_refused_by_name(template, change, message, made_output):
    code, err, _, made = _run(template, change)
    assert code == 2
    assert re.match(r"error: .*" + message, err)
    assert made == made_output


def test_unchanged_workspace_runs(template):
    assert _run(template)[:2] == (0, "")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(change=changes)
def test_one_change_runs_or_is_refused_by_name(template, change):
    _check(template, change)
