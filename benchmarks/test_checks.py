"""Tests of the benchmark's own reference integrator and output checks.

    python3 -m pytest benchmarks/test_checks.py

The check tests run falsikit once on a small workload, confirm that its
outputs pass, and then confirm that a ledger with one verdict flipped, a
log-likelihood perturbed by 1, or weights that do not sum to 1 are rejected.
"""

import contextlib
import io
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import reference
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

OMEGA, ZETA = 2.0 * np.pi * 0.8, 0.05
OMEGA_D = OMEGA * np.sqrt(1.0 - ZETA ** 2)
SDOF_A = np.array([[0.0, 1.0], [-OMEGA ** 2, -2.0 * ZETA * OMEGA]])
SDOF_B = np.array([0.0, 1.0])


def _step_response(t, force):
    """Displacement of a damped SDOF from rest under a constant force per mass."""
    decay = np.exp(-ZETA * OMEGA * t)
    return force / OMEGA ** 2 * (1.0 - decay * (np.cos(OMEGA_D * t)
                                                + ZETA * OMEGA / OMEGA_D * np.sin(OMEGA_D * t)))


def test_zoh_response_matches_damped_sdof_step_response():
    dt, force = 0.05, 3.0
    t = np.arange(400) * dt
    y = reference.zoh_response(SDOF_A, SDOF_B, np.array([1.0, 0.0]), 0.0,
                               np.full(t.size, force), dt)
    np.testing.assert_allclose(y, _step_response(t, force), rtol=0.0, atol=1e-12)


def test_ivp_response_matches_damped_sdof_step_response():
    dt, force = 0.05, 3.0
    t = np.arange(400) * dt
    y = reference.ivp_response(lambda x, u: SDOF_A @ x + SDOF_B * u, lambda x, u: x[0],
                               np.zeros(2), np.full(t.size, force), dt)
    np.testing.assert_allclose(y, _step_response(t, force), rtol=0.0, atol=1e-9)


def test_equivalent_linear_matches_hand_arithmetic():
    # AASHTO at r_k = 0.1667, r_d = 2.5 (acceptance criterion 9's case)
    r_k, r_d = 0.1667, 2.5
    zeta, k_eq = reference.equivalent_linear("aashto", 4.0, r_k, r_d)
    assert zeta == pytest.approx(2 * (1 - r_k) * (1 - 1 / r_d) / (np.pi * (1 + r_k * (r_d - 1))))
    assert k_eq == pytest.approx(4.0e6 / r_k / r_d * (1 + r_k * (r_d - 1)))


SMALL = workloads.Workload("small", ("boucwen", "aashto"), 20, "boucwen",
                           workloads.BOUCWEN_TRUTH, (2.0,))
SEED = 3


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A falsify-then-predict run of falsikit on a small workload."""
    from falsikit import cli

    base = tmp_path_factory.mktemp("small")
    inputs = base / "inputs"
    workloads.make_inputs(SMALL, SEED, inputs)
    config = base / "run.ini"
    config.write_text(workloads.config_text(SMALL, SEED, inputs))
    for stage in ("falsify", "predict"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["run", "--config", str(config), "--stage", stage]) == 0
    with np.load(inputs / "reference.npz") as data:
        arrays = dict(data)
    return base / "out", arrays


def _check(out, arrays):
    return checks.check_run(out, SMALL, arrays, np.random.default_rng(SEED))


def _mutated_copy(run_dir, tmp_path, name, edit):
    """Copy of the run's outputs with ``edit(names, rows)`` applied to one file."""
    out, arrays = run_dir
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    names, rows = checks.read_table(copy / name)
    edit(names, rows)
    (copy / name).write_text("\n".join("\t".join(r) for r in [names] + rows) + "\n")
    return copy, arrays


def _ledger_row(names, rows, survivor: bool):
    """Index of a boucwen row with the wanted verdict, far from the bound."""
    at = names.index("unfalsified") - len(names)
    ll = names.index("log_likelihood") - len(names)
    lb = names.index("log_bound") - len(names)
    candidates = [i for i, r in enumerate(rows)
                  if r[0] == "boucwen" and r[at] == str(int(survivor))
                  and abs(float(r[ll]) - float(r[lb])) > 2.0]
    assert candidates
    return candidates[0], at, ll


def test_program_outputs_pass(run_dir):
    out, arrays = run_dir
    assert _check(out, arrays) == []


def test_added_ledger_column_is_ignored(run_dir, tmp_path):
    def add_column(names, rows):
        names.append("note")
        for row in rows:
            row.append("0")
    assert _check(*_mutated_copy(run_dir, tmp_path, "verdicts.tsv", add_column)) == []


def test_flipped_verdict_is_rejected(run_dir, tmp_path):
    def flip(names, rows):
        i, at, _ = _ledger_row(names, rows, survivor=False)
        rows[i][at] = "1"
    failures = _check(*_mutated_copy(run_dir, tmp_path, "verdicts.tsv", flip))
    assert any("disagree with logL > logB" in f for f in failures)


@pytest.mark.parametrize("survivor", [False, True])
def test_log_likelihood_off_by_one_is_rejected(run_dir, tmp_path, survivor):
    def perturb(names, rows):
        i, _, ll = _ledger_row(names, rows, survivor)
        rows[i][ll] = repr(float(rows[i][ll]) + 1.0)
    failures = _check(*_mutated_copy(run_dir, tmp_path, "verdicts.tsv", perturb))
    assert any("cached simulation" in f for f in failures)


def test_weights_not_summing_to_one_are_rejected(run_dir, tmp_path):
    def scale(names, rows):
        w = names.index("weight")
        for row in rows:
            row[w] = repr(float(row[w]) * 1.01)
    failures = _check(*_mutated_copy(run_dir, tmp_path, "weights_boucwen.tsv", scale))
    assert any("sum to" in f for f in failures)
