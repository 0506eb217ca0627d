"""Checks of one run's outputs against computations that do not use falsikit.

Every reader looks columns up by their header name, so columns added to an
output file do not break a check.  Each ``check_*`` function returns a list
of failure messages; an empty list means the check passed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.special import logsumexp

import reference
import workloads as wl

# Relative RMS distance allowed between the program's simulation of a model and
# the reference response.  The program integrates with fixed-step RK4 at a
# tenth of the record step; over 36 prior draws on three records the worst
# distances were 1.9e-7 (linear), 3.9e-5 (boucwen) and 4.1e-3 (bilinear,
# whose n = 100 transition is stiff for that step).
SIM_TOLERANCE = {"linear": 1e-5, "boucwen": 5e-4, "bilinear": 2e-2}
# Relative RMS error allowed for the truth class's prediction against the
# reference truth response.  Over seeds 1-10 of hysteretic_predict and 1-12
# of linear_screen the worst error was 0.087 (a peak-4.0 input predicted from
# a peak-2.0 calibration); most were below 0.03.
PREDICTION_TOLERANCE = 0.20
# Sampled ledger rows re-simulated with the reference integrator, per class.
SAMPLED_ROWS = 2


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header names and rows of a tab-separated file with one header line.

    A header written as a comment (leading '# ') is accepted.
    """
    lines = Path(path).read_text().splitlines()
    names = lines[0].lstrip("#").strip().split("\t")
    rows = [line.split("\t") for line in lines[1:] if line.strip()]
    return names, rows


def column(names, rows, name, dtype=float) -> np.ndarray:
    i = names.index(name)
    return np.array([dtype(row[i]) for row in rows])


def read_ledger(path: Path, classes) -> dict[str, dict]:
    """Per-class ledger arrays: sample_index, theta, log_likelihood, log_bound, unfalsified.

    The ledger's header gathers the parameter columns under one ``theta...``
    entry that stands for as many columns as the row's class has parameters;
    every other column is read by its name.
    """
    names, rows = read_table(path)
    at = names.index("theta...")
    before, after = names[:at], names[at + 1:]
    records = []
    for row in rows:
        named = dict(zip(before, row[:at]))
        named.update(zip(after, row[len(row) - len(after):]))
        records.append((named, row[at:len(row) - len(after)]))
    ledger = {}
    for cid in classes:
        mine = [(named, theta) for named, theta in records if named["class_id"] == cid]
        ledger[cid] = {
            "sample_index": np.array([int(n["sample_index"]) for n, _ in mine]),
            "theta": np.array([[float(x) for x in t] for _, t in mine]).reshape(len(mine), -1),
            "log_likelihood": np.array([float(n["log_likelihood"]) for n, _ in mine]),
            "log_bound": np.array([float(n["log_bound"]) for n, _ in mine]),
            "unfalsified": np.array([int(n["unfalsified"]) for n, _ in mine]) == 1,
        }
    return ledger


def noise_sigma(measured: np.ndarray, sigma_fraction: float) -> float:
    return sigma_fraction * float(np.std(measured))


def check_ledger(ledger, measured, sigma_fraction, alpha, samples_per_class) -> list[str]:
    """Row count, shared log bound, and each verdict against logL > logB."""
    failures = []
    expected_bound = reference.log_bound(noise_sigma(measured, sigma_fraction),
                                         measured.size, alpha)
    for cid, rows in ledger.items():
        if not np.array_equal(rows["sample_index"], np.arange(samples_per_class)):
            failures.append(f"{cid}: ledger rows are not samples 0..{samples_per_class - 1}")
            continue
        bound = rows["log_bound"]
        if not np.all(np.abs(bound - expected_bound) <= 1e-9 * abs(expected_bound)):
            failures.append(f"{cid}: log bound {float(bound[0])!r} differs from the closed form "
                            f"{expected_bound!r}")
        flipped = np.nonzero(rows["unfalsified"] != (rows["log_likelihood"] > bound))[0]
        if flipped.size:
            failures.append(f"{cid}: verdicts of samples {flipped[:5].tolist()} disagree "
                            "with logL > logB")
    return failures


def check_likelihoods(ledger, simulations, measured, sigma_fraction) -> list[str]:
    """Every ledger logL against the Gaussian likelihood of the cached simulation."""
    failures = []
    sigma = noise_sigma(measured, sigma_fraction)
    for cid, rows in ledger.items():
        expected = reference.log_likelihood(simulations[cid], measured, sigma)
        gap = np.abs(rows["log_likelihood"] - expected)
        bad = np.nonzero(gap > 1e-9 * np.abs(expected) + 1e-6)[0]
        if bad.size:
            failures.append(f"{cid}: logL of samples {bad[:5].tolist()} differs from the "
                            f"likelihood of their cached simulation (worst gap {gap.max():.3g})")
    return failures


def sample_rows(ledger, rng: np.random.Generator) -> dict[str, list[int]]:
    """Per class, one unfalsified row (if any) and one row drawn from all rows."""
    picks = {}
    for cid, rows in ledger.items():
        survivors = np.nonzero(rows["unfalsified"])[0]
        chosen = [int(rng.choice(survivors))] if survivors.size else []
        while len(chosen) < min(SAMPLED_ROWS, rows["sample_index"].size):
            row = int(rng.integers(rows["sample_index"].size))
            if row not in chosen:
                chosen.append(row)
        picks[cid] = chosen
    return picks


def check_reference_rows(ledger, picks, parameters, simulations, calibration, measured,
                         sigma_fraction, building, dt) -> list[str]:
    """Sampled rows re-simulated from the ledger's theta with the reference integrator.

    The simulation must lie within ``SIM_TOLERANCE`` (relative RMS) of the
    reference, and the ledger's logL within the gap that this distance allows:
    |dlogL| <= ||eps/sigma|| tau ||h/sigma|| + (tau ||h/sigma||)^2 / 2.
    """
    failures = []
    sigma = noise_sigma(measured, sigma_fraction)
    for cid, chosen in picks.items():
        if not chosen:
            continue
        rows = ledger[cid]
        theta = {name: rows["theta"][chosen, j] for j, name in enumerate(parameters[cid])}
        h_ref = reference.response(building, cid, theta, calibration, dt)
        tau = SIM_TOLERANCE.get(cid, SIM_TOLERANCE["linear"])
        for i, row in enumerate(chosen):
            h = h_ref[i]
            distance = np.linalg.norm(simulations[cid][row] - h) / np.linalg.norm(h)
            if not distance <= tau:
                failures.append(f"{cid} sample {row}: simulation is {distance:.3g} (relative "
                                f"RMS) from the reference, allowed {tau:g}")
            expected = float(reference.log_likelihood(h, measured, sigma))
            scale = tau * np.linalg.norm(h) / sigma
            allowed = np.linalg.norm((h - measured) / sigma) * scale + 0.5 * scale ** 2 + 1e-6
            gap = abs(rows["log_likelihood"][row] - expected)
            if not gap <= allowed:
                failures.append(f"{cid} sample {row}: logL {rows['log_likelihood'][row]!r} is "
                                f"{gap:.3g} from the reference {expected!r}, allowed {allowed:.3g}")
    return failures


def read_weights(out: Path, ledger) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    weights = {}
    for cid in ledger:
        path = out / f"weights_{cid}.tsv"
        if path.is_file():
            names, rows = read_table(path)
            weights[cid] = (column(names, rows, "sample_index", int),
                            column(names, rows, "weight"))
    return weights


def check_weights(ledger, weights) -> list[str]:
    """Weights are exp(logL - logsumexp) over exactly the survivors and sum to 1."""
    failures = []
    for cid, rows in ledger.items():
        survivors = rows["sample_index"][rows["unfalsified"]]
        if cid not in weights:
            if survivors.size:
                failures.append(f"{cid}: {survivors.size} survivors but no weights file")
            continue
        index, w = weights[cid]
        if not np.array_equal(index, survivors):
            failures.append(f"{cid}: weighted samples are not the unfalsified samples")
            continue
        log_l = rows["log_likelihood"][rows["unfalsified"]]
        expected = np.exp(log_l - logsumexp(log_l))
        if not np.all(np.abs(w - expected) <= 1e-9 * expected + 1e-15):
            failures.append(f"{cid}: weights differ from exp(logL - logsumexp(logL))")
        if not abs(w.sum() - 1.0) <= 1e-9:
            failures.append(f"{cid}: weights sum to {w.sum()!r}, not 1")
    return failures


def weighted_theta(rows, index, w) -> np.ndarray:
    """Weighted mean parameter vector of the ledger rows at sample indices ``index``."""
    return w @ rows["theta"][np.searchsorted(rows["sample_index"], index)]


def check_estimates(ledger, weights, out: Path, parameters) -> list[str]:
    """Parameter estimates equal the weighted mean of the survivors' theta."""
    names, rows = read_table(out / "estimates.tsv")
    classes = column(names, rows, "class_id", str)
    params = column(names, rows, "parameter", str)
    values = column(names, rows, "estimate")
    failures = []
    for cid, (index, w) in weights.items():
        expected = weighted_theta(ledger[cid], index, w)
        for j, name in enumerate(parameters[cid]):
            got = values[(classes == cid) & (params == name)]
            if got.size != 1 or not abs(got[0] - expected[j]) <= 1e-9 * abs(expected[j]):
                failures.append(f"{cid}.{name}: estimate {got.tolist()} is not the weighted "
                                f"mean {expected[j]!r}")
    return failures


def check_manifest(manifest: dict, ledger, n_inputs: int) -> list[str]:
    """Counts agree with the ledger; prediction simulations = sum survivors x inputs."""
    failures = []
    n_u_total = 0
    for cid, rows in ledger.items():
        n_s, n_u = rows["unfalsified"].size, int(rows["unfalsified"].sum())
        n_u_total += n_u
        if manifest["counts"].get(cid) != {"n_s": n_s, "n_u": n_u, "n_f": n_s - n_u}:
            failures.append(f"{cid}: manifest counts {manifest['counts'].get(cid)} disagree "
                            f"with the ledger ({n_u} of {n_s} unfalsified)")
    if manifest["prediction_inputs"] != n_inputs:
        failures.append(f"manifest lists {manifest['prediction_inputs']} prediction inputs, "
                        f"not {n_inputs}")
    if manifest["prediction_simulations"] != n_u_total * n_inputs:
        failures.append(f"{manifest['prediction_simulations']} prediction simulations, not "
                        f"{n_u_total} survivors x {n_inputs} inputs")
    return failures


def read_prediction(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time, predicted response and spread of a one-channel prediction file."""
    names, rows = read_table(path)
    channel = [n for n in names if n != "time" and not n.startswith("spread_")]
    if len(channel) != 1:
        raise ValueError(f"{path}: expected one response column, found {channel}")
    return (column(names, rows, "time"), column(names, rows, channel[0]),
            column(names, rows, f"spread_{channel[0]}"))


def check_predictions(out: Path, ledger, truths: list[np.ndarray], truth_class: str,
                      dt: float) -> list[str]:
    """One file per surviving class and input; the truth class tracks the truth."""
    failures = []
    for i, truth in enumerate(truths):
        for cid, rows in ledger.items():
            path = out / f"prediction_pred{i}_{cid}.tsv"
            if not rows["unfalsified"].any():
                if path.exists():
                    failures.append(f"{path.name}: prediction for a fully falsified class")
                continue
            if not path.is_file():
                failures.append(f"{path.name}: missing")
                continue
            t, q, spread = read_prediction(path)
            if not np.allclose(t, np.arange(truth.size) * dt, rtol=0.0, atol=1e-9):
                failures.append(f"{path.name}: time column is not the record grid")
                continue
            if not (np.all(np.isfinite(q)) and np.all(spread >= 0.0)):
                failures.append(f"{path.name}: non-finite prediction or negative spread")
            if cid == truth_class:
                error = np.linalg.norm(q - truth) / np.linalg.norm(truth)
                if not error <= PREDICTION_TOLERANCE:
                    failures.append(f"{path.name}: relative RMS error {error:.4f} against the "
                                    f"reference truth exceeds {PREDICTION_TOLERANCE}")
    return failures


def check_replica_criteria(ledger, weights, parameters, truth_theta, manifest) -> list[str]:
    """Acceptance criteria 1, 3 and 11 of the frozen replica scenario."""
    failures = []
    fraction = {cid: rows["unfalsified"].mean() for cid, rows in ledger.items()}
    for cid in reference.LINEAR_KINDS:
        if fraction[cid] != 0.0:
            failures.append(f"criterion 1: {cid} keeps {fraction[cid]:.3f} unfalsified")
    if not fraction["boucwen"] >= 0.5:
        failures.append(f"criterion 1: boucwen keeps {fraction['boucwen']:.3f} < 0.5")
    if not 0.0 < fraction["bilinear"] <= 0.25:
        failures.append(f"criterion 1: bilinear keeps {fraction['bilinear']:.3f}")
    if "boucwen" in weights:
        estimate = weighted_theta(ledger["boucwen"], *weights["boucwen"])
        truth = np.array([truth_theta[p] for p in parameters["boucwen"]])
        rel = np.abs(estimate - truth) / truth
        if not np.all(rel <= 0.10):
            failures.append(f"criterion 3: estimates {estimate.tolist()} not within 10% of "
                            f"{truth.tolist()}")
    if not manifest["savings_ratio"] > 0.7:
        failures.append(f"criterion 11: savings ratio {manifest['savings_ratio']} <= 0.7")
    return failures


def check_run(out: Path, workload, inputs: dict, rng: np.random.Generator) -> list[str]:
    """All checks of one falsify-then-predict run in ``out``.

    ``inputs`` holds the reference arrays of the workload: calibration,
    measured and truth_pred<i>.
    """
    parameters = {cid: tuple(wl.priors_of(cid)) for cid in workload.classes}
    measured = inputs["measured"]
    ledger = read_ledger(out / "verdicts.tsv", workload.classes)
    simulations = {cid: np.load(out / f"sim_{cid}.npy") for cid in workload.classes}
    manifest = json.loads((out / "manifest.json").read_text())
    weights = read_weights(out, ledger)
    n_inputs = len(workload.prediction_peaks)
    failures = check_ledger(ledger, measured, wl.SIGMA_FRACTION, wl.ALPHA,
                            workload.samples_per_class)
    failures += check_likelihoods(ledger, simulations, measured, wl.SIGMA_FRACTION)
    failures += check_reference_rows(ledger, sample_rows(ledger, rng), parameters, simulations,
                                     inputs["calibration"], measured, wl.SIGMA_FRACTION,
                                     wl.BUILDING, wl.DT)
    failures += check_weights(ledger, weights)
    failures += check_estimates(ledger, weights, out, parameters)
    failures += check_manifest(manifest, ledger, n_inputs)
    failures += check_predictions(out, ledger, [inputs[f"truth_pred{i}"] for i in range(n_inputs)],
                                  workload.truth_kind, wl.DT)
    if workload.name == "replica":
        failures += check_replica_criteria(ledger, weights, parameters, workload.truth_theta,
                                           manifest)
    return failures
