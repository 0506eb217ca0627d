"""The benchmark's workloads and the input files made for them.

A workload fixes the building, the competing model classes with their
priors, the number of candidates per class, the truth model and the
excitations.  ``make_inputs`` turns a workload and a seed into the files the
program reads (calibration and prediction records, the noisy measurement)
plus the reference responses the checks compare against.  Every response
comes from ``reference``; nothing here imports falsikit.

Regenerate the inputs of one workload and seed with

    python3 benchmarks/workloads.py --workload replica --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

BENCH_DIR = Path(__file__).resolve().parent
CACHE_DIR = BENCH_DIR / ".cache"
# bump when the recipe below changes, so cached inputs are made again
INPUTS_VERSION = "2"

DT = 0.05
N_SAMPLES = 600                 # 30 s records
NOISE_FRACTION = 0.20           # measurement noise std / clean response std
SIGMA_FRACTION = 0.15           # residual sigma / measured response std
ALPHA = 0.05
BUILDING = reference.Building(story_masses=(300.0, 300.0, 300.0),
                              story_stiffnesses=(40.0, 40.0, 40.0), base_mass=500.0)

# prior: (kind, mean, std) as the run config spells it
HYSTERETIC_PRIORS = {"k_post": ("lognormal", 4.5, 0.25), "c_b": ("lognormal", 20.0, 4.0),
                     "r_k": ("uniform", 0.16, 0.0058), "Q_y": ("uniform", 4.75, 0.2887)}
LINEAR_PRIORS = {"k_post": ("lognormal", 4.5, 0.25), "c_b": ("lognormal", 20.0, 4.0),
                 "r_k": ("uniform", 0.16, 0.0058), "r_d": ("uniform", 2.5, 0.2887)}
BOUCWEN_TRUTH = {"k_post": 4.0, "c_b": 20.0, "r_k": 0.1667, "Q_y": 5.0}
LINEAR_TRUTH = {"k_post": 4.5, "c_b": 20.0, "r_k": 0.16, "r_d": 2.5}


def priors_of(kind: str) -> dict:
    return HYSTERETIC_PRIORS if kind in reference.HYSTERETIC_EXPONENTS else LINEAR_PRIORS


# The calibration scenario of the acceptance suite: record, measurement noise
# and prior draws.  Every workload calibrates on it, so each run falsifies the
# same candidates and keeps the same survivors, and the amount of work in both
# stages does not depend on the seed.
CALIBRATION_SEEDS = {"master": 2024, "calibration": 11, "noise": 100}
CALIBRATION_PEAK = 2.0          # [m/s^2]


@dataclass(frozen=True)
class Workload:
    name: str
    classes: tuple[str, ...]          # class id = physics binding
    samples_per_class: int
    truth_kind: str
    truth_theta: dict
    prediction_peaks: tuple[float, ...]
    # fixed prediction record seeds; None draws them from the run's seed
    prediction_seeds: tuple[int, ...] | None = None

    def seeds(self, seed: int) -> dict:
        """Record, noise and prior seeds of one run."""
        prediction = self.prediction_seeds
        if prediction is None:
            key = int.from_bytes(self.name.encode(), "little") % (2 ** 63)
            prediction = np.random.SeedSequence([key, seed]).generate_state(
                len(self.prediction_peaks))
        return dict(CALIBRATION_SEEDS, prediction=[int(v) for v in prediction])


WORKLOADS = {
    w.name: w for w in (
        Workload("replica", ("boucwen", "bilinear", "aashto", "jpwri", "modified_aashto",
                             "caltrans"), 500, "boucwen", BOUCWEN_TRUTH, (4.0,),
                 prediction_seeds=(23,)),
        Workload("linear_screen", ("aashto", "jpwri", "modified_aashto", "caltrans"),
                 750, "modified_aashto", LINEAR_TRUTH, (3.0, 4.0)),
        Workload("hysteretic_predict", ("boucwen", "bilinear"),
                 500, "boucwen", BOUCWEN_TRUTH, (2.0, 3.0, 4.0)),
    )
}


def _write_series(path: Path, values: np.ndarray):
    t = np.arange(values.size) * DT
    np.savetxt(path, np.column_stack([t, values]), fmt="%.17g", delimiter="\t",
               header="time\tvalue", comments="# ")


def _truth_response(workload: Workload, ag: np.ndarray) -> np.ndarray:
    theta = {k: np.array([v]) for k, v in workload.truth_theta.items()}
    return reference.response(BUILDING, workload.truth_kind, theta, ag, DT)[0]


def make_inputs(workload: Workload, seed: int, directory: Path) -> None:
    """Write the program's input files and the reference responses to ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    seeds = workload.seeds(seed)
    calibration = reference.band_limited_record(N_SAMPLES, DT, seeds["calibration"],
                                                CALIBRATION_PEAK)
    truth_cal = _truth_response(workload, calibration)
    measured = reference.add_noise(truth_cal, NOISE_FRACTION, seeds["noise"])
    _write_series(directory / "cal.tsv", calibration)
    _write_series(directory / "measured.tsv", measured)
    arrays = {"calibration": calibration, "truth_cal": truth_cal, "measured": measured}
    for i, (peak, rec_seed) in enumerate(zip(workload.prediction_peaks, seeds["prediction"])):
        record = reference.band_limited_record(N_SAMPLES, DT, rec_seed, peak)
        _write_series(directory / f"pred{i}.tsv", record)
        arrays[f"truth_pred{i}"] = _truth_response(workload, record)
    np.savez(directory / "reference.npz", **arrays)
    (directory / "seeds.json").write_text(json.dumps(seeds))


def inputs_for(workload: Workload, seed: int) -> Path:
    """Directory holding the inputs of (workload, seed), made on first use."""
    directory = CACHE_DIR / f"{workload.name}-seed{seed}-v{INPUTS_VERSION}"
    if not (directory / "complete").is_file():
        shutil.rmtree(directory, ignore_errors=True)
        tmp = directory.with_name(directory.name + f".tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        make_inputs(workload, seed, tmp)
        (tmp / "complete").write_text("")
        os.replace(tmp, directory)
    return directory


def config_text(workload: Workload, seed: int, inputs: Path) -> str:
    """The run configuration a user would write for this workload."""
    seeds = workload.seeds(seed)
    preds = " ".join(str(inputs / f"pred{i}.tsv") for i in range(len(workload.prediction_peaks)))
    lines = [
        "[run]",
        f"master_seed = {seeds['master']}",
        f"samples_per_class = {workload.samples_per_class}",
        "output_dir = out",
        f"alpha = {ALPHA}",
        "",
        "[building]",
        "story_masses = " + " ".join(f"{m:g}" for m in BUILDING.story_masses),
        "story_stiffnesses = " + " ".join(f"{k:g}" for k in BUILDING.story_stiffnesses),
        f"base_mass = {BUILDING.base_mass:g}",
        "",
        "[noise]",
        f"sigma_fraction = {SIGMA_FRACTION}",
        "",
        "[measurement]",
        f"file = {inputs / 'measured.tsv'}",
        "",
        "[excitation]",
        f"calibration = {inputs / 'cal.tsv'}",
        f"prediction = {preds}",
        "",
    ]
    for cid in workload.classes:
        lines += [f"[class:{cid}]", f"binding = {cid}"]
        lines += [f"{name} = {kind} {mean} {std}"
                  for name, (kind, mean, std) in priors_of(cid).items()]
        lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    directory = CACHE_DIR / f"{workload.name}-seed{args.seed}-v{INPUTS_VERSION}"
    shutil.rmtree(directory, ignore_errors=True)
    print(inputs_for(workload, args.seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
