"""Run configuration, data ingestion, and pipeline orchestration.

The pipeline runs simulate -> falsify -> predict from a single structured
config file (INI sections, key = value), writing a verdict ledger, weight
files, prediction series, and a JSON manifest into the output directory.
Reruns with the same config and seed produce byte-identical artifacts.
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import json
import math
import os
import re
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import dynamics
from .dynamics import ExcitationRecord, ShearBuildingModel
from .falsification import (ClassVerdicts, FdrConfig, MeasurementSet, ResidualNoiseModel,
                            falsify_classes, residuals)
from .prediction import (estimate_parameters, falsified_log_mass, post_falsification_weights,
                         predict_response, relative_rms_error)
from .priors import EnsembleSpec, ModelClassSpec, PriorSpec, generate_ensemble

__all__ = [
    "ConfigError",
    "RunConfig",
    "RunManifest",
    "parse_config",
    "ingest_timeseries",
    "ingest_measurement",
    "run_pipeline",
    "emit_report",
]

_FLOAT_FMT = "%.17g"   # round-trips double precision
STAGES = ("simulate", "falsify", "predict", "all")
MAX_SUBSTEPS_PER_SAMPLE = 1000   # RK4 substeps per record interval that dt_int may ask for
_MAX_ENTRY = 1.0e150   # a larger time-series entry squares, in norms and variances, to overflow
_CLASS_ID = re.compile(r"[A-Za-z0-9_.-]+")   # a class id names its sim_ and prediction_ files


class ConfigError(ValueError):
    """Configuration problem, with the offending key path in the message."""


# every key a section other than [class:<id>] may hold
_SECTION_KEYS = {
    "run": ("master_seed", "samples_per_class", "output_dir", "alpha", "dt_int"),
    "building": ("story_masses", "story_stiffnesses", "base_mass", "damping_ratio",
                 "damping_modes"),
    "noise": ("sigma_fraction", "sigma"),
    "measurement": ("file",),
    "excitation": ("calibration", "prediction", "prediction_truth"),
}


# ---------------------------------------------------------------------------
# configuration

@dataclass
class RunConfig:
    ensemble: EnsembleSpec
    building: ShearBuildingModel
    calibration_path: Path
    prediction_paths: tuple[Path, ...]
    prediction_truth_paths: tuple[Path, ...]
    measurement_path: Path | None
    sigma_fraction: float | None
    sigma_absolute: tuple[float, ...] | None
    fdr: FdrConfig
    dt_int: float | None
    output_dir: Path
    config_path: Path | None = None

    def noise_model(self, d: MeasurementSet) -> ResidualNoiseModel:
        if self.sigma_absolute is not None:
            return ResidualNoiseModel(self.sigma_absolute)
        stds = d.by_channel().std(axis=0)
        for name, std in zip(d.channel_names, stds):
            if not self.sigma_fraction * std > 0.0:
                raise ConfigError(f"[noise] sigma_fraction: channel {name!r} of "
                                  f"{self.measurement_path} has a spread of {std:g}, which gives "
                                  f"a sigma of {self.sigma_fraction * std:g}, not > 0")
        return ResidualNoiseModel(tuple(self.sigma_fraction * s for s in stds))


@dataclass
class RunManifest:
    """What a run did; each stage fills in its fields, and a stage not run leaves the defaults."""

    config_hash: str
    master_seed: int | None = None   # the seed the candidates were drawn with
    stage_seconds: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)   # class_id -> {"n_s", "n_u", "n_f"}
    savings_ratio: float = 0.0
    prediction_simulations: int = 0
    prediction_inputs: int = 0
    prediction_errors: dict = field(default_factory=dict)
    noise_sigma: list = field(default_factory=list)   # residual sigma of each channel
    # class_id -> {"log_bound", "margin_min", "margin_median", "margin_max"} of
    # log L - log B, "falsified_log_mass" (``falsified_log_mass``), plus
    # "effective_sample_size" 1 / sum w^2 once weighted
    class_stats: dict = field(default_factory=dict)
    # stage ("simulate", "predict") -> the batches it simulated, as ``dynamics.simulate_classes``
    # records them; no "simulate" entry for a calibration read from the cache.  Their
    # "seconds", like stage_seconds, are not reproduced by a rerun
    batches: dict = field(default_factory=dict)
    dt_int: float | None = None   # the RK4 step [s]
    substeps_per_sample: dict = field(default_factory=dict)   # record path -> RK4 substeps

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _parse_prior(class_name: str, key: str, text: str) -> PriorSpec:
    parts = text.split()
    if len(parts) not in (3, 4):
        raise ConfigError(
            f"[class:{class_name}] {key}: expected 'kind mean std [positive]', got {text!r}")
    kind = parts[0].lower()
    try:
        mean, std = float(parts[1]), float(parts[2])
    except ValueError:
        raise ConfigError(f"[class:{class_name}] {key}: non-numeric prior moments in {text!r}")
    flag = parts[3].lower() if len(parts) == 4 else None
    if flag not in (None, "positive"):
        raise ConfigError(f"[class:{class_name}] {key}: unknown prior flag {parts[3]!r}; "
                          "expected 'positive'")
    try:
        return PriorSpec(kind=kind, mean=mean, std_dev=std, positive_only=flag is not None)
    except ValueError as err:
        raise ConfigError(f"[class:{class_name}] {key}: {err}")


def _number(section: str, key: str, text: str, kind=float):
    try:
        value = kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"[{section}] {key}: expected {what}, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: expected a finite number, got {text!r}")
    return value


def _floats(section: str, key: str, text: str) -> tuple[float, ...]:
    return tuple(_number(section, key, x) for x in text.replace(",", " ").split())


def _prediction_name(stem: str, class_id: str) -> str:
    """The file of a class's prediction for the input of file name stem ``stem``."""
    return f"prediction_{stem}_{class_id}.tsv"


def parse_config(path) -> RunConfig:
    """Parse and fully validate a run configuration file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None,
                                   default_section="")   # no header matches: [DEFAULT] is refused
    cp.optionxform = str  # keep parameter-name case (Q_y)
    try:
        cp.read(path)
    except configparser.DuplicateOptionError as err:
        raise ConfigError(f"{path}, line {err.lineno}: [{err.section}] {err.option}: "
                          "key given twice") from None
    except configparser.DuplicateSectionError as err:
        raise ConfigError(f"{path}, line {err.lineno}: section [{err.section}] given twice") from None
    except configparser.MissingSectionHeaderError as err:
        raise ConfigError(f"{path}, line {err.lineno}: {err.line.strip()!r} comes before "
                          "the first [section] header") from None
    except configparser.ParsingError as err:
        raise ConfigError(f"{path}, line {err.errors[0][0]}: expected a [section] header "
                          "or a 'key = value' line") from None
    for section in cp.sections():
        if section.startswith("class:"):
            continue
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]; expected "
                              f"{', '.join(f'[{s}]' for s in _SECTION_KEYS)} or [class:<id>]")
        for key in cp.options(section):
            if key not in _SECTION_KEYS[section]:
                raise ConfigError(f"[{section}] {key}: unknown key; expected one of "
                                  f"{', '.join(_SECTION_KEYS[section])}")

    def get(section, key, default=None, required=False):
        if cp.has_option(section, key):
            return cp.get(section, key)
        if required:
            raise ConfigError(f"missing required key [{section}] {key}")
        return default

    def number(section, key, default=None, required=False, kind=float):
        text = get(section, key, default, required)
        return None if text is None else _number(section, key, text, kind)

    # [run]
    master_seed = number("run", "master_seed", required=True, kind=int)
    if master_seed < 0:
        raise ConfigError(f"[run] master_seed must be >= 0, got {master_seed}")
    samples_per_class = number("run", "samples_per_class", required=True, kind=int)
    if samples_per_class < 1:
        raise ConfigError(f"[run] samples_per_class must be >= 1, got {samples_per_class}")
    output_dir = Path(get("run", "output_dir", required=True))
    alpha = number("run", "alpha", "0.05")
    try:
        fdr = FdrConfig(alpha=alpha)
    except ValueError as err:
        raise ConfigError(f"[run] {err}") from None
    dt_int = number("run", "dt_int")
    if dt_int is not None and dt_int <= 0.0:
        raise ConfigError(f"[run] dt_int must be > 0, got {dt_int}")

    # [building]
    if not cp.has_section("building"):
        raise ConfigError("missing required section [building]")
    masses = _floats("building", "story_masses", get("building", "story_masses", required=True))
    stiffs = _floats("building", "story_stiffnesses",
                     get("building", "story_stiffnesses", required=True))
    base_mass = number("building", "base_mass", required=True)
    damping_ratio = number("building", "damping_ratio", "0.03")
    modes_text = get("building", "damping_modes", "1 2")
    modes = _floats("building", "damping_modes", modes_text)
    if len(modes) != 2 or not all(m.is_integer() for m in modes):
        raise ConfigError(f"[building] damping_modes: expected two integers, got {modes_text!r}")
    try:
        building = ShearBuildingModel(
            story_masses=masses, story_stiffnesses=stiffs, base_mass=base_mass,
            damping_ratio=damping_ratio, damping_modes=(int(modes[0]), int(modes[1])))
    except ValueError as err:
        raise ConfigError(f"[building]: {err}")

    # [noise]
    if cp.has_option("noise", "sigma_fraction") and cp.has_option("noise", "sigma"):
        raise ConfigError("[noise] sigma_fraction and sigma: give one of them, not both")
    sigma_absolute = None
    sigma_fraction = number("noise", "sigma_fraction")
    if sigma_fraction is not None and sigma_fraction <= 0.0:
        raise ConfigError("[noise] sigma_fraction must be > 0")
    if cp.has_option("noise", "sigma"):
        sigma_absolute = _floats("noise", "sigma", get("noise", "sigma"))
        if any(sigma <= 0.0 for sigma in sigma_absolute):
            raise ConfigError(f"[noise] sigma must be > 0, got {get('noise', 'sigma')!r}")
        n_channels = len(building.channel_names)
        if len(sigma_absolute) not in (1, n_channels):
            raise ConfigError(f"[noise] sigma: expected one value or one per measured channel "
                              f"({n_channels}), got {len(sigma_absolute)}")
    if sigma_fraction is None and sigma_absolute is None:
        raise ConfigError("missing [noise] sigma_fraction or sigma")

    # [measurement]
    measurement_path = None
    if cp.has_section("measurement"):
        file_text = get("measurement", "file")
        measurement_path = Path(file_text) if file_text else None

    # [excitation]
    calibration = get("excitation", "calibration", required=True)
    calibration_path = Path(calibration)
    pred_text = get("excitation", "prediction", "")
    prediction_paths = tuple(Path(p) for p in pred_text.split())
    stems = [p.stem for p in prediction_paths]
    if len(set(stems)) != len(stems):
        raise ConfigError(f"[excitation] prediction: inputs {pred_text!r} share a file name "
                          "stem, which names their prediction files")
    truth_text = get("excitation", "prediction_truth", "")
    truth_paths = tuple(Path(p) for p in truth_text.split())
    if truth_paths and len(truth_paths) != len(prediction_paths):
        raise ConfigError("[excitation] prediction_truth must match prediction, one per input")

    # class sections
    class_specs = []
    for section in cp.sections():
        if not section.startswith("class:"):
            continue
        class_id = section.split(":", 1)[1]
        if not _CLASS_ID.fullmatch(class_id):
            raise ConfigError(f"[{section}] class id must be one or more of the characters "
                              "A-Z a-z 0-9 _ . -, as it names the class's files")
        binding = get(section, "binding", required=True)
        if binding not in building.bindings:
            raise ConfigError(f"unknown physics binding {binding!r}; registered bindings: "
                              f"{sorted(building.bindings)}")
        takes, optional = building.bindings[binding]
        names, priors = [], []
        fixed = {}
        for key, value in cp.items(section):
            if key == "binding":
                continue
            name = key.removeprefix("fixed_")
            if name != key:
                fixed[name] = _number(section, key, value)
            else:
                names.append(key)
                priors.append(_parse_prior(class_id, key, value))
            if name not in takes:
                raise ConfigError(f"[{section}] {key}: the {binding} binding takes no parameter "
                                  f"{name!r}; it takes {', '.join(takes)}")
        if not names:
            raise ConfigError(f"[{section}] declares no parameters")
        for name in names:
            if name in fixed:
                raise ConfigError(f"[{section}] fixed_{name}: {name} already has a prior")
        given = {*names, *fixed, *optional}
        missing = [name for name in takes if name not in given]
        if missing:
            raise ConfigError(f"[{section}] the {binding} binding needs {missing[0]!r}, as a "
                              f"prior or a fixed_ value; it takes {', '.join(takes)}")
        class_specs.append(ModelClassSpec(
            class_id=class_id, parameter_names=tuple(names), priors=tuple(priors),
            physics_binding=binding, fixed_constants=fixed))
    if not class_specs:
        raise ConfigError("no [class:...] sections defined")
    written = {}   # prediction file name -> (input, class id) of the prediction it holds
    for p in prediction_paths:
        for spec in class_specs:
            name = _prediction_name(p.stem, spec.class_id)
            if name in written:
                q, other = written[name]
                raise ConfigError(f"[excitation] prediction: input {q} with class {other!r} and "
                                  f"input {p} with class {spec.class_id!r} both write {name}")
            written[name] = (p, spec.class_id)

    ensemble = EnsembleSpec(class_specs=tuple(class_specs),
                            samples_per_class=samples_per_class, master_seed=master_seed)

    base = path.parent

    def resolved(p):
        return p if p.is_absolute() else base / p

    for p in (calibration_path, *prediction_paths, *truth_paths):
        if not resolved(p).is_file():
            raise ConfigError(f"referenced file does not exist: {p}")
    if measurement_path is not None and not resolved(measurement_path).is_file():
        raise ConfigError(f"[measurement] file does not exist: {measurement_path}")

    return RunConfig(
        ensemble=ensemble, building=building,
        calibration_path=resolved(calibration_path),
        prediction_paths=tuple(resolved(p) for p in prediction_paths),
        prediction_truth_paths=tuple(resolved(p) for p in truth_paths),
        measurement_path=resolved(measurement_path) if measurement_path else None,
        sigma_fraction=sigma_fraction, sigma_absolute=sigma_absolute,
        fdr=fdr, dt_int=dt_int,
        output_dir=output_dir if output_dir.is_absolute() else base / output_dir,
        config_path=path)


# ---------------------------------------------------------------------------
# time-series ingestion

def _read_numeric_table(path) -> np.ndarray:
    fields, widths, linenos = [], [], []   # each data row's tokens, token count and line
    header_allowed = True   # a header may only be the first line not blank or a comment
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            if header_allowed:
                header_allowed = False
                try:
                    [float(x) for x in parts]
                except ValueError:
                    continue   # optional header line
            fields += parts
            widths.append(len(parts))
            linenos.append(lineno)
    if not widths:
        raise ValueError(f"{path}: no numeric rows")
    try:
        values = np.array(fields, dtype=float)   # float() of each token
    except ValueError:
        start = 0
        for lineno, width in zip(linenos, widths):
            try:
                [float(x) for x in fields[start:start + width]]
            except ValueError:
                raise ValueError(f"{path}: non-numeric data at line {lineno}") from None
            start += width
        raise
    if len(set(widths)) != 1:
        raise ValueError(f"{path}: inconsistent column counts {sorted(set(widths))}")
    table = values.reshape(len(widths), widths[0])
    within = np.abs(table) <= _MAX_ENTRY   # false for nan and inf too
    if not within.all():
        bad = int(np.nonzero(~within.all(axis=1))[0][0]) + 1
        raise ValueError(f"{path}: non-finite entry, or one beyond {_MAX_ENTRY:g} in "
                         f"magnitude, at data row {bad}")
    return table


def _check_uniform_grid(path, t: np.ndarray) -> float:
    if t.size < 2:
        raise ValueError(f"{path}: need at least two samples")
    dt = t[1] - t[0]
    if dt <= 0.0:
        raise ValueError(f"{path}: time column must be strictly increasing")
    deviation = np.abs(np.diff(t) - dt)
    if np.any(deviation > 1e-6 * dt):
        row = int(np.argmax(deviation > 1e-6 * dt)) + 2
        raise ValueError(f"{path}: non-uniform time grid at data row {row}")
    return float(dt)


def _read_series(path, n_channels: int | None = None) -> tuple[float, np.ndarray]:
    """The sample interval and the (n, channels) values of a (time, value...) file.

    The first column is time [s] on a strictly increasing uniform grid
    (tolerance 1e-6 dt); one value column per channel follows, as many as
    ``n_channels`` when it is given.  Blank lines and ``#`` comments are
    skipped, and so is one non-numeric header line if it comes before the
    first row.
    """
    table = _read_numeric_table(path)
    if n_channels is not None and table.shape[1] != n_channels + 1:
        raise ValueError(
            f"{path}: expected {n_channels + 1} columns "
            f"(time + {n_channels} channel(s)), found {table.shape[1]}")
    if table.shape[1] < 2:
        raise ValueError(f"{path}: expected a time column and at least one value column")
    return _check_uniform_grid(path, table[:, 0]), table[:, 1:]


def ingest_timeseries(path) -> ExcitationRecord:
    """Read a delimited (time, value) text file into an ExcitationRecord."""
    dt, values = _read_series(path, 1)
    return ExcitationRecord(dt=dt, samples=values[:, 0], label=Path(path).name)


def ingest_measurement(path, channel_names=None) -> MeasurementSet:
    """Read a measured response file of any number of channels into a stacked MeasurementSet.

    Without ``channel_names`` the channels are named ``channel_0``, ...;
    with them, the file must have one value column per name.
    """
    dt, values = _read_series(path, None if channel_names is None else len(channel_names))
    if channel_names is None:
        channel_names = tuple(f"channel_{i}" for i in range(values.shape[1]))
    return MeasurementSet(d=values.reshape(-1), dt=dt, channel_names=channel_names)


def write_timeseries(path, dt: float, columns: np.ndarray, header: str | None = None):
    """Write (time, columns...) delimited text with full double precision.

    ``columns`` is one column (1-d) or an (n_samples, n_columns) table.  A
    ``header`` comes first, each of its lines as ``# <line>``.
    """
    table = np.column_stack([np.arange(len(columns)) * dt, columns])
    text = "# " + header.replace("\n", "\n# ") + "\n" if header else ""
    _atomic_write_text(path, text + _rows_text("\t".join([_FLOAT_FMT] * table.shape[1]), table))


def _rows_text(row: str, table: np.ndarray) -> str:
    """The lines ``row % tuple(r)`` of the rows r of ``table``, formatted in one call."""
    return ((row + "\n") * len(table)) % tuple(table.ravel().tolist())


@contextlib.contextmanager
def _atomic(path):
    """A binary handle on ``path``.tmp, which replaces ``path`` when the block completes,
    so ``path`` holds either its old bytes or all of the new ones."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        yield fh
    os.replace(tmp, path)


def _atomic_write_text(path, text):
    with _atomic(path) as fh:
        fh.write(text.encode())


def _write_manifest(out: Path, manifest: RunManifest) -> RunManifest:
    _atomic_write_text(out / "manifest.json", manifest.to_json())
    return manifest


# ---------------------------------------------------------------------------
# pipeline

def _build_system(class_spec: ModelClassSpec, theta: np.ndarray, config: RunConfig):
    try:
        return config.building.system(class_spec.physics_binding, **class_spec.fixed_constants,
                                      **dict(zip(class_spec.parameter_names, theta.T)))
    except ValueError as err:
        raise ConfigError(f"[class:{class_spec.class_id}] {err}") from None


def _check_dt_int(given: float | None, dt_int: float, records: dict) -> dict:
    """Each record's RK4 substeps per sample, refusing a ``dt_int`` that does not
    split its dt into whole substeps.

    ``given`` is the configured ``dt_int`` (None for the default ``dt_int``,
    calibration dt / 10) and ``records`` maps each record's path to the
    record.  One sample may take at most ``MAX_SUBSTEPS_PER_SAMPLE`` substeps.
    """
    stated = f"dt_int = {dt_int:g} s"
    key = f"[run] {stated}" + ("" if given is not None
                               else " (the default, calibration dt / 10)")
    substeps = {}
    for path, record in records.items():
        try:
            n_sub = dynamics.substeps_per_sample(record.dt, dt_int)
        except ValueError as err:   # the message restates dt_int; the key replaces it
            raise ConfigError(f"{key}{str(err).removeprefix(stated)} of {path}") from None
        if n_sub > MAX_SUBSTEPS_PER_SAMPLE:
            raise ConfigError(f"{key} takes {n_sub} RK4 substeps per sample of {path}; "
                              f"at most {MAX_SUBSTEPS_PER_SAMPLE} are allowed")
        substeps[str(path)] = n_sub
    return substeps


def _check_pair(series: MeasurementSet, name: str, record: ExcitationRecord,
                record_name: str) -> None:
    """Refuse a measured ``series`` not sampled as ``record``: at its dt, one row per step."""
    if abs(series.dt - record.dt) > 1e-6 * record.dt:
        raise ConfigError(f"{name}: sampled at dt = {series.dt:g} s, {record_name} at "
                          f"dt = {record.dt:g} s")
    rows = len(series.by_channel())
    if rows != record.n_steps:
        raise ConfigError(f"{name}: {rows} time samples, but {record_name} has {record.n_steps}")


def _simulation_key(config: RunConfig, calibration: ExcitationRecord, dt_int: float) -> str:
    """sha256 of everything the calibration simulations depend on, code revision included."""
    inputs = {
        "revision": dynamics.SIMULATION_REVISION,
        "master_seed": config.ensemble.master_seed,
        "samples_per_class": config.ensemble.samples_per_class,
        "classes": [repr(spec) for spec in config.ensemble.class_specs],
        "building": repr(config.building),
        "dt_int": repr(dt_int),
        "dt": repr(calibration.dt),
    }
    digest = hashlib.sha256(json.dumps(inputs, sort_keys=True).encode())
    digest.update(np.ascontiguousarray(calibration.samples, dtype=float).tobytes())
    return digest.hexdigest()


def _verdict_key(sim_key: str, d: MeasurementSet, noise: ResidualNoiseModel,
                 fdr: FdrConfig) -> str:
    """sha256 of everything the verdict ledger depends on: the simulations' key,
    the measurement, the noise sigmas and alpha."""
    inputs = {"simulations": sim_key, "sigma": [repr(s) for s in noise.std_devs],
              "alpha": repr(fdr.alpha)}
    digest = hashlib.sha256(json.dumps(inputs, sort_keys=True).encode())
    digest.update(d.d.tobytes())
    return digest.hexdigest()


def _keyed(key_path: Path, key: str, paths) -> bool:
    """Whether the cache of ``paths`` holds what ``key`` describes.

    True when ``key_path`` holds ``key`` and every path is a file; a cache is
    only rewritten inside ``_rewriting``, so its key is on disk only while
    all its files are the ones written for that key.
    """
    return (key_path.is_file() and key_path.read_text().strip() == key
            and all(p.is_file() for p in paths))


@contextlib.contextmanager
def _rewriting(key_path: Path, key: str):
    """Rewrite a cache in the ``with`` block, with no key on disk until it is done."""
    key_path.unlink(missing_ok=True)
    yield
    _atomic_write_text(key_path, key + "\n")


_LEDGER_HEADER = "class_id\tsample_index\ttheta...\tlog_likelihood\tlog_bound\tunfalsified"


def _ledger_text(thetas: dict, verdicts: dict) -> str:
    """The verdict ledger: one row per candidate, its θ, log L, log B and verdict."""
    text = _LEDGER_HEADER + "\n"
    for cid, v in verdicts.items():
        theta = thetas[cid]
        row = "\t".join([cid, "%d", *[_FLOAT_FMT] * (theta.shape[1] + 1),
                         _FLOAT_FMT % v.log_bound, "%d"])
        text += _rows_text(row, np.column_stack([np.arange(len(theta)), theta,
                                                 v.log_likelihood, v.unfalsified]))
    return text


def _read_ledger(path: Path, ensemble: EnsembleSpec):
    """The θ matrices and verdicts of a ledger that ``_ledger_text`` wrote.

    ``%.17g`` round-trips, so every value equals the one written bit for bit.
    None when the rows are not one per sample of each of ``ensemble``'s
    classes, in order, or a value does not parse.
    """
    n = ensemble.samples_per_class
    try:
        lines = path.read_text().split("\n")   # the header, the rows, and "" after the last
    except UnicodeDecodeError:
        return None
    if (lines[0] != _LEDGER_HEADER or lines[-1] != ""
            or len(lines) != 2 + n * len(ensemble.class_specs)):
        return None
    thetas, verdicts = {}, {}
    for k, spec in enumerate(ensemble.class_specs):
        prefix = spec.class_id + "\t"
        block = lines[1 + k * n:1 + (k + 1) * n]
        if not all(line.startswith(prefix) for line in block):
            return None
        try:   # sample_index, θ..., log L, log B, verdict
            table = np.loadtxt([line[len(prefix):] for line in block], delimiter="\t",
                               comments=None, ndmin=2)
        except ValueError:   # a field that is not a number, or rows of unequal width
            return None
        if (table.shape != (n, spec.n_parameters + 4)
                or not np.array_equal(table[:, 0], np.arange(n))):
            return None
        thetas[spec.class_id] = np.ascontiguousarray(table[:, 1:-3])
        verdicts[spec.class_id] = ClassVerdicts(spec.class_id, table[:, -3], float(table[0, -2]))
    return thetas, verdicts


def _remove_predictions(out: Path) -> None:
    """Delete what the predict stage writes into ``out``: weights, estimates and
    predictions."""
    for path in (*out.glob("weights_*.tsv"), out / "estimates.tsv",
                 *out.glob("prediction_*.tsv")):
        path.unlink(missing_ok=True)


def run_pipeline(config: RunConfig, stage: str = "all") -> RunManifest:
    """Execute simulate -> falsify -> predict and persist all artifacts.

    ``stage`` runs the pipeline up to the named stage.  ``falsify`` and
    ``predict`` reuse the calibration simulations in the output directory
    when ``sim_key.txt`` matches, and ``predict`` also reuses the verdict
    ledger when ``verdict_key.txt`` matches: it then takes θ and the
    verdicts from ``verdicts.tsv`` and draws, loads and scores nothing.
    ``all`` recomputes every stage.
    """
    if stage not in STAGES:
        raise ValueError(f"stage must be one of {STAGES}")
    out = Path(config.output_dir)
    config_hash = ""
    if config.config_path is not None and Path(config.config_path).is_file():
        config_hash = hashlib.sha256(Path(config.config_path).read_bytes()).hexdigest()
    manifest = RunManifest(config_hash=config_hash, master_seed=config.ensemble.master_seed)

    # --- inputs, all checked before anything is simulated or written --------
    calibration = ingest_timeseries(config.calibration_path)
    dt_int = config.dt_int if config.dt_int is not None else calibration.dt / 10.0
    predicts = stage in ("predict", "all")
    inputs = {p: ingest_timeseries(p) for p in config.prediction_paths} if predicts else {}
    manifest.dt_int = dt_int
    manifest.substeps_per_sample = _check_dt_int(config.dt_int, dt_int,
                                                 {config.calibration_path: calibration, **inputs})
    try:
        config.building.check_resolvable(dt_int)
    except ValueError as err:   # the message names dt_int; the config's key replaces it
        raise ConfigError(f"[building] is {err}".replace("dt_int =", "[run] dt_int =")) from None
    channel_names = config.building.channel_names
    if stage != "simulate":
        if config.measurement_path is None:
            raise ConfigError("no [measurement] file configured")
        d = ingest_measurement(config.measurement_path, channel_names=channel_names)
        _check_pair(d, f"[measurement] {config.measurement_path}",
                    calibration, "the calibration record")
        noise = config.noise_model(d)
        manifest.noise_sigma = list(noise.std_devs)
    truth_series = {}
    for (p_path, record), t_path in zip(inputs.items(), config.prediction_truth_paths):
        truth = ingest_measurement(t_path, channel_names=channel_names)
        _check_pair(truth, f"[excitation] prediction_truth {t_path}", record, f"its input {p_path}")
        truth_series[p_path.stem] = truth
    records = {p_path.stem: record for p_path, record in inputs.items()}
    if out.exists() and not out.is_dir():
        raise ConfigError(f"[run] output_dir {out} exists and is not a directory")

    class_specs = {c.class_id: c for c in config.ensemble.class_specs}
    class_order = [c.class_id for c in config.ensemble.class_specs]
    sim_paths = {cid: out / f"sim_{cid}.npy" for cid in class_order}
    key_path = out / "sim_key.txt"
    sim_key = _simulation_key(config, calibration, dt_int)
    reuse = (stage in ("falsify", "predict")
             and _keyed(key_path, sim_key, sim_paths.values()))
    ledger_path, verdict_key_path = out / "verdicts.tsv", out / "verdict_key.txt"
    ledger = None
    if stage != "simulate":
        verdict_key = _verdict_key(sim_key, d, noise, config.fdr)
        if reuse and stage == "predict" and _keyed(verdict_key_path, verdict_key, [ledger_path]):
            ledger = _read_ledger(ledger_path, config.ensemble)

    # --- simulate stage -----------------------------------------------------
    if ledger is None:
        thetas = generate_ensemble(config.ensemble)
    else:
        thetas, verdicts = ledger
    t0 = time.perf_counter()
    if not reuse:   # a candidate no isolator takes is refused before anything is written
        systems = {cid: _build_system(class_specs[cid], thetas[cid], config)
                   for cid in class_order}
    out.mkdir(parents=True, exist_ok=True)
    if reuse and ledger is None:
        h_by_class = {cid: np.load(p) for cid, p in sim_paths.items()}
    elif not reuse:
        # simulated first: a divergence leaves the last cache and its key as they are
        batches = manifest.batches["simulate"] = {}
        h_by_class = dynamics.simulate_classes(systems, {None: calibration}, dt_int, batches)[None]
        with _rewriting(key_path, sim_key):
            for cid in class_order:
                with _atomic(sim_paths[cid]) as fh:   # a handle: np.save must not append .npy
                    np.save(fh, h_by_class[cid])
    manifest.artifacts["simulations"] = {cid: str(p) for cid, p in sim_paths.items()}
    manifest.stage_seconds["simulate"] = time.perf_counter() - t0
    if stage == "simulate":
        return _write_manifest(out, manifest)

    # --- falsify stage ------------------------------------------------------
    t0 = time.perf_counter()
    if ledger is None:
        eps_by_class = {cid: residuals(h_by_class[cid], d) for cid in class_order}
        try:
            verdicts = falsify_classes(eps_by_class, noise, config.fdr, d.n_channels)
        except ValueError as err:
            raise ConfigError(f"[noise] {err}") from None
        del h_by_class, eps_by_class   # the verdicts hold all the later stages need
        with _rewriting(verdict_key_path, verdict_key):
            _remove_predictions(out)   # the predict stage wrote them from the last ledger
            _atomic_write_text(ledger_path, _ledger_text(thetas, verdicts))
    for cid in class_order:
        v = verdicts[cid]
        margin = v.log_likelihood - v.log_bound
        # statistics.median gives np.median's value without importing numpy.ma
        manifest.class_stats[cid] = {
            "log_bound": float(v.log_bound), "margin_min": float(margin.min()),
            "margin_median": statistics.median(margin.tolist()),
            "margin_max": float(margin.max()), "falsified_log_mass": falsified_log_mass(v)}
        n_s, n_u = v.unfalsified.size, int(v.unfalsified.sum())
        manifest.counts[cid] = {"n_s": n_s, "n_u": n_u, "n_f": n_s - n_u}
    manifest.artifacts["verdict_ledger"] = str(ledger_path)
    manifest.stage_seconds["falsify"] = time.perf_counter() - t0

    total_s = sum(c["n_s"] for c in manifest.counts.values())
    total_f = sum(c["n_f"] for c in manifest.counts.values())
    manifest.savings_ratio = total_f / total_s if total_s else 0.0
    if stage == "falsify":
        return _write_manifest(out, manifest)

    # --- predict stage ------------------------------------------------------
    t0 = time.perf_counter()
    _remove_predictions(out)   # a file of an input no longer configured would stay
    ensembles = {}
    estimates = {}
    for cid in class_order:
        if not verdicts[cid].unfalsified.any():
            continue
        we = post_falsification_weights(verdicts[cid])
        ensembles[cid] = we
        manifest.class_stats[cid]["effective_sample_size"] = we.effective_sample_size
        estimates[cid] = estimate_parameters(we, thetas[cid])
        lines = ["sample_index\tweight"]
        lines += [f"{i}\t{_FLOAT_FMT % w}" for i, w in zip(we.sample_indices, we.weights)]
        _atomic_write_text(out / f"weights_{cid}.tsv", "\n".join(lines) + "\n")
    manifest.artifacts["weights"] = {cid: str(out / f"weights_{cid}.tsv") for cid in ensembles}

    est_lines = ["class_id\tparameter\testimate"]
    for cid, est in estimates.items():
        for name, value in zip(class_specs[cid].parameter_names, est):
            est_lines.append(f"{cid}\t{name}\t{_FLOAT_FMT % value}")
    _atomic_write_text(out / "estimates.tsv", "\n".join(est_lines) + "\n")
    manifest.artifacts["estimates"] = str(out / "estimates.tsv")

    survivors = {cid: _build_system(class_specs[cid], thetas[cid][np.asarray(we.sample_indices)],
                                    config)
                 for cid, we in ensembles.items()}
    batches = manifest.batches["predict"] = {}
    outputs = dynamics.simulate_classes(survivors, records, dt_int, batches)
    for label, record in records.items():
        for cid, we in ensembles.items():
            manifest.prediction_simulations += we.n_models
            pred = predict_response(we, outputs[label][cid])
            nch = len(channel_names)
            cols = np.column_stack([pred.q_hat.reshape(-1, nch),
                                    pred.spread.reshape(-1, nch)])
            out_path = out / _prediction_name(label, cid)
            write_timeseries(out_path, record.dt, cols,
                             header="time\t" + "\t".join(channel_names)
                                    + "\t" + "\t".join(f"spread_{c}" for c in channel_names))
            manifest.artifacts.setdefault("predictions", {})[f"{label}/{cid}"] = str(out_path)
            if label in truth_series:
                manifest.prediction_errors[f"{label}/{cid}"] = relative_rms_error(
                    truth_series[label].d, pred.q_hat)
    manifest.prediction_inputs = len(config.prediction_paths)
    manifest.stage_seconds["predict"] = time.perf_counter() - t0
    return _write_manifest(out, manifest)


# ---------------------------------------------------------------------------
# reporting

def emit_report(manifest: RunManifest, output_dir) -> Path:
    """Write a human-readable summary of the falsification and prediction run."""
    out = Path(output_dir)
    lines = ["Falsification summary", "=" * 60]
    lines.append(f"{'Model class':<24}{'% unfalsified':>16}{'N_u':>8}{'N_s':>8}")
    for cid, c in manifest.counts.items():
        pct = 100.0 * c["n_u"] / c["n_s"] if c["n_s"] else 0.0
        lines.append(f"{cid:<24}{pct:>15.1f}%{c['n_u']:>8}{c['n_s']:>8}")
    lines.append("")
    lines.append(f"Simulation savings for prediction: {100.0 * manifest.savings_ratio:.1f}% "
                 f"(falsified / total candidates)")
    lines.append(f"Prediction-stage simulations: {manifest.prediction_simulations} "
                 f"over {manifest.prediction_inputs} input(s)")
    if manifest.master_seed is not None:
        lines.append(f"Candidates drawn with master seed {manifest.master_seed}")

    if manifest.class_stats:
        sigmas = ", ".join(f"{sigma:.6g}" for sigma in manifest.noise_sigma)
        lines += ["", f"Log-likelihood margins log L - log B (noise sigma {sigmas})", "-" * 60]
        lines.append(f"{'Model class':<24}{'log B':>12}{'min':>12}{'median':>12}{'max':>12}"
                     f"{'log m_F':>12}{'ESS':>10}")
        for cid, c in manifest.class_stats.items():
            ess, mass = c.get("effective_sample_size"), c.get("falsified_log_mass")
            lines.append(f"{cid:<24}{c['log_bound']:>12.6g}{c['margin_min']:>12.6g}"
                         f"{c['margin_median']:>12.6g}{c['margin_max']:>12.6g}"
                         + (f"{mass:>12.6g}" if mass is not None else f"{'-':>12}")
                         + (f"{ess:>10.2f}" if ess is not None else f"{'-':>10}"))
        lines.append("log m_F: log of the share of the class's likelihood mass on its "
                     "falsified models")

    if manifest.dt_int is not None:
        per_sample = ", ".join(f"{Path(path).name} {n}"
                               for path, n in manifest.substeps_per_sample.items())
        lines += ["", f"RK4 step dt_int = {manifest.dt_int:g} s; substeps per sample: "
                  f"{per_sample}"]
    if manifest.batches:
        lines += ["", "Simulated batches (model steps: models x record steps; a calibration "
                  "read from the cache is not listed)", "-" * 60]
        lines.append(f"{'Stage':<10}{'Batch variant':<40}{'Stepper':<17}{'Models':>8}"
                     f"{'Model steps':>14}")
        for name in STAGES:
            for variant, b in sorted(manifest.batches.get(name, {}).items()):
                lines.append(f"{name:<10}{variant:<40}{b['stepper']:<17}{b['models']:>8}"
                             f"{b['model_steps']:>14}")

    if "estimates" in manifest.artifacts:
        lines += ["", "Parameter estimates (weighted over unfalsified models)", "-" * 60]
        for line in (out / "estimates.tsv").read_text().splitlines()[1:]:
            cid, name, value = line.split("\t")
            lines.append(f"{cid:<24}{name:<12}{float(value):>16.6g}")

    if manifest.prediction_errors:
        lines += ["", "Prediction relative RMS errors vs supplied truth", "-" * 60]
        for key, err in manifest.prediction_errors.items():
            lines.append(f"{key:<40}{100.0 * err:>10.4f}%")

    report_path = out / "report.txt"
    _atomic_write_text(report_path, "\n".join(lines) + "\n")
    return report_path
