"""Run configuration, data ingestion, and pipeline orchestration.

The pipeline runs simulate -> falsify -> predict from a single structured
config file (INI sections, key = value), writing a verdict ledger, weight
files, prediction series, and a JSON manifest into the output directory.
Reruns with the same config and seed produce byte-identical artifacts.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dynamics
from .dynamics import ExcitationRecord, IsolatedSystem, ShearBuildingModel
from .falsification import (FdrConfig, MeasurementSet, ResidualNoiseModel,
                            falsify_classes, residuals)
from .prediction import (estimate_parameters, post_falsification_weights,
                         predict_response, relative_rms_error)
from .priors import EnsembleSpec, ModelClassSpec, PriorSpec, generate_ensemble, theta_matrix

__all__ = [
    "ConfigError",
    "RunConfig",
    "RunManifest",
    "BINDINGS",
    "register_binding",
    "resolve_binding",
    "parse_config",
    "ingest_timeseries",
    "ingest_measurement",
    "run_pipeline",
    "emit_report",
]

_FLOAT_FMT = "%.17g"   # round-trips double precision
STAGES = ("simulate", "falsify", "predict", "all")


class ConfigError(ValueError):
    """Configuration problem, with the offending key path in the message."""


# ---------------------------------------------------------------------------
# physics bindings

BINDINGS: dict = {}


def register_binding(name: str):
    def deco(factory):
        BINDINGS[name] = factory
        return factory
    return deco


def resolve_binding(name: str):
    try:
        return BINDINGS[name]
    except KeyError:
        raise ConfigError(
            f"unknown physics binding {name!r}; registered bindings: "
            f"{sorted(BINDINGS)}") from None


def _theta_column(theta, names, key, fixed):
    if key in names:
        return theta[:, names.index(key)]
    if key in fixed:
        return float(fixed[key])
    return None


def _isolator_factory(variant):
    def factory(theta, parameter_names, building, fixed_constants):
        names = list(parameter_names)
        get = lambda key: _theta_column(theta, names, key, fixed_constants)
        kwargs = dict(k_post=get("k_post"), c_b=get("c_b"), r_k=get("r_k"))
        for key, value in kwargs.items():
            if value is None:
                raise ConfigError(f"{variant} binding requires parameter {key!r}")
        if variant in dynamics.NONLINEAR_VARIANTS:
            kwargs["Q_y"] = get("Q_y")
            if kwargs["Q_y"] is None:
                raise ConfigError(f"{variant} binding requires parameter 'Q_y'")
            kwargs["n_pow"] = get("n_pow")
        else:
            kwargs["r_d"] = get("r_d")
            if kwargs["r_d"] is None:
                raise ConfigError(f"{variant} binding requires parameter 'r_d'")
        return IsolatedSystem(building, variant, **kwargs)
    return factory


for _variant in dynamics.NONLINEAR_VARIANTS + dynamics.LINEAR_VARIANTS:
    register_binding(_variant)(_isolator_factory(_variant))


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
    weight_prior: str
    output_dir: Path
    config_path: Path | None = None

    def noise_model(self, d: MeasurementSet) -> ResidualNoiseModel:
        if self.sigma_absolute is not None:
            return ResidualNoiseModel.per_channel(self.sigma_absolute)
        stds = d.by_channel().std(axis=0)
        return ResidualNoiseModel.per_channel(tuple(self.sigma_fraction * s for s in stds))


@dataclass
class RunManifest:
    config_hash: str
    counts: dict                     # class_id -> {"n_s", "n_u", "n_f"}
    savings_ratio: float
    prediction_simulations: int
    prediction_inputs: int
    stage_seconds: dict
    artifacts: dict
    prediction_errors: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "config_hash": self.config_hash,
            "counts": self.counts,
            "savings_ratio": self.savings_ratio,
            "prediction_simulations": self.prediction_simulations,
            "prediction_inputs": self.prediction_inputs,
            "stage_seconds": self.stage_seconds,
            "artifacts": self.artifacts,
            "prediction_errors": self.prediction_errors,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        data = json.loads(text)
        return cls(**data)


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
    if flag not in (None, "positive", "positive_only"):
        raise ConfigError(f"[class:{class_name}] {key}: unknown prior flag {parts[3]!r}; "
                          "expected 'positive' or 'positive_only'")
    try:
        return PriorSpec(kind=kind, mean=mean, std_dev=std, positive_only=flag is not None)
    except ValueError as err:
        raise ConfigError(f"[class:{class_name}] {key}: {err}")


def _floats(section: str, key: str, text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected numbers, got {text!r}")


def parse_config(path) -> RunConfig:
    """Parse and fully validate a run configuration file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cp.optionxform = str  # keep parameter-name case (Q_y)
    cp.read(path)

    def get(section, key, default=None, required=False):
        if cp.has_option(section, key):
            return cp.get(section, key)
        if required:
            raise ConfigError(f"missing required key [{section}] {key}")
        return default

    # [run]
    try:
        master_seed = int(get("run", "master_seed", required=True))
        samples_per_class = int(get("run", "samples_per_class", required=True))
    except ValueError as err:
        raise ConfigError(f"[run]: {err}")
    output_dir = Path(get("run", "output_dir", required=True))
    weight_prior = get("run", "weight_prior", "cancel")
    if weight_prior not in ("cancel", "include"):
        raise ConfigError(f"[run] weight_prior must be 'cancel' or 'include', got {weight_prior!r}")
    phi = float(get("run", "phi", "0.95"))
    alpha_text = get("run", "alpha")
    alpha = float(alpha_text) if alpha_text is not None else 1.0 - phi
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"[run] alpha must lie in (0, 1), got {alpha}")
    fdr = FdrConfig(alpha=alpha)
    dt_int_text = get("run", "dt_int")
    dt_int = float(dt_int_text) if dt_int_text is not None else None
    if dt_int is not None and dt_int <= 0.0:
        raise ConfigError(f"[run] dt_int must be > 0, got {dt_int}")

    # [building]
    if not cp.has_section("building"):
        raise ConfigError("missing required section [building]")
    masses = _floats("building", "story_masses", get("building", "story_masses", required=True))
    stiffs = _floats("building", "story_stiffnesses",
                     get("building", "story_stiffnesses", required=True))
    base_mass = float(get("building", "base_mass", required=True))
    damping_ratio = float(get("building", "damping_ratio", "0.03"))
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
    sigma_fraction = None
    sigma_absolute = None
    if cp.has_option("noise", "sigma_fraction"):
        sigma_fraction = float(get("noise", "sigma_fraction"))
        if sigma_fraction <= 0.0:
            raise ConfigError("[noise] sigma_fraction must be > 0")
    if cp.has_option("noise", "sigma"):
        sigma_absolute = _floats("noise", "sigma", get("noise", "sigma"))
        n_channels = len(IsolatedSystem.channel_names)
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
        binding = get(section, "binding", required=True)
        resolve_binding(binding)   # unresolved binding is a configuration error
        names, priors = [], []
        fixed = {}
        for key, value in cp.items(section):
            if key == "binding":
                continue
            if key.startswith("fixed_"):
                fixed[key[len("fixed_"):]] = float(value)
                continue
            names.append(key)
            priors.append(_parse_prior(class_id, key, value))
        if not names:
            raise ConfigError(f"[{section}] declares no parameters")
        class_specs.append(ModelClassSpec(
            class_id=class_id, parameter_names=tuple(names), priors=tuple(priors),
            physics_binding=binding, fixed_constants=fixed))
    if not class_specs:
        raise ConfigError("no [class:...] sections defined")

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
        fdr=fdr, dt_int=dt_int, weight_prior=weight_prior,
        output_dir=output_dir if output_dir.is_absolute() else base / output_dir,
        config_path=path)


# ---------------------------------------------------------------------------
# time-series ingestion

def _read_numeric_table(path) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            try:
                rows.append([float(x) for x in parts])
            except ValueError:
                if lineno == 1:
                    continue   # optional header line
                raise ValueError(f"{path}: non-numeric data at line {lineno}")
    if not rows:
        raise ValueError(f"{path}: no numeric rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: inconsistent column counts {sorted(widths)}")
    table = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(table)):
        bad = int(np.nonzero(~np.all(np.isfinite(table), axis=1))[0][0]) + 1
        raise ValueError(f"{path}: non-finite entry at data row {bad}")
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


def ingest_timeseries(path, expected_channels: int = 1) -> ExcitationRecord:
    """Read a delimited (time, value...) text file into an ExcitationRecord.

    The first column is time [s] on a strictly increasing uniform grid
    (tolerance 1e-6 dt); one value column per channel follows.  An optional
    non-numeric header line is skipped.
    """
    table = _read_numeric_table(path)
    if table.shape[1] != expected_channels + 1:
        raise ValueError(
            f"{path}: expected {expected_channels + 1} columns "
            f"(time + {expected_channels} channel(s)), found {table.shape[1]}")
    dt = _check_uniform_grid(path, table[:, 0])
    values = table[:, 1] if expected_channels == 1 else table[:, 1:]
    return ExcitationRecord(dt=dt, samples=values, label=Path(path).name,
                            channel_count=expected_channels)


def ingest_measurement(path, expected_channels: int = 1,
                       channel_names=None) -> MeasurementSet:
    """Read a measured response file into a stacked MeasurementSet."""
    record = ingest_timeseries(path, expected_channels)
    stacked = record.samples.reshape(-1)
    if channel_names is None:
        channel_names = tuple(f"channel_{i}" for i in range(expected_channels))
    return MeasurementSet(d=stacked, dt=record.dt, channel_names=channel_names)


def write_timeseries(path, dt: float, columns: np.ndarray, header: str | None = None):
    """Write (time, columns...) delimited text with full double precision."""
    columns = np.atleast_2d(np.asarray(columns, dtype=float))
    if columns.shape[0] < columns.shape[1]:
        columns = columns.T
    t = np.arange(columns.shape[0]) * dt
    table = np.column_stack([t, columns])
    _atomic_savetxt(path, table, header=header)


def _atomic_savetxt(path, table, header=None):
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    np.savetxt(tmp, table, fmt=_FLOAT_FMT, delimiter="\t",
               header=header or "", comments="# " if header else "# ")
    os.replace(tmp, path)


def _atomic_write_text(path, text):
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# pipeline

def _build_system(class_spec: ModelClassSpec, theta: np.ndarray,
                  building: ShearBuildingModel):
    factory = resolve_binding(class_spec.physics_binding)
    return factory(theta, class_spec.parameter_names, building, class_spec.fixed_constants)


def _simulate_classes(systems: dict, record: ExcitationRecord, dt_int: float) -> dict:
    """Outputs of each class's batch on ``record``, keyed like ``systems``.

    The hysteretic classes run as one stacked batch, so each ``rhs`` call
    covers all of their models; each class gets its rows back.  Linear
    classes run one batch each.  A divergence names the class of the first
    diverging model and that class's own model indices.
    """
    hysteretic = [cid for cid, system in systems.items()
                  if isinstance(system, IsolatedSystem) and system.nonlinear]
    outputs = {}
    for cid, system in systems.items():
        if cid in outputs:
            continue
        group = hysteretic if cid in hysteretic else [cid]
        batch = IsolatedSystem.stacked(systems[c] for c in group) if len(group) > 1 else system
        bounds = np.cumsum([0] + [systems[c].n_models for c in group])
        try:
            h = dynamics.integrate_rk4(batch, record, dt_int=dt_int)
        except dynamics.SimulationDivergedError as err:
            at = int(np.searchsorted(bounds, err.indices[0], side="right")) - 1
            local = [i - bounds[at] for i in err.indices if bounds[at] <= i < bounds[at + 1]]
            raise dynamics.SimulationDivergedError(err.time, local, group[at]) from None
        for c, lo, hi in zip(group, bounds[:-1], bounds[1:]):
            outputs[c] = h[lo:hi]
    return outputs


def _simulation_key(config: RunConfig, calibration: ExcitationRecord, dt_int: float) -> str:
    """sha256 of everything the calibration simulations depend on."""
    inputs = {
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


def run_pipeline(config: RunConfig, stage: str = "all") -> RunManifest:
    """Execute simulate -> falsify -> predict and persist all artifacts.

    ``stage`` runs the pipeline up to the named stage, reusing any artifacts
    already present in the output directory for earlier stages.
    """
    if stage not in STAGES:
        raise ValueError(f"stage must be one of {STAGES}")
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    timings = {}
    artifacts = {}

    config_hash = ""
    if config.config_path is not None and Path(config.config_path).is_file():
        config_hash = hashlib.sha256(Path(config.config_path).read_bytes()).hexdigest()

    calibration = ingest_timeseries(config.calibration_path)
    dt_int = config.dt_int if config.dt_int is not None else calibration.dt / 10.0

    ensemble = generate_ensemble(config.ensemble)
    thetas = {cid: theta_matrix(samples) for cid, samples in ensemble.items()}
    class_specs = {c.class_id: c for c in config.ensemble.class_specs}
    class_order = [c.class_id for c in config.ensemble.class_specs]

    # --- simulate stage -----------------------------------------------------
    t0 = time.perf_counter()
    sim_paths = {cid: out / f"sim_{cid}.npy" for cid in class_order}
    key_path = out / "sim_key.txt"
    sim_key = _simulation_key(config, calibration, dt_int)
    reuse = (stage in ("falsify", "predict") and key_path.is_file()
             and key_path.read_text().strip() == sim_key
             and all(p.is_file() for p in sim_paths.values()))
    if reuse:
        h_by_class = {cid: np.load(p) for cid, p in sim_paths.items()}
    else:
        key_path.unlink(missing_ok=True)   # no key while the cache is being rewritten
        systems = {cid: _build_system(class_specs[cid], thetas[cid], config.building)
                   for cid in class_order}
        h_by_class = _simulate_classes(systems, calibration, dt_int)
        for cid in class_order:
            tmp = sim_paths[cid].with_name(sim_paths[cid].name + ".tmp")
            with open(tmp, "wb") as fh:   # file handle: np.save must not append .npy
                np.save(fh, h_by_class[cid])
            os.replace(tmp, sim_paths[cid])
        _atomic_write_text(key_path, sim_key + "\n")
    artifacts["simulations"] = {cid: str(p) for cid, p in sim_paths.items()}
    timings["simulate"] = time.perf_counter() - t0
    if stage == "simulate":
        manifest = RunManifest(config_hash=config_hash, counts={}, savings_ratio=0.0,
                               prediction_simulations=0, prediction_inputs=0,
                               stage_seconds=timings, artifacts=artifacts)
        _atomic_write_text(out / "manifest.json", manifest.to_json())
        return manifest

    # --- measurement and noise model ---------------------------------------
    channel_names = tuple(IsolatedSystem.channel_names)
    if config.measurement_path is not None:
        d = ingest_measurement(config.measurement_path, len(channel_names),
                               channel_names=channel_names)
    else:
        raise ConfigError("no [measurement] file configured")
    if abs(d.dt - calibration.dt) > 1e-6 * calibration.dt:
        raise ConfigError(f"[measurement] {config.measurement_path}: sampled at dt = {d.dt:g} s, "
                          f"the calibration record at dt = {calibration.dt:g} s")
    n_sim = next(iter(h_by_class.values())).shape[1]
    if d.n_obs != n_sim:
        raise ConfigError(f"[measurement] {config.measurement_path}: {d.n_obs} samples, "
                          f"but the calibration record simulates {n_sim}")
    noise = config.noise_model(d)

    # --- falsify stage ------------------------------------------------------
    t0 = time.perf_counter()
    eps_by_class = {cid: residuals(h_by_class[cid], d) for cid in class_order}
    verdicts = falsify_classes(eps_by_class, noise, config.fdr)
    ledger_lines = ["class_id\tsample_index\ttheta...\tlog_likelihood\tlog_bound\tunfalsified"]
    counts = {}
    for cid in class_order:
        v = verdicts[cid]
        bound_txt = _FLOAT_FMT % v.log_bound
        unfalsified = v.unfalsified
        for i, (theta, log_l, keep) in enumerate(zip(thetas[cid], v.log_likelihood, unfalsified)):
            theta_txt = "\t".join(_FLOAT_FMT % x for x in theta)
            ledger_lines.append(
                f"{cid}\t{i}\t{theta_txt}\t{_FLOAT_FMT % log_l}\t{bound_txt}\t{int(keep)}")
        n_s, n_u = unfalsified.size, int(unfalsified.sum())
        counts[cid] = {"n_s": n_s, "n_u": n_u, "n_f": n_s - n_u}
    _atomic_write_text(out / "verdicts.tsv", "\n".join(ledger_lines) + "\n")
    artifacts["verdict_ledger"] = str(out / "verdicts.tsv")
    timings["falsify"] = time.perf_counter() - t0

    total_s = sum(c["n_s"] for c in counts.values())
    total_f = sum(c["n_f"] for c in counts.values())
    savings = total_f / total_s if total_s else 0.0

    if stage == "falsify":
        manifest = RunManifest(config_hash=config_hash, counts=counts, savings_ratio=savings,
                               prediction_simulations=0, prediction_inputs=0,
                               stage_seconds=timings, artifacts=artifacts)
        _atomic_write_text(out / "manifest.json", manifest.to_json())
        return manifest

    # --- predict stage ------------------------------------------------------
    t0 = time.perf_counter()
    ensembles = {}
    estimates = {}
    for cid in class_order:
        if not verdicts[cid].unfalsified.any():
            continue
        log_priors = None
        if config.weight_prior == "include":
            spec = class_specs[cid]
            log_priors = [spec.log_prior(t) for t in thetas[cid]]
        we = post_falsification_weights(verdicts[cid], log_priors=log_priors,
                                        weight_prior=config.weight_prior)
        ensembles[cid] = we
        estimates[cid] = estimate_parameters(we, thetas[cid])
        lines = ["sample_index\tweight"]
        lines += [f"{i}\t{_FLOAT_FMT % w}" for i, w in zip(we.sample_indices, we.weights)]
        _atomic_write_text(out / f"weights_{cid}.tsv", "\n".join(lines) + "\n")
    artifacts["weights"] = {cid: str(out / f"weights_{cid}.tsv") for cid in ensembles}

    est_lines = ["class_id\tparameter\testimate"]
    for cid, est in estimates.items():
        for name, value in zip(class_specs[cid].parameter_names, est):
            est_lines.append(f"{cid}\t{name}\t{_FLOAT_FMT % value}")
    _atomic_write_text(out / "estimates.tsv", "\n".join(est_lines) + "\n")
    artifacts["estimates"] = str(out / "estimates.tsv")

    prediction_sims = 0
    prediction_errors = {}
    records = {p_path: ingest_timeseries(p_path) for p_path in config.prediction_paths}
    truth_series = {}
    for p_path, t_path in zip(config.prediction_paths, config.prediction_truth_paths):
        truth = ingest_measurement(t_path, len(channel_names), channel_names=channel_names)
        record = records[p_path]
        if abs(truth.dt - record.dt) > 1e-6 * record.dt:
            raise ConfigError(f"[excitation] prediction_truth {t_path}: sampled at "
                              f"dt = {truth.dt:g} s, its input {p_path} at dt = {record.dt:g} s")
        if truth.n_obs != record.n_steps * len(channel_names):
            raise ConfigError(f"[excitation] prediction_truth {t_path}: {truth.n_obs} samples, "
                              f"but its input {p_path} predicts {record.n_steps}")
        truth_series[p_path] = truth
    survivors = {cid: _build_system(class_specs[cid], thetas[cid][np.asarray(we.sample_indices)],
                                    config.building)
                 for cid, we in ensembles.items()}
    for p_path, record in records.items():
        label = Path(p_path).stem
        outputs = _simulate_classes(survivors, record, dt_int)
        for cid, we in ensembles.items():
            prediction_sims += we.n_models
            pred = predict_response(we, outputs[cid], record.dt,
                                    channel_names=channel_names, input_label=label)
            nch = len(channel_names)
            cols = np.column_stack([pred.q_hat.reshape(-1, nch),
                                    pred.spread.reshape(-1, nch)])
            out_path = out / f"prediction_{label}_{cid}.tsv"
            write_timeseries(out_path, record.dt, cols,
                             header="time\t" + "\t".join(channel_names)
                                    + "\t" + "\t".join(f"spread_{c}" for c in channel_names))
            artifacts.setdefault("predictions", {})[f"{label}/{cid}"] = str(out_path)
            if p_path in truth_series:
                prediction_errors[f"{label}/{cid}"] = relative_rms_error(
                    truth_series[p_path].d, pred.q_hat)
    timings["predict"] = time.perf_counter() - t0

    manifest = RunManifest(
        config_hash=config_hash, counts=counts, savings_ratio=savings,
        prediction_simulations=prediction_sims,
        prediction_inputs=len(config.prediction_paths),
        stage_seconds=timings, artifacts=artifacts,
        prediction_errors=prediction_errors)
    _atomic_write_text(out / "manifest.json", manifest.to_json())
    return manifest


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

    est_path = out / "estimates.tsv"
    if est_path.is_file():
        lines += ["", "Parameter estimates (weighted over unfalsified models)", "-" * 60]
        for line in est_path.read_text().splitlines()[1:]:
            cid, name, value = line.split("\t")
            lines.append(f"{cid:<24}{name:<12}{float(value):>16.6g}")

    if manifest.prediction_errors:
        lines += ["", "Prediction relative RMS errors vs supplied truth", "-" * 60]
        for key, err in manifest.prediction_errors.items():
            lines.append(f"{key:<40}{100.0 * err:>10.4f}%")

    report_path = out / "report.txt"
    _atomic_write_text(report_path, "\n".join(lines) + "\n")
    return report_path
