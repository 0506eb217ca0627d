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
import statistics
import time
from dataclasses import asdict, dataclass, field
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


# every key a section other than [class:<id>] may hold
_SECTION_KEYS = {
    "run": ("master_seed", "samples_per_class", "output_dir", "weight_prior", "phi", "alpha",
            "dt_int"),
    "building": ("story_masses", "story_stiffnesses", "base_mass", "damping_ratio",
                 "damping_modes"),
    "noise": ("sigma_fraction", "sigma"),
    "measurement": ("file",),
    "excitation": ("calibration", "prediction", "prediction_truth"),
}


# ---------------------------------------------------------------------------
# physics bindings

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


BINDINGS = {variant: _isolator_factory(variant)
            for variant in dynamics.NONLINEAR_VARIANTS + dynamics.LINEAR_VARIANTS}


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
    noise_sigma: list = field(default_factory=list)   # residual sigma of each channel
    # class_id -> {"log_bound", "margin_min", "margin_median", "margin_max"} of
    # log L - log B, plus "effective_sample_size" 1 / sum w^2 once weighted
    class_stats: dict = field(default_factory=dict)
    # stage ("simulate", "predict") -> {class_id: models x record steps x RK4
    # substeps simulated by this run}; a reused calibration cache counts 0
    model_substeps: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

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


def _number(section: str, key: str, text: str, kind=float):
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"[{section}] {key}: expected {what}, got {text!r}") from None


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
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
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
    samples_per_class = number("run", "samples_per_class", required=True, kind=int)
    output_dir = Path(get("run", "output_dir", required=True))
    weight_prior = get("run", "weight_prior", "cancel")
    if weight_prior not in ("cancel", "include"):
        raise ConfigError(f"[run] weight_prior must be 'cancel' or 'include', got {weight_prior!r}")
    phi = number("run", "phi", "0.95")
    alpha = number("run", "alpha")
    if alpha is None:
        alpha = 1.0 - phi
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"[run] alpha must lie in (0, 1), got {alpha}")
    fdr = FdrConfig(alpha=alpha)
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
    sigma_absolute = None
    sigma_fraction = number("noise", "sigma_fraction")
    if sigma_fraction is not None and sigma_fraction <= 0.0:
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
        binding = get(section, "binding", required=True)
        resolve_binding(binding)   # unresolved binding is a configuration error
        names, priors = [], []
        fixed = {}
        for key, value in cp.items(section):
            if key == "binding":
                continue
            if key.startswith("fixed_"):
                fixed[key[len("fixed_"):]] = _number(section, key, value)
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


def _read_series(path, n_channels: int | None = None) -> tuple[float, np.ndarray]:
    """The sample interval and the (n, channels) values of a (time, value...) file.

    The first column is time [s] on a strictly increasing uniform grid
    (tolerance 1e-6 dt); one value column per channel follows, as many as
    ``n_channels`` when it is given.  An optional non-numeric header line is
    skipped.
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
    try:
        return factory(theta, class_spec.parameter_names, building, class_spec.fixed_constants)
    except ValueError as err:
        raise ConfigError(f"[class:{class_spec.class_id}] {err}") from None


def _simulate_classes(systems: dict, records: dict, dt_int: float) -> dict:
    """Outputs of each class's batch on each record: ``{label: {class_id: h}}``.

    ``records`` maps an input label to its record.  The hysteretic classes
    run as one stacked batch for all records of equal dt and length, with one
    input column per model, so each ``rhs`` call covers every model on every
    such record; each class and record gets its rows back.  Linear classes
    run one batch per record.  A divergence names the class of the first
    diverging model, that class's own model indices and, unless its label
    is None, the record.
    """
    hysteretic = [cid for cid, system in systems.items()
                  if isinstance(system, IsolatedSystem) and system.nonlinear]
    linear = [cid for cid in systems if cid not in hysteretic]
    outputs = {label: {} for label in records}
    groups = {}
    for label, record in records.items():
        if hysteretic:
            groups.setdefault((record.dt, record.n_steps), []).append(label)
        for cid in linear:
            outputs[label][cid] = _integrate(systems[cid], record, dt_int,
                                             [(label, cid, systems[cid])])
    for labels in groups.values():
        blocks = [(label, cid, systems[cid]) for label in labels for cid in hysteretic]
        record = records[labels[0]]
        if len(labels) > 1:   # a lone record drives every model as it is, with no columns
            per_input = sum(systems[cid].n_models for cid in hysteretic)
            columns = np.column_stack([records[label].samples for label in labels])
            record = ExcitationRecord(record.dt, np.repeat(columns, per_input, axis=1),
                                      per_model=True)
        batch = IsolatedSystem.stacked(system for _, _, system in blocks)
        h = _integrate(batch, record, dt_int, blocks)
        lo = 0
        for label, cid, system in blocks:
            outputs[label][cid] = h[lo:lo + system.n_models]
            lo += system.n_models
    return outputs


def _integrate(batch, record: ExcitationRecord, dt_int: float, blocks) -> np.ndarray:
    """``integrate_rk4`` on a batch whose rows are the (label, class_id, system) ``blocks``."""
    try:
        return dynamics.integrate_rk4(batch, record, dt_int=dt_int)
    except dynamics.SimulationDivergedError as err:
        bounds = np.cumsum([0] + [system.n_models for _, _, system in blocks])
        at = int(np.searchsorted(bounds, err.indices[0], side="right")) - 1
        local = [i - bounds[at] for i in err.indices if bounds[at] <= i < bounds[at + 1]]
        label, cid, _ = blocks[at]
        raise dynamics.SimulationDivergedError(err.time, local, cid, label) from None


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
        h_by_class = _simulate_classes(systems, {None: calibration}, dt_int)[None]
        for cid in class_order:
            tmp = sim_paths[cid].with_name(sim_paths[cid].name + ".tmp")
            with open(tmp, "wb") as fh:   # file handle: np.save must not append .npy
                np.save(fh, h_by_class[cid])
            os.replace(tmp, sim_paths[cid])
        _atomic_write_text(key_path, sim_key + "\n")
    artifacts["simulations"] = {cid: str(p) for cid, p in sim_paths.items()}
    timings["simulate"] = time.perf_counter() - t0
    substeps = calibration.n_steps * dynamics.substeps_per_sample(calibration.dt, dt_int)
    model_substeps = {"simulate": {cid: 0 if reuse else len(thetas[cid]) * substeps
                                   for cid in class_order}}
    if stage == "simulate":
        manifest = RunManifest(config_hash=config_hash, counts={}, savings_ratio=0.0,
                               prediction_simulations=0, prediction_inputs=0,
                               stage_seconds=timings, artifacts=artifacts,
                               model_substeps=model_substeps)
        _atomic_write_text(out / "manifest.json", manifest.to_json())
        return manifest

    # --- measurement and noise model ---------------------------------------
    channel_names = tuple(IsolatedSystem.channel_names)
    if config.measurement_path is not None:
        d = ingest_measurement(config.measurement_path, channel_names=channel_names)
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
    noise_sigma = list(noise.std_devs)

    # --- falsify stage ------------------------------------------------------
    t0 = time.perf_counter()
    eps_by_class = {cid: residuals(h_by_class[cid], d) for cid in class_order}
    verdicts = falsify_classes(eps_by_class, noise, config.fdr, d.n_channels)
    del h_by_class, eps_by_class   # the verdicts hold all the later stages need
    ledger_lines = ["class_id\tsample_index\ttheta...\tlog_likelihood\tlog_bound\tunfalsified"]
    counts = {}
    class_stats = {}
    for cid in class_order:
        v = verdicts[cid]
        margin = v.log_likelihood - v.log_bound
        # statistics.median gives np.median's value without importing numpy.ma
        class_stats[cid] = {"log_bound": float(v.log_bound), "margin_min": float(margin.min()),
                            "margin_median": statistics.median(margin.tolist()),
                            "margin_max": float(margin.max())}
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
                               stage_seconds=timings, artifacts=artifacts,
                               noise_sigma=noise_sigma, class_stats=class_stats,
                               model_substeps=model_substeps)
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
        class_stats[cid]["effective_sample_size"] = we.effective_sample_size
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
    records = {p_path.stem: ingest_timeseries(p_path) for p_path in config.prediction_paths}
    truth_series = {}
    for p_path, t_path in zip(config.prediction_paths, config.prediction_truth_paths):
        truth = ingest_measurement(t_path, channel_names=channel_names)
        record = records[p_path.stem]
        if abs(truth.dt - record.dt) > 1e-6 * record.dt:
            raise ConfigError(f"[excitation] prediction_truth {t_path}: sampled at "
                              f"dt = {truth.dt:g} s, its input {p_path} at dt = {record.dt:g} s")
        if truth.n_obs != record.n_steps * len(channel_names):
            raise ConfigError(f"[excitation] prediction_truth {t_path}: {truth.n_obs} samples, "
                              f"but its input {p_path} predicts {record.n_steps}")
        truth_series[p_path.stem] = truth
    survivors = {cid: _build_system(class_specs[cid], thetas[cid][np.asarray(we.sample_indices)],
                                    config.building)
                 for cid, we in ensembles.items()}
    outputs = _simulate_classes(survivors, records, dt_int)
    substeps = sum(record.n_steps * dynamics.substeps_per_sample(record.dt, dt_int)
                   for record in records.values())
    model_substeps["predict"] = {cid: ensembles[cid].n_models * substeps if cid in ensembles
                                 else 0 for cid in class_order}
    for label, record in records.items():
        for cid, we in ensembles.items():
            prediction_sims += we.n_models
            pred = predict_response(we, outputs[label][cid], record.dt,
                                    channel_names=channel_names, input_label=label)
            nch = len(channel_names)
            cols = np.column_stack([pred.q_hat.reshape(-1, nch),
                                    pred.spread.reshape(-1, nch)])
            out_path = out / f"prediction_{label}_{cid}.tsv"
            write_timeseries(out_path, record.dt, cols,
                             header="time\t" + "\t".join(channel_names)
                                    + "\t" + "\t".join(f"spread_{c}" for c in channel_names))
            artifacts.setdefault("predictions", {})[f"{label}/{cid}"] = str(out_path)
            if label in truth_series:
                prediction_errors[f"{label}/{cid}"] = relative_rms_error(
                    truth_series[label].d, pred.q_hat)
    timings["predict"] = time.perf_counter() - t0

    manifest = RunManifest(
        config_hash=config_hash, counts=counts, savings_ratio=savings,
        prediction_simulations=prediction_sims,
        prediction_inputs=len(config.prediction_paths),
        stage_seconds=timings, artifacts=artifacts,
        prediction_errors=prediction_errors, noise_sigma=noise_sigma, class_stats=class_stats,
        model_substeps=model_substeps)
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

    if manifest.class_stats:
        sigmas = ", ".join(f"{sigma:.6g}" for sigma in manifest.noise_sigma)
        lines += ["", f"Log-likelihood margins log L - log B (noise sigma {sigmas})", "-" * 60]
        lines.append(f"{'Model class':<24}{'log B':>12}{'min':>12}{'median':>12}{'max':>12}"
                     f"{'ESS':>10}")
        for cid, c in manifest.class_stats.items():
            ess = c.get("effective_sample_size")
            lines.append(f"{cid:<24}{c['log_bound']:>12.6g}{c['margin_min']:>12.6g}"
                         f"{c['margin_median']:>12.6g}{c['margin_max']:>12.6g}"
                         + (f"{ess:>10.2f}" if ess is not None else f"{'-':>10}"))

    if manifest.model_substeps:
        stages = [name for name in STAGES if name in manifest.model_substeps]
        lines += ["", "Simulated model-substeps (models x record steps x RK4 substeps; "
                  "0 where cached simulations were reused)", "-" * 60]
        lines.append(f"{'Model class':<24}" + "".join(f"{name:>14}" for name in stages))
        for cid in manifest.model_substeps[stages[0]]:
            lines.append(f"{cid:<24}" + "".join(f"{manifest.model_substeps[name][cid]:>14}"
                                                 for name in stages))

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
