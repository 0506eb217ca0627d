"""Prior distributions and deterministic candidate-model ensembles.

A model class is a family of governing equations with a fixed set of
uncertain parameters; a candidate model is one draw of the parameter
vector from the class priors.  Ensembles are generated with per-sample
seeds derived from (master_seed, class_id, sample_index), so the same
spec always yields bit-identical samples no matter how the generation
is parallelized or ordered.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
import numpy.random   # numpy loads it lazily; every run draws from it

__all__ = [
    "PriorSpec",
    "ModelClassSpec",
    "EnsembleSpec",
    "SamplingError",
    "sample_prior",
    "sample_rng",
    "draw_sample",
    "generate_ensemble",
]

PRIOR_KINDS = ("normal", "lognormal", "uniform")

_SQRT3 = np.sqrt(3.0)

# cap on redraws for positivity-constrained normal priors
_MAX_REDRAWS = 1000


class SamplingError(RuntimeError):
    """Raised when a prior draw cannot be produced (overflow, exhausted redraws)."""


@dataclass(frozen=True)
class PriorSpec:
    """One marginal prior, parameterized by the variate's mean and standard deviation.

    ``lognormal`` is moment-matched: the requested mean/std are those of the
    positive variate itself, not of its logarithm.  The log-space parameters
    are ``sigma_log**2 = ln(1 + (std/mean)**2)`` and
    ``mu_log = ln(mean) - sigma_log**2 / 2``.

    ``uniform`` with mean m and std s spans ``[m - s*sqrt(3), m + s*sqrt(3)]``.

    ``positive_only`` applies to ``normal`` priors whose parameter must stay
    positive (e.g. a yield force): non-positive draws are rejected and redrawn.
    """

    kind: str
    mean: float
    std_dev: float
    positive_only: bool = False

    def __post_init__(self):
        if self.kind not in PRIOR_KINDS:
            raise ValueError(f"unknown prior kind {self.kind!r}; expected one of {PRIOR_KINDS}")
        if not np.isfinite(self.mean):
            raise ValueError("prior mean must be finite")
        if not (np.isfinite(self.std_dev) and self.std_dev > 0.0):
            raise ValueError(f"prior std_dev must be > 0, got {self.std_dev}")
        if self.kind == "lognormal" and self.mean <= 0.0:
            raise ValueError("lognormal prior requires mean > 0")
        if self.positive_only and self.kind != "normal":
            raise ValueError("positive_only only applies to normal priors")


def sample_prior(spec: PriorSpec, rng: np.random.Generator, name: str = "parameter") -> float:
    """Draw one value from ``spec`` using ``rng``.

    Each call consumes a deterministic number of generator outputs, except
    for rejection-redraws of positivity-constrained normal priors.
    """
    return _drawer(spec, name)(rng)


def _drawer(spec: PriorSpec, name: str):
    """``sample_prior`` of ``spec`` as a function of the generator, with the
    prior's constants computed once."""
    if spec.kind == "uniform":
        half = spec.std_dev * _SQRT3
        low, high = spec.mean - half, spec.mean + half

        def draw(rng):
            return rng.uniform(low, high)
    elif spec.kind == "lognormal":
        sig2 = np.log1p((spec.std_dev / spec.mean) ** 2)
        mu, sigma = np.log(spec.mean) - 0.5 * sig2, np.sqrt(sig2)

        def draw(rng):
            return float(np.exp(rng.normal(mu, sigma)))
    else:
        def draw(rng):
            value = float(rng.normal(spec.mean, spec.std_dev))
            n = 0
            while spec.positive_only and value <= 0.0:
                n += 1
                if n > _MAX_REDRAWS:
                    raise SamplingError(
                        f"could not draw a positive value for {name!r} "
                        f"(normal mean={spec.mean}, std={spec.std_dev})")
                value = float(rng.normal(spec.mean, spec.std_dev))
            return value

    def checked(rng):
        value = draw(rng)
        if not math.isfinite(value):
            raise SamplingError(f"non-finite draw for {name!r} from {spec.kind} prior")
        return value

    return checked


@dataclass(frozen=True)
class ModelClassSpec:
    """A named model class: ordered parameters, their priors, and the physics they feed."""

    class_id: str
    parameter_names: tuple[str, ...]
    priors: tuple[PriorSpec, ...]
    physics_binding: str
    fixed_constants: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "parameter_names", tuple(self.parameter_names))
        object.__setattr__(self, "priors", tuple(self.priors))
        if len(set(self.parameter_names)) != len(self.parameter_names):
            raise ValueError(f"duplicate parameter names in class {self.class_id!r}")
        if len(self.priors) != len(self.parameter_names):
            raise ValueError(
                f"class {self.class_id!r}: {len(self.parameter_names)} parameter names "
                f"but {len(self.priors)} priors")

    @property
    def n_parameters(self) -> int:
        return len(self.parameter_names)


@dataclass(frozen=True)
class EnsembleSpec:
    """Recipe for a reproducible ensemble: classes, size per class, master seed."""

    class_specs: tuple[ModelClassSpec, ...]
    samples_per_class: int
    master_seed: int

    def __post_init__(self):
        object.__setattr__(self, "class_specs", tuple(self.class_specs))
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be >= 1")
        ids = [c.class_id for c in self.class_specs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate class_id in ensemble spec")


def _class_key(class_id: str) -> int:
    # stable 64-bit key, independent of PYTHONHASHSEED
    digest = hashlib.sha256(class_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _slot_rng(master_seed: int, class_key: int, sample_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([master_seed, class_key, sample_index]))


def sample_rng(master_seed: int, class_id: str, sample_index: int) -> np.random.Generator:
    """Generator for one (class, sample) slot, a pure function of its arguments."""
    return _slot_rng(master_seed, _class_key(class_id), sample_index)


def _class_sampler(class_spec: ModelClassSpec, master_seed: int):
    """``draw_sample`` of one class as a function of the sample index, with the
    class key and each prior's constants computed once."""
    key = _class_key(class_spec.class_id)
    drawers = [_drawer(prior, name)
               for name, prior in zip(class_spec.parameter_names, class_spec.priors)]

    def draw(sample_index: int) -> list[float]:
        rng = _slot_rng(master_seed, key, sample_index)
        try:
            return [draw_one(rng) for draw_one in drawers]
        except SamplingError as err:
            raise SamplingError(
                f"class {class_spec.class_id!r}, sample {sample_index}: {err}") from err

    return draw


def draw_sample(class_spec: ModelClassSpec, master_seed: int, sample_index: int) -> list[float]:
    """The parameter vector of one candidate; independent of any other sample's draws."""
    return _class_sampler(class_spec, master_seed)(sample_index)


def generate_ensemble(spec: EnsembleSpec) -> dict[str, np.ndarray]:
    """Draw ``samples_per_class`` models for every class in ``spec``.

    Returns a mapping class_id -> (samples_per_class, n_parameters) array
    whose row i is the parameter vector of sample index i, ``draw_sample``'s.
    Deterministic: the same spec yields bit-identical ensembles.
    """
    ensembles = {}
    for c in spec.class_specs:
        draw = _class_sampler(c, spec.master_seed)
        ensembles[c.class_id] = np.array([draw(i) for i in range(spec.samples_per_class)],
                                         dtype=float)
    return ensembles
