"""Prior distributions and deterministic candidate-model ensembles.

A model class is a family of governing equations with a fixed set of
uncertain parameters; a candidate model is one draw of the parameter
vector from the class priors.  Each candidate is drawn from its own numpy
stream, ``SeedSequence([master_seed, class key, sample_index])`` -> PCG64,
so the same spec always yields bit-identical samples no matter how the
generation is ordered.  A class's seeds are hashed at once on arrays and
its streams are drawn through one reused generator.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
from dataclasses import dataclass, field

import numpy as np
import numpy.random   # numpy loads it lazily; every run draws from it

__all__ = [
    "PriorSpec",
    "ModelClassSpec",
    "EnsembleSpec",
    "SamplingError",
    "generate_ensemble",
]

PRIOR_KINDS = ("normal", "lognormal", "uniform")

_SQRT3 = math.sqrt(3.0)

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
        if self.kind == "uniform":
            mean, half = float(self.mean), float(self.std_dev) * _SQRT3
            if not math.isfinite((mean + half) - (mean - half)):
                raise ValueError("uniform prior support mean +- std*sqrt(3) is wider "
                                 "than a float can hold")


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
        seed = operator.index(self.master_seed)   # an int, as SeedSequence takes
        if seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {seed}")
        object.__setattr__(self, "master_seed", seed)
        ids = [c.class_id for c in self.class_specs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate class_id in ensemble spec")


def _class_key(class_id: str) -> int:
    # stable 64-bit key, independent of PYTHONHASHSEED
    digest = hashlib.sha256(class_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), pool of 4 words
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _uint32_words(n: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence reads from an int ``n`` >= 0; [0] for 0."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _seed_words(master_seed: int, class_key: int, indices: np.ndarray) -> np.ndarray:
    """``SeedSequence([master_seed, class_key, i]).generate_state(8)`` for every i of
    the uint32 array ``indices`` at once: an (n, 8) uint32 array.

    A word that is the same for every slot stays a Python int, one that depends on
    the index is a uint32 array; both wrap mod 2**32.  The hash constant evolves the
    same way for every slot.
    """
    entropy = _uint32_words(master_seed) + _uint32_words(class_key) + [indices]
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = h * _MULT_A & _MASK32
        value = value * h & _MASK32
        return value ^ value >> _XSHIFT

    def mix(x, y):
        value = (_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32) & _MASK32
        return value ^ value >> _XSHIFT

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    h = _INIT_B
    words = np.empty((len(indices), 2 * _POOL_SIZE), dtype=np.uint32)
    for i_dst in range(words.shape[1]):
        value = pool[i_dst % _POOL_SIZE] ^ h
        h = h * _MULT_B & _MASK32
        value = value * h & _MASK32
        words[:, i_dst] = value ^ value >> _XSHIFT
    return words


def _pcg64_states(words: np.ndarray):
    """PCG64's (state, inc) once seeded with each row of ``_seed_words``, as
    ``pcg_setseq_128_srandom_r`` sets them: the row's uint64 words are
    seed = w0·2**64 + w1 and initseq = w2·2**64 + w3."""
    for s_hi, s_lo, i_hi, i_lo in words.astype("<u4").view("<u8").tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        yield ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, inc


def _raw_drawer(rng: np.random.Generator, spec: PriorSpec, name: str):
    """One draw of ``spec`` from ``rng``, a lognormal's before its ``exp``."""
    if spec.kind == "uniform":
        half = spec.std_dev * _SQRT3
        return functools.partial(rng.uniform, spec.mean - half, spec.mean + half)
    if spec.kind == "lognormal":
        sig2 = np.log1p((spec.std_dev / spec.mean) ** 2)
        return functools.partial(rng.normal, np.log(spec.mean) - 0.5 * sig2, np.sqrt(sig2))
    normal = functools.partial(rng.normal, spec.mean, spec.std_dev)
    if not spec.positive_only:
        return normal

    def positive():
        value = normal()
        redraws = 0
        while value <= 0.0:
            redraws += 1
            if redraws > _MAX_REDRAWS:
                raise SamplingError(
                    f"could not draw a positive value for {name!r} "
                    f"(normal mean={spec.mean}, std={spec.std_dev})")
            value = normal()
        return value

    return positive


def _finished(class_spec: ModelClassSpec, raw: list) -> np.ndarray:
    """The rows of ``raw`` with each lognormal column exponentiated; SamplingError at
    the first non-finite value in draw order (sample by sample, parameters in order)."""
    values = np.array(raw, dtype=float).reshape(len(raw), class_spec.n_parameters)
    with np.errstate(over="ignore"):
        for j, prior in enumerate(class_spec.priors):
            if prior.kind == "lognormal":
                values[:, j] = np.exp(values[:, j])
    bad = ~np.isfinite(values)
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), class_spec.n_parameters)
        raise SamplingError(
            f"class {class_spec.class_id!r}, sample {i}: non-finite draw for "
            f"{class_spec.parameter_names[j]!r} from {class_spec.priors[j].kind} prior")
    return values


def generate_ensemble(spec: EnsembleSpec) -> dict[str, np.ndarray]:
    """Draw ``samples_per_class`` models for every class in ``spec``.

    Returns a mapping class_id -> (samples_per_class, n_parameters) array.  Row i
    is drawn, in parameter order, from numpy's ``default_rng(SeedSequence(
    [master_seed, key, i]))`` with ``key`` the class id's 64-bit hash, so a row
    depends on nothing but its slot.  The slots of a class are hashed at once and
    each one's PCG64 state is set on one reused generator.
    """
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    pcg = {}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    indices = np.arange(spec.samples_per_class, dtype=np.uint32)   # one entropy word each
    ensembles = {}
    for c in spec.class_specs:
        draws = [_raw_drawer(rng, prior, name)
                 for name, prior in zip(c.parameter_names, c.priors)]
        raw = []
        try:
            for pcg["state"], pcg["inc"] in _pcg64_states(
                    _seed_words(spec.master_seed, _class_key(c.class_id), indices)):
                bitgen.state = state
                raw.append([draw() for draw in draws])
        except SamplingError as err:
            # redraw the exhausted slot up to that parameter: a value before it
            # that is not finite is the first bad draw
            bitgen.state = state
            partial = []
            try:
                for draw in draws:
                    partial.append(draw())
            except SamplingError:
                pass
            _finished(c, raw + [partial + [1.0] * (c.n_parameters - len(partial))])
            raise SamplingError(f"class {c.class_id!r}, sample {len(raw)}: {err}") from None
        ensembles[c.class_id] = _finished(c, raw)
    return ensembles
