"""Likelihood-bound model falsification with FDR-derived error bounds.

A model's residual vector is scored with a diagonal Gaussian log-likelihood
and compared against a lower bound built from Benjamini-Hochberg rank-wise
significance levels: rank i of the p-value-sorted residuals gets level
alpha_i = (i / N_o) * alpha, the two-sided Gaussian quantile at alpha_i / 2
gives symmetric error bounds, and the bound is the product of the minimum
Gaussian densities over those intervals (attained at the interval endpoints).

Because the rank-wise endpoints depend only on (noise model, alpha, N_o) and
not on any particular model's residuals, the log bound is computed once and
cached; every model in an ensemble shares it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

import numpy as np

__all__ = [
    "MeasurementSet",
    "ResidualNoiseModel",
    "FdrConfig",
    "ClassVerdicts",
    "residuals",
    "log_likelihood",
    "p_values",
    "bh_levels",
    "bh_quantiles",
    "likelihood_bound",
    "falsify",
    "falsify_classes",
]

_LOG_2PI = np.log(2.0 * np.pi)
_SQRT2 = np.sqrt(2.0)
_ERFC = np.vectorize(math.erfc, otypes=[float])
_STANDARD_NORMAL = NormalDist()


@dataclass(frozen=True)
class MeasurementSet:
    """A measured or simulated response d = [y(0), y(dt), ...], channels interleaved."""

    d: np.ndarray
    dt: float
    channel_names: tuple[str, ...] = ("output",)

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        if d.ndim != 1 or d.size < 1:
            raise ValueError("response vector must be 1-d and non-empty")
        if d.size % len(self.channel_names) != 0:
            raise ValueError(f"response length {d.size} is not a multiple of the "
                             f"channel count {len(self.channel_names)}")
        if not np.all(np.isfinite(d)):
            raise ValueError("response vector contains non-finite entries")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "channel_names", tuple(self.channel_names))

    @property
    def n_channels(self) -> int:
        return len(self.channel_names)

    def by_channel(self) -> np.ndarray:
        """De-interleave into shape (time samples, channels)."""
        return self.d.reshape(-1, self.n_channels)


@dataclass(frozen=True)
class ResidualNoiseModel:
    """Diagonal Gaussian residual model: either one shared sigma or one per channel.

    ``ResidualNoiseModel(0.5)`` shares one sigma, ``ResidualNoiseModel((1.0, 2.0))``
    gives one per channel.  Per-channel sigmas are expanded over the interleaved
    stacking order, so entry j of a residual vector uses sigma[j mod n_channels].
    """

    std_devs: tuple[float, ...]

    def __post_init__(self):
        stds = tuple(float(s) for s in np.atleast_1d(np.asarray(self.std_devs, dtype=float)))
        if any(not np.isfinite(s) or s <= 0.0 for s in stds):
            raise ValueError("all residual std devs must be finite and > 0")
        object.__setattr__(self, "std_devs", stds)

    def check_channels(self, n_channels: int) -> None:
        """Refuse sigmas that are neither one shared value nor one per channel."""
        if len(self.std_devs) not in (1, n_channels):
            raise ValueError(f"{len(self.std_devs)} residual sigmas for a measurement of "
                             f"{n_channels} channel(s): give one sigma or one per channel")

    def sigma_vector(self, n_obs: int) -> np.ndarray:
        """Per-entry sigma for a stacked residual of length n_obs."""
        stds = np.asarray(self.std_devs)
        if stds.size == 1:
            return np.full(n_obs, stds[0])
        if n_obs % stds.size != 0:
            raise ValueError(
                f"residual length {n_obs} is not a multiple of the channel count {stds.size}")
        return np.tile(stds, n_obs // stds.size)


@dataclass(frozen=True)
class FdrConfig:
    """Significance level alpha of the Benjamini-Hochberg bound."""

    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")


@dataclass(frozen=True)
class ClassVerdicts:
    """One class's log-likelihoods against the log bound the whole ensemble shares.

    Entry i of ``log_likelihood`` is the model with sample index i.
    """

    class_id: str
    log_likelihood: np.ndarray
    log_bound: float

    def __post_init__(self):
        object.__setattr__(self, "log_likelihood", np.asarray(self.log_likelihood, dtype=float))

    @property
    def unfalsified(self) -> np.ndarray:
        # strict inequality: a tie with the bound falsifies
        return self.log_likelihood > self.log_bound


# ---------------------------------------------------------------------------
# core statistics

def residuals(h, d) -> np.ndarray:
    """Elementwise model-minus-measurement residual vector(s).

    ``h`` may be a single stacked output (1-d) or a batch (n_models, N_o).
    """
    h_arr = h.d if isinstance(h, MeasurementSet) else np.asarray(h, dtype=float)
    d_arr = d.d if isinstance(d, MeasurementSet) else np.asarray(d, dtype=float)
    if h_arr.shape[-1] != d_arr.shape[-1]:
        raise ValueError(
            f"output length {h_arr.shape[-1]} does not match measurement length {d_arr.shape[-1]}")
    if isinstance(h, MeasurementSet) and isinstance(d, MeasurementSet) \
            and h.channel_names != d.channel_names:
        raise ValueError("output and measurement channel descriptors differ")
    return h_arr - d_arr


def _log_normaliser(sigma: np.ndarray) -> float:
    """-(N_o/2) ln(2 pi) - sum ln sigma_j, the Gaussian's log normalising constant."""
    return -0.5 * sigma.size * _LOG_2PI - np.sum(np.log(sigma))


def log_likelihood(eps, noise: ResidualNoiseModel):
    """Diagonal-Gaussian log-likelihood, computed entirely in log space.

    ln L = -(N_o/2) ln(2 pi) - sum ln sigma_j - (1/2) sum (eps_j / sigma_j)^2

    Accepts a single residual vector or a batch (n_models, N_o); returns a
    scalar or a vector of log-likelihoods accordingly.
    """
    eps = np.asarray(eps, dtype=float)
    sigma = noise.sigma_vector(eps.shape[-1])
    with np.errstate(over="ignore"):
        z = eps / sigma
        quad = np.sum(np.square(z, out=z), axis=-1)
    if not np.all(np.isfinite(quad)):   # a non-finite residual makes its row's sum non-finite
        if not np.all(np.isfinite(eps)):
            raise ValueError("residuals contain non-finite entries")
        raise ValueError(f"residuals over a sigma of {sigma.min():.3g} overflow the log-likelihood")
    out = _log_normaliser(sigma) - 0.5 * quad
    return float(out) if eps.ndim == 1 else out


def p_values(eps, noise: ResidualNoiseModel) -> np.ndarray:
    """Two-sided Gaussian p-values: p_j = 2 min(Phi(x_j), 1 - Phi(x_j)).

    Computed as erfc(|eps_j| / (sigma_j sqrt(2))), which is exactly symmetric
    in the sign of the residual.
    """
    eps = np.asarray(eps, dtype=float)
    sigma = noise.sigma_vector(eps.shape[-1])
    return _ERFC(np.abs(eps) / (sigma * _SQRT2))


def bh_levels(config: FdrConfig, n_obs: int) -> np.ndarray:
    """Rank-wise significance levels alpha_i = (i / N_o) alpha, i = 1..N_o."""
    return np.arange(1, n_obs + 1) / n_obs * config.alpha


def bh_quantiles(config: FdrConfig, n_obs: int) -> np.ndarray:
    """Standard-normal upper bounds q_i with P(|E| >= q_i) = alpha_i.

    q_i = Phi^{-1}(1 - alpha_i / 2) = -Phi^{-1}(alpha_i / 2), taken from the
    lower tail, which avoids the cancellation in 1 - alpha_i / 2; strictly
    decreasing in rank i.
    """
    return np.array([-_STANDARD_NORMAL.inv_cdf(level / 2.0)
                     for level in bh_levels(config, n_obs)])


@lru_cache(maxsize=256)
def likelihood_bound(noise: ResidualNoiseModel, config: FdrConfig, n_obs: int) -> float:
    """Log of the likelihood lower bound for ensembles of ``n_obs`` residuals.

    Sorting residuals by ascending p-value assigns rank-i bounds from the BH
    levels; each factor is the minimum Gaussian density over its interval,
    attained at the endpoint.  The result does not depend on any particular
    residual vector, so the value is cached per (noise, alpha, N_o).
    """
    q = bh_quantiles(config, n_obs)
    sigma = noise.sigma_vector(n_obs)
    # min density over [-upper_i, upper_i] is attained at the endpoints:
    # sigma_j^{-1} phi(q_i).  The 1/sigma_j factors run over all entries and
    # the phi(q_i) factors over all ranks, so the product is independent of
    # which entry receives which rank.
    return float(_log_normaliser(sigma) - 0.5 * np.sum(q**2))


def falsify(class_id: str, eps_matrix, noise: ResidualNoiseModel,
            config: FdrConfig, n_channels: int = 1) -> ClassVerdicts:
    """Score one class's residual matrix (n_models, N_o) against the shared bound.

    ``n_channels`` is the number of interleaved measurement channels; the
    noise model must give one sigma or one per channel.
    """
    noise.check_channels(n_channels)
    eps_matrix = np.asarray(eps_matrix, dtype=float)
    if eps_matrix.ndim != 2:
        raise ValueError("expected a residual matrix of shape (n_models, N_o)")
    return ClassVerdicts(class_id, log_likelihood(eps_matrix, noise),
                         likelihood_bound(noise, config, eps_matrix.shape[1]))


def falsify_classes(eps_by_class: dict[str, np.ndarray], noise: ResidualNoiseModel,
                    config: FdrConfig, n_channels: int = 1) -> dict[str, ClassVerdicts]:
    """Falsify every class against one measurement set of ``n_channels`` channels."""
    return {cid: falsify(cid, eps, noise, config, n_channels)
            for cid, eps in eps_by_class.items()}
