"""Bayesian weighting of unfalsified models, parameter estimates, predictions.

Weights are proportional to likelihood times prior density for unfalsified
models and exactly zero for falsified ones.  All weight arithmetic happens
in log space with a log-sum-exp normalization, since the likelihoods of
long residual vectors underflow double precision in linear space.

When the candidate models were sampled from the prior itself, including the
prior density in the weights double-counts it (the sample set already
carries the prior measure); the ``weight_prior="cancel"`` default therefore
uses likelihood-only weights, and ``"include"`` restores the explicit
prior factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .falsification import ClassVerdicts

__all__ = [
    "WeightedEnsemble",
    "PredictionResult",
    "AllModelsFalsifiedError",
    "post_falsification_weights",
    "estimate_parameters",
    "predict_response",
    "relative_rms_error",
]


class AllModelsFalsifiedError(RuntimeError):
    def __init__(self, class_id: str):
        super().__init__(
            f"every candidate model of class {class_id!r} was falsified; "
            "enlarge the candidate set, raise the target identification "
            "probability phi, or add model classes")


@dataclass(frozen=True)
class WeightedEnsemble:
    """Unfalsified models of one class with normalized weights.

    ``sample_indices`` are ascending; falsified models are simply absent
    (their weights are exactly zero and never stored).
    """

    class_id: str
    sample_indices: tuple[int, ...]
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        idx = tuple(int(i) for i in self.sample_indices)
        if w.size != len(idx) or w.size == 0:
            raise ValueError("need one weight per retained sample")
        if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1 within 1e-12")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("sample indices must be strictly ascending")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "sample_indices", idx)

    @property
    def n_models(self) -> int:
        return len(self.sample_indices)


@dataclass(frozen=True)
class PredictionResult:
    """Weighted ensemble prediction with a pointwise spread diagnostic."""

    dt: float
    q_hat: np.ndarray
    spread: np.ndarray
    channel_names: tuple[str, ...]
    input_label: str = ""

    def __post_init__(self):
        q = np.asarray(self.q_hat, dtype=float)
        s = np.asarray(self.spread, dtype=float)
        if q.shape != s.shape or q.ndim != 1:
            raise ValueError("prediction and spread must be matching 1-d stacked vectors")
        object.__setattr__(self, "q_hat", q)
        object.__setattr__(self, "spread", s)
        object.__setattr__(self, "channel_names", tuple(self.channel_names))


def post_falsification_weights(verdicts: ClassVerdicts, log_priors=None,
                               weight_prior: str = "cancel") -> WeightedEnsemble:
    """Normalized weights over the unfalsified subset of one class.

    ``log_priors`` gives the log prior density per sample index and is only
    used with ``weight_prior="include"``.
    """
    if weight_prior not in ("cancel", "include"):
        raise ValueError("weight_prior must be 'cancel' or 'include'")
    kept = np.flatnonzero(verdicts.unfalsified)
    if kept.size == 0:
        raise AllModelsFalsifiedError(verdicts.class_id)
    log_w = verdicts.log_likelihood[kept]
    if weight_prior == "include":
        if log_priors is None:
            raise ValueError("weight_prior='include' requires log prior densities")
        log_w = log_w + np.asarray(log_priors, dtype=float)[kept]
    weights = np.exp(log_w - logsumexp(log_w))
    weights = weights / weights.sum()   # remove residual rounding so the sum is exact
    return WeightedEnsemble(class_id=verdicts.class_id, sample_indices=tuple(kept),
                            weights=weights)


def estimate_parameters(ensemble: WeightedEnsemble, theta_matrix) -> np.ndarray:
    """Posterior-weighted parameter estimate over the unfalsified models.

    ``theta_matrix`` holds the full class's parameter vectors, indexed by
    sample_index (shape (N_s, n_parameters)).
    """
    theta_matrix = np.asarray(theta_matrix, dtype=float)
    idx = np.asarray(ensemble.sample_indices)
    return ensemble.weights @ theta_matrix[idx]


def predict_response(ensemble: WeightedEnsemble, member_outputs, dt: float,
                     channel_names=("output",), input_label: str = "") -> PredictionResult:
    """Weighted prediction over the unfalsified members.

    ``member_outputs`` is a matrix whose rows align with
    ``ensemble.sample_indices`` (only unfalsified members simulated).  The
    weighted sums run in ascending sample-index order so results are
    bit-reproducible.
    """
    q = np.asarray(member_outputs, dtype=float)
    if q.shape[0] != ensemble.n_models:
        raise ValueError(f"expected {ensemble.n_models} member outputs, got {q.shape[0]}")
    if not np.all(np.isfinite(q)):
        bad = np.nonzero(~np.all(np.isfinite(q), axis=1))[0]
        offenders = [ensemble.sample_indices[i] for i in bad]
        raise ValueError(f"member simulation diverged for samples {offenders}")
    w = ensemble.weights
    q_hat = w @ q
    spread = np.sqrt(np.clip(w @ (q - q_hat) ** 2, 0.0, None))
    return PredictionResult(dt=dt, q_hat=q_hat, spread=spread,
                            channel_names=tuple(channel_names), input_label=input_label)


def relative_rms_error(u_true, u_est) -> float:
    """||u_true - u_est||_2 / ||u_true||_2 over the sampled series."""
    u_true = np.asarray(u_true, dtype=float)
    u_est = np.asarray(u_est, dtype=float)
    if u_true.shape != u_est.shape:
        raise ValueError("series lengths differ")
    denom = np.linalg.norm(u_true)
    if denom == 0.0:
        raise ValueError("relative RMS error is undefined for a zero truth series")
    return float(np.linalg.norm(u_true - u_est) / denom)
