"""Bayesian weighting of unfalsified models, parameter estimates, predictions.

Candidates are draws from their class priors, so the sample already carries
the prior measure and the weights are the normalized likelihoods of the
unfalsified models (exactly zero for falsified ones).  All weight arithmetic
happens in log space with a log-sum-exp normalization, since the likelihoods
of long residual vectors underflow double precision in linear space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .falsification import ClassVerdicts

__all__ = [
    "WeightedEnsemble",
    "PredictionResult",
    "AllModelsFalsifiedError",
    "post_falsification_weights",
    "falsified_log_mass",
    "estimate_parameters",
    "predict_response",
    "relative_rms_error",
]


class AllModelsFalsifiedError(RuntimeError):
    def __init__(self, class_id: str):
        super().__init__(
            f"every candidate model of class {class_id!r} was falsified; "
            "enlarge the candidate set, lower the significance level "
            "alpha, or add model classes")


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

    @property
    def effective_sample_size(self) -> float:
        """Kish's effective sample size 1 / sum w^2: n_models for equal weights, 1 for one."""
        return float(1.0 / np.sum(self.weights**2))


@dataclass(frozen=True)
class PredictionResult:
    """Weighted ensemble prediction with a pointwise spread diagnostic."""

    q_hat: np.ndarray
    spread: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q_hat, dtype=float)
        s = np.asarray(self.spread, dtype=float)
        if q.shape != s.shape or q.ndim != 1:
            raise ValueError("prediction and spread must be matching 1-d stacked vectors")
        object.__setattr__(self, "q_hat", q)
        object.__setattr__(self, "spread", s)


def post_falsification_weights(verdicts: ClassVerdicts) -> WeightedEnsemble:
    """Normalized likelihood weights over the unfalsified subset of one class."""
    kept = np.flatnonzero(verdicts.unfalsified)
    if kept.size == 0:
        raise AllModelsFalsifiedError(verdicts.class_id)
    log_w = verdicts.log_likelihood[kept]
    weights = np.exp(log_w - _log_sum_exp(log_w))
    weights = weights / weights.sum()   # remove residual rounding so the sum is exact
    return WeightedEnsemble(class_id=verdicts.class_id, sample_indices=tuple(kept),
                            weights=weights)


def falsified_log_mass(verdicts: ClassVerdicts) -> float | None:
    """log of the share of one class's likelihood mass that its falsified models carry.

    The weights leave that share out, so it says how far they are from the
    likelihoods of the whole class; None when no model is falsified.
    """
    falsified = ~verdicts.unfalsified
    if not falsified.any():
        return None
    log_l = verdicts.log_likelihood
    return float(_log_sum_exp(log_l[falsified]) - _log_sum_exp(log_l))


def _log_sum_exp(log_x: np.ndarray) -> float:
    """log sum exp(log_x), shifted by the largest term, which is taken out of the sum so
    that log1p keeps the others' share exact to rounding (Blanchard, Higham & Higham 2021)."""
    top = np.argmax(log_x)
    rest = np.exp(log_x - log_x[top])
    rest[top] = 0.0
    return np.log1p(rest.sum()) + log_x[top]


def estimate_parameters(ensemble: WeightedEnsemble, theta_matrix) -> np.ndarray:
    """Posterior-weighted parameter estimate over the unfalsified models.

    ``theta_matrix`` holds the full class's parameter vectors, indexed by
    sample_index (shape (N_s, n_parameters)).
    """
    theta_matrix = np.asarray(theta_matrix, dtype=float)
    idx = np.asarray(ensemble.sample_indices)
    return ensemble.weights @ theta_matrix[idx]


def predict_response(ensemble: WeightedEnsemble, member_outputs) -> PredictionResult:
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
    return PredictionResult(q_hat=q_hat, spread=spread)


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
