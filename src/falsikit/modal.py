"""Modal analysis for small linear models: frequencies, shapes, MAC residuals.

The modal falsification path stacks absolute frequency errors [Hz] and
(1 - diagonal MAC) values into a residual vector, so a perfect model gives
an exactly zero residual, consistent with the zero-mean Gaussian residual
model used by the falsification engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ModalResult", "solve_modes", "mac", "modal_residual"]


@dataclass(frozen=True)
class ModalResult:
    """Natural frequencies [Hz] (ascending) and unit-norm mode shape columns."""

    frequencies: np.ndarray
    mode_shapes: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        phi = np.asarray(self.mode_shapes, dtype=float)
        if f.ndim != 1 or phi.ndim != 2 or phi.shape[1] != f.size:
            raise ValueError("need one mode-shape column per frequency")
        if np.any(np.diff(f) < 0.0):
            raise ValueError("frequencies must be ascending")
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "mode_shapes", phi)

    @property
    def n_modes(self) -> int:
        return self.frequencies.size


def solve_modes(M: np.ndarray, K: np.ndarray, n_modes: int | None = None) -> ModalResult:
    """Solve the generalized symmetric eigenproblem K phi = lambda M phi.

    M must be symmetric positive definite, K symmetric positive semidefinite.
    Frequencies are sqrt(lambda) / (2 pi); shape columns are unit Euclidean
    norm with the largest-magnitude entry made positive.
    """
    M = np.asarray(M, dtype=float)
    K = np.asarray(K, dtype=float)
    if M.shape != K.shape or M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("M and K must be square matrices of the same size")
    if n_modes is None:
        n_modes = M.shape[0]
    if n_modes > M.shape[0]:
        raise ValueError("n_modes exceeds the number of degrees of freedom")
    import scipy.linalg   # imported here: it is slow to import and only this needs it
    try:
        lam, phi = scipy.linalg.eigh(K, M)
    except scipy.linalg.LinAlgError as err:
        raise ValueError(f"generalized eigensolve failed (is M positive definite?): {err}")
    lam = np.clip(lam[:n_modes], 0.0, None)   # clip eigensolver noise on rigid modes
    phi = phi[:, :n_modes]
    norms = np.linalg.norm(phi, axis=0)
    phi = phi / norms
    # sign convention: largest-magnitude entry positive (MAC is sign-invariant;
    # this only stabilizes printed shapes)
    idx = np.argmax(np.abs(phi), axis=0)
    signs = np.sign(phi[idx, np.arange(phi.shape[1])])
    signs[signs == 0.0] = 1.0
    phi = phi * signs
    freqs = np.sqrt(lam) / (2.0 * np.pi)
    return ModalResult(frequencies=freqs, mode_shapes=phi)


def mac(phi_a, phi_b) -> float:
    """Modal assurance criterion: |phi_a . phi_b|^2 / (|phi_a|^2 |phi_b|^2) in [0, 1]."""
    phi_a = np.asarray(phi_a, dtype=float).ravel()
    phi_b = np.asarray(phi_b, dtype=float).ravel()
    if phi_a.size != phi_b.size:
        raise ValueError("mode shapes must have equal length")
    sa = np.max(np.abs(phi_a))
    sb = np.max(np.abs(phi_b))
    if sa == 0.0 or sb == 0.0:
        raise ValueError("MAC is undefined for a zero mode shape")
    # prescale so extreme magnitudes cannot overflow or underflow the products
    phi_a = phi_a / sa
    phi_b = phi_b / sb
    na = phi_a @ phi_a
    nb = phi_b @ phi_b
    return float((phi_a @ phi_b) ** 2 / (na * nb))


def modal_residual(model_modes: ModalResult, reference_modes: ModalResult) -> np.ndarray:
    """Stacked residual: frequency errors [Hz] then (1 - diagonal MAC) values.

    Modes are paired by index after the ascending frequency sort; closely
    spaced modes may pair inconsistently, which is accepted here.
    """
    if model_modes.n_modes != reference_modes.n_modes:
        raise ValueError("mode counts differ")
    if model_modes.mode_shapes.shape[0] != reference_modes.mode_shapes.shape[0]:
        raise ValueError("mode shapes have mismatched DOF counts")
    freq_err = model_modes.frequencies - reference_modes.frequencies
    mac_err = np.array([
        1.0 - mac(model_modes.mode_shapes[:, i], reference_modes.mode_shapes[:, i])
        for i in range(model_modes.n_modes)
    ])
    return np.concatenate([freq_err, mac_err])
