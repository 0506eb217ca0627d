"""Reference responses of isolated shear buildings, computed without falsikit.

The benchmark uses this module to make each workload's measured and truth
responses, and to re-simulate sampled ledger rows when it checks a run.  It
implements the structural model from its equations, not from falsikit's
code:

* the superstructure is a planar shear building with lumped story masses
  over a base mass, story displacements relative to the ground, and
  Rayleigh damping fitted to two fixed-base modes;
* the isolation layer is either a smooth hysteretic (Bouc-Wen) element,
  ``f = c_b v + k_post x + Q_y (1 - r_k) z``, or an equivalent-linear element
  with code-specified stiffness and damping (AASHTO, JPWRI, modified AASHTO,
  Caltrans);
* the ground acceleration is held constant over each record interval
  (zero-order hold) and the output is the base absolute acceleration,
  sampled at the start of each interval.

Linear systems are discretized exactly with a matrix exponential; hysteretic
systems are integrated with a tight-tolerance ``scipy.integrate.solve_ivp``,
one record interval at a time, so that no step spans a jump in the input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.signal
from scipy.integrate import solve_ivp
from scipy.stats import norm

GRAVITY = 9.80665        # standard gravity [m/s^2]
MG = 1.0e3               # Mg -> kg
MN_PER_M = 1.0e6         # MN/m -> N/m
KN = 1.0e3               # kN.s/m -> N.s/m

LINEAR_KINDS = ("aashto", "jpwri", "modified_aashto", "caltrans")
HYSTERETIC_EXPONENTS = {"boucwen": 1.0, "bilinear": 100.0}

# solve_ivp tolerances for the hysteretic reference
IVP_RTOL = 1e-10
IVP_ATOL = 1e-12
# Rayleigh damping ratio of the superstructure's first two fixed-base modes
DAMPING_RATIO = 0.03
# ground motion records: Butterworth band-pass of white noise
BAND_HZ = (0.35, 1.5)
FILTER_ORDER = 4


@dataclass(frozen=True)
class Building:
    """Shear building: story masses [Mg], story stiffnesses [MN/m], base mass [Mg]."""

    story_masses: tuple[float, ...]
    story_stiffnesses: tuple[float, ...]
    base_mass: float

    @property
    def total_mass(self) -> float:
        return MG * (self.base_mass + sum(self.story_masses))

    @property
    def weight(self) -> float:
        return GRAVITY * self.total_mass

    def matrices(self):
        """Story mass vector [kg], stiffness and Rayleigh damping matrices (SI)."""
        m = np.asarray(self.story_masses, dtype=float) * MG
        k = np.asarray(self.story_stiffnesses, dtype=float) * MN_PER_M
        # story i connects levels i-1 and i; level -1 is the base
        K = np.diag(k + np.append(k[1:], 0.0)) - np.diag(k[1:], 1) - np.diag(k[1:], -1)
        omega = np.sqrt(scipy.linalg.eigh(K, np.diag(m), eigvals_only=True))
        w1, w2 = omega[0], omega[1]
        # zeta = a0 / (2 w) + a1 w / 2 at the first two modes
        a1 = 2.0 * DAMPING_RATIO / (w1 + w2)
        a0 = a1 * w1 * w2
        return m, K, a0 * np.diag(m) + a1 * K


def equivalent_linear(kind: str, k_post, r_k, r_d):
    """Code-specified equivalent damping ratio and stiffness [N/m].

    ``k_post`` in MN/m; k_pre = k_post / r_k.
    """
    if kind not in LINEAR_KINDS:
        raise ValueError(f"unknown equivalent-linear kind {kind!r}")
    k_pre = np.asarray(k_post, dtype=float) * MN_PER_M / r_k
    if kind == "caltrans":
        zeta = 0.0587 * (r_d - 1.0) ** 0.371
        k_eq = k_pre * (1.0 + np.log(1.0 + 0.13 * (r_d - 1.0) ** 1.137)) ** -2.0
        return zeta, k_eq
    rho = 0.7 * r_d if kind == "jpwri" else r_d
    zeta = 2.0 * (1.0 - r_k) * (1.0 - 1.0 / rho) / (np.pi * (1.0 + r_k * (rho - 1.0)))
    k_eq = k_pre * (1.0 + r_k * (rho - 1.0)) / rho
    if kind == "modified_aashto":
        zeta = zeta * r_d ** 0.58 / (6.0 - 10.0 * r_k)
        k_eq = k_eq / (1.0 - 0.737 * (r_d - 1.0) / r_d ** 2) ** 2
    return zeta, k_eq


# ---------------------------------------------------------------------------
# generic integrators, tested on a damped single-degree-of-freedom system

def zoh_response(A, B, C, D, u, dt) -> np.ndarray:
    """Outputs y_k = C x_k + D u_k of x' = A x + B u with u held over each dt.

    The update x_{k+1} = Phi x_k + Gamma u_k is exact: Phi and Gamma come from
    the matrix exponential of the augmented system [[A, B], [0, 0]] dt.
    """
    n = A.shape[0]
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = A
    aug[:n, n] = B
    E = scipy.linalg.expm(aug * dt)
    phi, gamma = E[:n, :n], E[:n, n]
    x = np.zeros(n)
    y = np.empty(len(u))
    for k, uk in enumerate(u):
        y[k] = C @ x + D * uk
        x = phi @ x + gamma * uk
    return y


def ivp_response(rhs, output, x0, u, dt) -> np.ndarray:
    """Outputs of x' = rhs(x, u_k) from ``x0``, integrated one interval at a time."""
    x = np.asarray(x0, dtype=float)
    y = []
    for k, uk in enumerate(u):
        y.append(output(x, uk))
        sol = solve_ivp(lambda t, s: rhs(s, uk), (0.0, dt), x, method="DOP853",
                        rtol=IVP_RTOL, atol=IVP_ATOL)
        if not sol.success:
            raise RuntimeError(f"reference integration failed at step {k}: {sol.message}")
        x = sol.y[:, -1]
    return np.asarray(y)


# ---------------------------------------------------------------------------
# the isolated building

def _state_space(building: Building, k_iso: float, c_iso: float):
    """x' = A x + B a_g for x = [u_s, u_b, v_s, v_b] with a linear isolator.

    Displacements are relative to the ground; the last row of A is the base's
    absolute acceleration u_b'' + a_g, since B's last entry is -1.
    """
    m, K, C = building.matrices()
    n = m.size
    k1, c1 = K.sum(axis=1), C.sum(axis=1)      # coupling of each story to the base
    Kf = np.zeros((n + 1, n + 1))
    Cf = np.zeros((n + 1, n + 1))
    Kf[:n, :n], Kf[:n, n], Kf[n, :n], Kf[n, n] = K, -k1, -k1, k1.sum() + k_iso
    Cf[:n, :n], Cf[:n, n], Cf[n, :n], Cf[n, n] = C, -c1, -c1, c1.sum() + c_iso
    minv = 1.0 / np.append(m, MG * building.base_mass)
    A = np.block([[np.zeros((n + 1, n + 1)), np.eye(n + 1)],
                  [-minv[:, None] * Kf, -minv[:, None] * Cf]])
    B = np.concatenate([np.zeros(n + 1), -np.ones(n + 1)])
    return A, B


def linear_response(building: Building, kind: str, theta: dict, ag, dt) -> np.ndarray:
    """Base absolute acceleration of one equivalent-linear isolated building."""
    zeta, k_eq = equivalent_linear(kind, theta["k_post"], theta["r_k"], theta["r_d"])
    c_eq = 2.0 * zeta * np.sqrt(k_eq * building.total_mass)
    A, B = _state_space(building, k_eq, theta["c_b"] * KN + c_eq)
    return zoh_response(A, B, A[-1], 0.0, ag, dt)


def hysteretic_response(building: Building, kind: str, theta: dict, ag, dt) -> np.ndarray:
    """Base absolute acceleration of one Bouc-Wen isolated building.

    The state is [x, z]: the linear part x' = A x + B a_g carries k_post and
    c_b, and the hysteretic force Q_y (1 - r_k) z acts on the base.
    """
    n_pow = HYSTERETIC_EXPONENTS[kind]
    r_k = theta["r_k"]
    k_post = theta["k_post"] * MN_PER_M
    Qy = theta["Q_y"] / 100.0 * building.weight
    a = k_post / r_k / Qy                       # 1 / yield displacement
    A, B = _state_space(building, k_post, theta["c_b"] * KN)
    hyst = Qy * (1.0 - r_k) / (MG * building.base_mass)
    base_accel = A[-1]

    def rhs(s, u):
        x, z = s[:-1], s[-1]
        dx = A @ x + B * u
        dx[-1] -= hyst * z
        vb = x[-1]
        # Bouc-Wen with a = 2 beta = 2 gamma, so |z| saturates at 1
        az = min(abs(z), 1.0)
        dz = a * vb - 0.5 * a * vb * az ** n_pow - 0.5 * a * z * abs(vb) * az ** (n_pow - 1.0)
        return np.append(dx, dz)

    return ivp_response(rhs, lambda s, u: base_accel @ s[:-1] - hyst * s[-1],
                        np.zeros(A.shape[0] + 1), ag, dt)


def response(building: Building, kind: str, theta: dict, ag, dt) -> np.ndarray:
    """Base absolute accelerations of the models in ``theta``, shape (models, N).

    Each entry of ``theta`` holds one parameter's value for every model.
    """
    simulate = hysteretic_response if kind in HYSTERETIC_EXPONENTS else linear_response
    ag = np.asarray(ag, dtype=float)
    rows = [dict(zip(theta, map(float, values))) for values in zip(*theta.values())]
    return np.array([simulate(building, kind, row, ag, dt) for row in rows])


# ---------------------------------------------------------------------------
# records, noise and the likelihood

def band_limited_record(n: int, dt: float, seed: int, peak: float) -> np.ndarray:
    """Band-passed white noise, edge-tapered and scaled to ``peak`` [m/s^2]."""
    white = np.random.default_rng(seed).standard_normal(n)
    nyq = 0.5 / dt
    sos = scipy.signal.butter(FILTER_ORDER, [BAND_HZ[0] / nyq, BAND_HZ[1] / nyq],
                              btype="bandpass", output="sos")
    x = scipy.signal.sosfilt(sos, white) * scipy.signal.windows.tukey(n, alpha=0.1)
    return x * (peak / np.max(np.abs(x)))


def add_noise(clean: np.ndarray, fraction: float, seed: int) -> np.ndarray:
    """Clean response plus Gaussian noise of std ``fraction`` times its own std."""
    rng = np.random.default_rng(seed)
    return clean + rng.standard_normal(clean.shape) * (fraction * clean.std())


def log_bound(sigma: float, n_obs: int, alpha: float) -> float:
    """Closed-form log likelihood bound for an i.i.d. Gaussian residual.

    Rank i of n_obs gets the two-sided level alpha_i = i alpha / n_obs, whose
    quantile is q_i = Phi^-1(1 - alpha_i / 2).
    """
    q = norm.isf(np.arange(1, n_obs + 1) * alpha / n_obs / 2.0)
    return float(-0.5 * n_obs * np.log(2.0 * np.pi) - n_obs * np.log(sigma)
                 - 0.5 * np.sum(q * q))


def log_likelihood(h, d, sigma: float):
    """Gaussian log likelihood of output(s) ``h`` against measurement ``d``."""
    eps = (np.asarray(h, dtype=float) - d) / sigma
    n_obs = d.size
    return (-0.5 * n_obs * np.log(2.0 * np.pi) - n_obs * np.log(sigma)
            - 0.5 * np.sum(eps * eps, axis=-1))
