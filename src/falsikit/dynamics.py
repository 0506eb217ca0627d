"""Lumped-mass structural models with nonlinear isolation and damping devices.

Everything here works in SI internally (kg, N, m, s); the public
constructors accept the conventional engineering units noted in their
docstrings (Mg, MN/m, kN.s/m, yield force as a percentage of structure
weight).

Simulation is fixed-step explicit RK4 for bit-reproducibility, vectorized
over a batch of candidate models, and all parameter arrays broadcast over the
batch.  Every system is one linear operator shared by the batch plus
a few per-model devices, or none (each isolated building, whose isolator is
one device, and the TMD frame): it keeps its models last (state shape
(n_states, n_models)) and describes itself by A, B, the state rows its
devices read, the rate rows their outputs enter (E) and ``device_kernels``,
which binds its devices to the buffers they read and write.
``integrate_rk4`` precomputes the linear part of all four RK4 stages and
binds the devices once per call, so a substep runs only one bound kernel
per stage, in place in buffers allocated once per call, and applies one
matrix product.  When the devices are linear (``nonlinear`` is False), a
record interval of that stepper is a linear map per model, which is probed
from it once and lifted to blocks of record steps: the record is solved a
block at a time, with matrix products over every block's inputs, and a
block that may leave the divergence guard is stepped again on the device
stepper (``_block_map``).  ``simulate_classes`` groups candidate classes into
batches.  The Bouc-Wen rate is written once (``_boucwen_kernels``), with the
one parameter a = 2 beta = 2 gamma of every device here (Wen 1976): loading
and unloading stiffnesses match and |z| saturates at 1, so no beta, gamma or
saturation amplitude is kept.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, replace

import numpy as np

from .falsification import MeasurementSet

__all__ = [
    "ExcitationRecord",
    "ShearBuildingModel",
    "IsolatedSystem",
    "TmdFrameModel",
    "TmdFrameSystem",
    "SimulationDivergedError",
    "boucwen_rate",
    "equivalent_linear_params",
    "tmd_force",
    "integrate_rk4",
    "simulate_classes",
    "substeps_per_sample",
    "simulate",
    "add_measurement_noise",
    "band_limited_record",
]

GRAVITY = 9.80665   # standard gravity [m/s^2]
MG = 1.0e3          # Mg -> kg
MN_PER_M = 1.0e6    # MN/m -> N/m
KN = 1.0e3          # kN -> N

NONLINEAR_VARIANTS = ("boucwen", "bilinear")
LINEAR_VARIANTS = ("aashto", "jpwri", "modified_aashto", "caltrans")

SIMULATION_REVISION = 4   # raised whenever simulated outputs move: older caches are not reused
_STATE_GUARD = 1.0e6  # any |state| beyond this is treated as divergence
_BLOCK = 8            # record steps per block of ``_block_map``: 4, 10 and 16 measured slower
_CHUNK_BYTES = 1 << 21  # the block rows ``_block_map`` holds at once, about
_SHOWN_INDICES = 5    # diverging model indices named in the error message


class SimulationDivergedError(RuntimeError):
    def __init__(self, t, indices=None, class_id=None, input_label=None):
        self.time = t
        self.indices = indices
        self.class_id = class_id
        self.input_label = input_label
        msg = f"simulation diverged at t = {t:.4f} s"
        if indices is not None and len(indices):
            shown = [int(i) for i in indices[:_SHOWN_INDICES]]
            more = len(indices) - len(shown)
            msg += f" (models {shown}{f' and {more} more' if more else ''})"
        where = [f"{name} {value!r}" for name, value in
                 (("class", class_id), ("input", input_label)) if value is not None]
        if where:
            msg = f"{', '.join(where)}: {msg}"
        super().__init__(msg)


# ---------------------------------------------------------------------------
# excitation

@dataclass(frozen=True)
class ExcitationRecord:
    """Sampled excitation: ground acceleration [m/s^2] or force [N].

    ``samples`` has shape (n,), one input that every model of a batch reads,
    or (n, n_columns), input columns, which ``integrate_rk4`` takes only with
    ``columns``, the column each model reads.
    """

    dt: float
    samples: np.ndarray
    label: str = ""

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if self.dt <= 0.0:
            raise ValueError("excitation dt must be > 0")
        if not np.all(np.isfinite(samples)):
            raise ValueError(f"excitation {self.label!r} contains non-finite samples")
        if samples.ndim not in (1, 2):
            raise ValueError(f"excitation samples must be 1-d or 2-d, not of shape {samples.shape}")
        if samples.shape[0] == 0:
            raise ValueError(f"excitation {self.label!r} has no samples")
        object.__setattr__(self, "samples", samples)

    @property
    def n_steps(self) -> int:
        return self.samples.shape[0]


# ---------------------------------------------------------------------------
# superstructure

@dataclass(frozen=True)
class ShearBuildingModel:
    """Planar shear building: lumped story masses over a rigid base mass.

    Masses in Mg, stiffnesses in MN/m.  Rayleigh damping is calibrated so
    the two ``damping_modes`` (1-based, of the fixed-base superstructure)
    have the given damping ratio.
    """

    story_masses: tuple[float, ...]
    story_stiffnesses: tuple[float, ...]
    base_mass: float
    damping_ratio: float = 0.03
    damping_modes: tuple[int, int] = (1, 2)

    def __post_init__(self):
        object.__setattr__(self, "story_masses", tuple(float(m) for m in self.story_masses))
        object.__setattr__(self, "story_stiffnesses", tuple(float(k) for k in self.story_stiffnesses))
        if len(self.story_masses) != len(self.story_stiffnesses):
            raise ValueError("need one stiffness per story")
        if any(m <= 0 for m in self.story_masses) or any(k <= 0 for k in self.story_stiffnesses):
            raise ValueError("story masses and stiffnesses must be > 0")
        if self.base_mass <= 0:
            raise ValueError("base mass must be > 0")
        if not self.damping_ratio >= 0.0:
            raise ValueError(f"damping_ratio must be >= 0, got {self.damping_ratio}")
        i, j = self.damping_modes
        if not (1 <= i < j <= len(self.story_masses)):
            raise ValueError("damping_modes must be two distinct 1-based mode numbers")

    @property
    def n_stories(self) -> int:
        return len(self.story_masses)

    @property
    def weight(self) -> float:
        """Total isolated weight W [N] = g * (base + stories)."""
        return GRAVITY * MG * (self.base_mass + sum(self.story_masses))

    @property
    def total_mass(self) -> float:
        """Total isolated mass [kg]."""
        return MG * (self.base_mass + sum(self.story_masses))

    def mass_matrix(self) -> np.ndarray:
        return np.diag(np.asarray(self.story_masses) * MG)

    def stiffness_matrix(self) -> np.ndarray:
        k = np.asarray(self.story_stiffnesses) * MN_PER_M
        n = self.n_stories
        K = np.zeros((n, n))
        for i in range(n):
            K[i, i] += k[i]
            if i + 1 < n:
                K[i, i] += k[i + 1]
                K[i, i + 1] -= k[i + 1]
                K[i + 1, i] -= k[i + 1]
        return K

    def fixed_base_frequencies(self) -> np.ndarray:
        """Fixed-base natural circular frequencies [rad/s], ascending."""
        # M is diagonal, so K phi = lambda M phi is the symmetric M^-1/2 K M^-1/2
        scale = 1.0 / np.sqrt(np.diag(self.mass_matrix()))
        lam = np.linalg.eigvalsh(scale[:, None] * self.stiffness_matrix() * scale)
        return np.sqrt(np.clip(lam, 0.0, None))

    def rayleigh_coefficients(self) -> tuple[float, float]:
        """Mass- and stiffness-proportional coefficients (a0, a1) for C = a0 M + a1 K."""
        omega = self.fixed_base_frequencies()
        wi = omega[self.damping_modes[0] - 1]
        wj = omega[self.damping_modes[1] - 1]
        # zeta = (a0 / w + a1 * w) / 2 at both target modes
        A = 0.5 * np.array([[1.0 / wi, wi], [1.0 / wj, wj]])
        a0, a1 = np.linalg.solve(A, [self.damping_ratio, self.damping_ratio])
        return float(a0), float(a1)

    def damping_matrix(self) -> np.ndarray:
        a0, a1 = self.rayleigh_coefficients()
        return a0 * self.mass_matrix() + a1 * self.stiffness_matrix()


# ---------------------------------------------------------------------------
# isolator force laws

def boucwen_rate(z, v, a, n_pow):
    """Rate of the hysteretic evolutionary variable, Bouc-Wen with a = 2 beta = 2 gamma.

    dz/dt = a*v - (a/2) * (v*|z|**n + z*|v|*|z|**(n-1))

    The loading and unloading stiffnesses match and |z| saturates at 1.  For
    numerical robustness |z| is clipped at 1 before exponentiation, which
    prevents overflow of |z|**n for large exponents (bilinear limit, n = 100)
    without altering the in-range dynamics.
    """
    z = np.asarray(z, dtype=float)
    v = np.asarray(v, dtype=float)
    if not (np.isfinite(z).all() and np.isfinite(v).all()):
        raise ValueError("non-finite hysteretic state or velocity")
    n_less_one = _checked_n_pow(n_pow) - 1.0
    shape = np.broadcast(z, v, a, n_less_one).shape
    rows = np.empty((4,) + shape)                 # [v; z; a; n - 1], broadcast
    rows[0], rows[1], rows[2], rows[3] = v, z, a, n_less_one
    rows, out = rows.reshape(4, -1), np.empty(shape)
    _boucwen_kernels(rows[2], rows[3], [(rows[:2], out.reshape(-1))])[0]()
    return out[()]


def _checked_n_pow(n_pow) -> np.ndarray:
    n = np.asarray(n_pow, dtype=float)
    if (n < 1.0).any():
        raise ValueError("n_pow must be >= 1")
    return n


def _boucwen_kernels(a, n_less_one, pairs) -> list:
    """The Bouc-Wen rate with n - 1 given, bound: for each (vz, out) of ``pairs``, a
    kernel, a call of no arguments that writes the rate at the rows vz = [v; z] (2 x
    m) into ``out`` (m); ``a`` broadcasts to the m models and ``n_less_one`` has one
    per model.  No input checks.

    a v - 0.5 az**(n-1) ((a v) az + (|v| z) a) with az = min(|z|, 1), the law
    of ``boucwen_rate`` with one power (|z|**n = |z|**(n-1) |z|); halving is
    exact, so it is the general law at beta = gamma = a/2 to the bit.  A kernel
    runs it as seven ufuncs on paired rows, the IEEE operations of the law in
    this order: |[v; z]|, az = min(|z|, 1), [a v; |v| z] = [a; |v|] [v; z],
    [(a v) az; (|v| z) a], their sum t, t 0.5 and a v - t; the power, and t
    times it before the halving, run only over the span of models from the
    first to the last whose n is not 1, since az**0 = 1 exactly.  The kernels
    read and write through the views they are given, so they see what is in
    vz when they run, and share one set of scratch rows, allocated here: each
    must finish before another starts.  ``out`` must not share memory with vz.
    """
    powered = n_less_one.nonzero()[0]
    span = slice(powered[0], powered[-1] + 1) if powered.size else slice(0)
    # [az; a; |v|; |z|], the products [a v; |v| z], the terms [t; r] and the rows of
    # ones and halves
    scratch = np.empty((10, n_less_one.size))
    scratch[1], scratch[8], scratch[9] = a, 1.0, 0.5
    az, a_abs_v, az_a, abs_vz = scratch[0], scratch[1:3], scratch[:2], scratch[2:4]
    products, terms, ones, halves = scratch[4:6], scratch[6:8], scratch[8], scratch[9]
    abs_z, a_v, t, r = scratch[3], products[0], terms[0], terms[1]
    # numpy rounds the power of a row by one method only when the exponent has a
    # stride (a copy: a broadcast one has none) and the power does not overwrite az
    # (a lone element in place takes another): so it goes into the r row, free by then
    az_span, power, t_span = az[span], r[span], t[span]
    exponent, any_power = n_less_one[span].copy(), powered.size > 0

    def bind(vz, out):
        def kernel():
            np.abs(vz, out=abs_vz)
            np.minimum(abs_z, ones, out=az)
            np.multiply(a_abs_v, vz, out=products)     # [a v; |v| z]
            np.multiply(products, az_a, out=terms)     # [(a v) az; (|v| z) a]
            np.add(t, r, out=t)
            if any_power:
                np.power(az_span, exponent, out=power)
                np.multiply(t_span, power, out=t_span)
            np.multiply(t, halves, out=t)
            np.subtract(a_v, t, out=out)
        return kernel

    return [bind(vz, out) for vz, out in pairs]


def equivalent_linear_params(variant: str, r_k: float, r_d, k_pre):
    """Code-specified equivalent damping ratio and stiffness.

    AASHTO and JPWRI share one family with effective ductility rho = r_d and
    rho = 0.7 r_d respectively; modified AASHTO applies correction factors
    r_d**0.58 / (6 - 10 r_k) to zeta_eq and [1 - 0.737 (r_d-1)/r_d**2]**(-2)
    to k_eq; Caltrans has its own closed forms.  Returns (zeta_eq, k_eq)
    with k_eq in the units of ``k_pre``.  Broadcasts over r_k / r_d / k_pre.
    """
    if variant not in LINEAR_VARIANTS:
        raise ValueError(f"{variant!r} is not a linear isolator variant")
    r_k = np.asarray(r_k, dtype=float)
    if np.any((r_k <= 0.0) | (r_k >= 1.0)):
        raise ValueError("r_k must lie in (0, 1)")
    r_d = np.asarray(r_d, dtype=float)
    k_pre = np.asarray(k_pre, dtype=float)
    if np.any(r_d <= 1.0):
        raise ValueError(f"{variant}: shear ductility ratio r_d must be > 1")

    if variant == "caltrans":
        zeta = 0.0587 * np.power(r_d - 1.0, 0.371)
        k_eq = k_pre / (1.0 + np.log(1.0 + 0.13 * np.power(r_d - 1.0, 1.137))) ** 2
        return zeta, k_eq

    rho = r_d if variant in ("aashto", "modified_aashto") else 0.7 * r_d
    if np.any(rho <= 1.0):
        raise ValueError(f"{variant}: effective ductility rho = {np.min(rho):.4g} <= 1")
    zeta = 2.0 * (1.0 - r_k) * (1.0 - 1.0 / rho) / (np.pi * (1.0 + r_k * (rho - 1.0)))
    k_eq = k_pre / rho * (1.0 + r_k * (rho - 1.0))
    if variant == "modified_aashto":
        zeta = zeta * np.power(r_d, 0.58) / (6.0 - 10.0 * r_k)
        k_eq = k_eq * (1.0 - 0.737 * (r_d - 1.0) / r_d**2) ** (-2.0)
    return zeta, k_eq


# ---------------------------------------------------------------------------
# coupled isolated system (batched over candidate models)

def _check_keys(what: str, given, keys) -> None:
    """Refuse a name of ``given`` that is not one of ``keys``, or a key it lacks,
    naming the first such name in sorted order."""
    odd = sorted(set(given).symmetric_difference(keys))
    if odd:
        verb = "does not take" if odd[0] in given else "needs"
        raise ValueError(f"{what} {verb} {odd[0]!r}; its keys are {', '.join(keys)}")


class IsolatedSystem:
    """Shear building on an isolation layer, batched over candidate models.

    Isolator parameters, the names ``PARAMETERS`` lists for each variant:
    k_post in MN/m, c_b in kN.s/m, Q_y as a percentage of the structure
    weight W and the Bouc-Wen exponent n_pow (nonlinear variants; n_pow
    takes its ``DEFAULTS`` value when not given), r_d the shear ductility
    ratio (linear variants).  Any other name, or a missing one, is refused.
    k_pre = k_post / r_k; yield displacement x_y = Q_y / k_pre.

    State layout per model: [X_s (ns), x_b, V_s (ns), v_b] plus a trailing
    z for hysteretic variants.  All isolator parameter arrays broadcast over
    the batch.  Output is the base absolute acceleration [m/s^2].

    The state rate is ``A x + B a_g`` with one operator ``A`` for the whole
    batch (superstructure on the base mass), minus each model's isolator
    force on the base row, plus the Bouc-Wen rate of z.  Every batch is a
    device system (see ``integrate_rk4``), models last (state shape
    (n_states, n_models)), whose one device is the isolator: it contracts
    the per-model rows ``iso_rows`` with the state rows it reads and writes
    the isolator force per unit base mass, which leaves the v_b rate.  A
    hysteretic isolator reads [x_b; v_b; z] with ``iso_rows`` = [k_iso;
    c_iso; q_iso] and also writes the Bouc-Wen rate, which is the z rate;
    an equivalent-linear one reads [x_b; v_b] with ``iso_rows`` = [k_eq;
    c_eq] / m_b.  The output is k_1[v_b] + a_g.  A batch accepts one input
    per model (a per-model excitation).
    """

    channel_names = ("base_abs_accel",)
    # the isolator parameters each variant takes, in order, and those it may leave out
    PARAMETERS = {**dict.fromkeys(NONLINEAR_VARIANTS, ("k_post", "c_b", "r_k", "Q_y", "n_pow")),
                  **dict.fromkeys(LINEAR_VARIANTS, ("k_post", "c_b", "r_k", "r_d"))}
    DEFAULTS = {"boucwen": {"n_pow": 1.0}, "bilinear": {"n_pow": 100.0}}
    # the per-model rows of a hysteretic batch, concatenated by ``_stacked``;
    # a linear batch has only the first
    _PER_MODEL = ("iso_rows", "bw_a", "n_pow_less_one")

    def __init__(self, building: ShearBuildingModel, variant: str, **params):
        if variant not in self.PARAMETERS:
            raise ValueError(f"unknown isolator variant {variant!r}")
        params = {**self.DEFAULTS.get(variant, {}), **params}
        _check_keys(f"isolator variant {variant!r}", params, self.PARAMETERS[variant])
        self.building = building
        self.variant = variant
        self.nonlinear = variant in NONLINEAR_VARIANTS
        n = building.n_stories + 1                       # degrees of freedom
        self.n_states = 2 * n + (1 if self.nonlinear else 0)
        self._xb = n - 1                                 # state index of x_b
        self._vb = 2 * n - 1                             # state index of v_b
        m_b = MG * building.base_mass
        self._A = self.shared_operator(building, self.n_states)
        self._B = np.zeros(self.n_states)
        self._B[n:2 * n] = -1.0

        per_model = {key: np.atleast_1d(np.asarray(params[key], dtype=float))
                     for key in self.PARAMETERS[variant]}
        try:
            shape = np.broadcast_shapes(*(value.shape for value in per_model.values()))
        except ValueError:
            shapes = ", ".join(f"{key} {value.shape}" for key, value in per_model.items())
            raise ValueError(f"isolator parameters do not broadcast to one batch: {shapes}") from None
        p = {key: np.broadcast_to(value, shape) for key, value in per_model.items()}
        for key, value in p.items():   # NaN passes every bound below
            if not np.isfinite(value).all():
                raise ValueError(f"{key} must be a finite number")
        if np.any((p["r_k"] <= 0.0) | (p["r_k"] >= 1.0)):
            raise ValueError("r_k must lie in (0, 1)")
        if np.any(p["k_post"] <= 0.0):
            raise ValueError(f"k_post must be > 0, got {p['k_post'].min():g} MN/m")
        if np.any(p["c_b"] < 0.0):
            raise ValueError(f"c_b must be >= 0, got {p['c_b'].min():g} kN.s/m")
        self.n_models = int(shape[0])
        k_pre_si = p["k_post"] * MN_PER_M / p["r_k"]

        # isolator force on the base per unit base mass, per model:
        # k_iso x_b + c_iso v_b, plus q_iso z for the hysteretic variants
        if self.nonlinear:
            if np.any(p["Q_y"] <= 0.0):
                raise ValueError("Q_y must be > 0")
            Qy_si = p["Q_y"] / 100.0 * building.weight    # N
            self.iso_rows = np.stack([p["k_post"] * MN_PER_M, p["c_b"] * KN,
                                      Qy_si * (1.0 - p["r_k"])]) / m_b
            self.bw_a = k_pre_si / Qy_si             # 1/m
            self.n_pow_less_one = _checked_n_pow(p["n_pow"]) - 1.0
        else:
            zeta_eq, k_eq = equivalent_linear_params(variant, p["r_k"], p["r_d"], k_pre_si)
            # c_eq = 2 zeta_eq sqrt(k_eq m) with m the total isolated mass
            with np.errstate(over="ignore"):
                c_eq = p["c_b"] * KN + 2.0 * zeta_eq * np.sqrt(k_eq * building.total_mass)
            if not np.isfinite(c_eq).all():
                raise ValueError(f"{variant} damping overflows at {building.total_mass:g} kg of mass")
            self.iso_rows = np.stack([k_eq, c_eq]) / m_b
        # the isolator device reads [x_b; v_b] (and z) and writes the force,
        # which leaves the v_b rate (and the Bouc-Wen rate, which is the z rate)
        self.device_reads = np.array([self._xb, self._vb, self.n_states - 1][:2 + self.nonlinear])
        self._E = np.zeros((self.n_states, 1 + self.nonlinear))
        self._E[self._vb, 0], self._E[-1, 1:] = -1.0, 1.0
        self.output_rows, self.feedthrough = np.array([self._vb]), np.ones(1)

    @staticmethod
    def shared_operator(building: ShearBuildingModel, n_states: int | None = None) -> np.ndarray:
        """The ``A`` of every batch on ``building``: the superstructure on the base mass
        over [X_s, x_b, V_s, v_b], zero-padded to ``n_states`` (a hysteretic batch's z)."""
        n = building.n_stories + 1
        # M q'' + C q' + K q = -M 1 a_g - f_iso e_b for q = [X_s, x_b], with
        # M = diag(m_s, m_b), K = T^T K_s T, C = T^T C_s T and T = [I | -1]
        T = np.hstack([np.eye(n - 1), -np.ones((n - 1, 1))])
        masses = MG * np.append(building.story_masses, building.base_mass)
        A = np.zeros((n_states or 2 * n,) * 2)
        A[:n, n:2 * n] = np.eye(n)
        A[n:2 * n, :n] = -(T.T @ building.stiffness_matrix() @ T) / masses[:, None]
        A[n:2 * n, n:2 * n] = -(T.T @ building.damping_matrix() @ T) / masses[:, None]
        return A

    def initial_state(self) -> np.ndarray:
        return np.zeros((self.n_states, self.n_models))

    def device_kernels(self, rows, outs) -> list:
        """The isolator bound to the [x_b; v_b] (and z) ``rows``: per device output
        ``out`` of ``outs`` a kernel that writes the isolator force per unit base mass
        (``iso_rows`` contracted with the rows) into out[0], and the Bouc-Wen rate into
        out[1]."""
        iso_rows = self.iso_rows
        rates = (_boucwen_kernels(self.bw_a, self.n_pow_less_one,
                                  [(rows[1:], out[1]) for out in outs])
                 if self.nonlinear else [None] * len(outs))

        def bind(force, rate):
            def kernel():
                np.einsum("ij,ij->j", iso_rows, rows, out=force)
                if rate is not None:
                    rate()
            return kernel

        return [bind(out[0], rate) for out, rate in zip(outs, rates)]


# ---------------------------------------------------------------------------
# fixed-step RK4 with zero-order-hold excitation

def integrate_rk4(system, record: ExcitationRecord, dt_int: float | None = None,
                  columns=None) -> np.ndarray:
    """Integrate ``system`` under the excitation ``record`` and collect its outputs.

    The excitation is held constant over integrator substeps within each
    record interval (zero-order hold).  Outputs are sampled at the record
    dt, at times 0, dt, ..., (n-1) dt.  Returns an array of shape
    (n_models, n_samples * n_channels) with channels interleaved time-major.

    Every system (each ``IsolatedSystem`` batch and ``TmdFrameSystem``) gives
    ``n_models``; ``initial_state()`` of shape (n_states, n_models), models
    last; ``_A``, ``_B`` and ``_E``, shared by the batch; ``device_reads``,
    the state rows its devices read, and ``device_kernels(rows, outs)``: for
    the buffer ``rows`` (one row per device read) and a list ``outs`` of
    output buffers (one row per column of ``_E``), a list of kernels, one per
    out, each a call of no arguments that writes the per-model device outputs
    at what ``rows`` holds when it runs into its out, in place.  So the rate
    is ``A x + B u + E o``, o the device outputs at ``x[device_reads]``.
    ``_device_step`` binds once per call and runs a kernel after each stage
    projection; a system may bind scratch of its own to the kernels of one
    call, which run one at a time.  Last, ``output_rows`` and
    ``feedthrough``: its outputs are the rate rows ``output_rows`` of the
    first RK4 stage plus ``feedthrough`` times the input.  A system may have
    no devices (``_E`` of 0 columns, ``device_reads`` empty).  It also
    declares ``nonlinear``: True when its devices are not linear in the rows
    they read, so ``_device_step`` advances it with the linear part of the
    four stages precomputed; False when they are (or it has none), so
    ``_block_map`` solves the record in blocks of the RK4 map per model
    probed from ``_device_step``.

    Both steppers take the excitation in one layout: samples of shape
    (n_steps, n_columns) and ``columns``, one column index per model, so
    model m is driven by column ``columns[m]``.  A 1-d record is one column
    that every model reads (``columns`` must then be None); a 2-d record
    must come with ``columns``.

    The solve stops with ``SimulationDivergedError`` naming the models whose
    state is non-finite or beyond ``_STATE_GUARD`` after a record step, at
    the first such step.
    """
    dt = record.dt
    n_sub = substeps_per_sample(dt, dt_int)
    h = dt / n_sub
    samples, n_models = record.samples, system.n_models
    if columns is None:
        if samples.ndim == 2:
            raise ValueError(f"a 2-d excitation needs columns, one column index per model "
                             f"({n_models})")
        samples, columns = samples[:, None], np.zeros(n_models, dtype=int)
    else:
        columns = np.asarray(columns)
        if (samples.ndim != 2 or columns.shape != (n_models,)
                or columns.dtype.kind not in "iu"):
            raise ValueError(f"columns must be one integer per model ({n_models}) of "
                             f"a 2-d excitation")
        if columns.min() < 0 or columns.max() >= samples.shape[1]:
            raise ValueError(f"columns must index the excitation's {samples.shape[1]} columns")
    n_steps = record.n_steps
    outputs = np.empty((n_models, n_steps * system.output_rows.size))
    # a diverging model overflows before the guard names it
    with np.errstate(over="ignore", invalid="ignore"):
        if _stepper(system) is _device_step:
            _march(_device_step(system, h, n_sub), samples, columns, dt,
                   outputs.reshape(n_models, n_steps, -1))
        else:
            _block_map(system, h, n_sub, samples, columns, dt, outputs)
    return outputs


def _march(step, samples, columns, dt: float, outputs=None, first: int = 0) -> None:
    """Advance ``step`` once per row k of ``samples``, model m under the input
    ``samples[k, columns[m]]``, its outputs into ``outputs[:, k]`` (or nowhere when
    ``outputs`` is None), under the per-step divergence guard.

    One whole-state test per record step finds that some model's state is
    non-finite or beyond ``_STATE_GUARD``, and only then are the models, the
    step's state rows, named.  ``first`` is the record step of the first row.
    """
    for k, row in enumerate(samples):
        y, state = step(row.take(columns))
        if outputs is not None:
            outputs[:, k] = y
        # max propagates NaN, so a NaN state fails the test as an overflow does
        if not np.abs(state).max() <= _STATE_GUARD:
            bad = np.nonzero(~(np.abs(state).max(axis=1) <= _STATE_GUARD))[0]
            raise SimulationDivergedError((first + k + 1) * dt, bad)


def simulate_classes(systems: dict, records: dict, dt_int: float | None = None,
                     batches: dict | None = None) -> dict:
    """Outputs of each class's batch on each record: ``{label: {class_id: h}}``.

    ``systems`` maps a class id to its ``IsolatedSystem`` batch and
    ``records`` an input label to its record.  The equivalent-linear classes
    run as one stacked batch for all records of equal dt and length, and so
    do the hysteretic ones, the records as input columns and one column
    index per model, so each RK4 substep of a batch advances every model of
    its kind on every such record; each class and record gets its rows
    back.  The two kinds do not share a batch: a linear model in the
    hysteretic state layout would carry a z row and a Bouc-Wen rate it does
    not need.  A batch stops at the first record step at which some model
    leaves the guard, and the divergence names the first block, in the
    batch's (class id, input) order, with a model that left it at that step:
    its class, that class's own indices of its models that did, and, unless
    its label is None, its record.  So when blocks of several classes and
    inputs diverge at one step, it names the first of their class ids in
    sorted order, on the first of that class's diverging inputs.
    ``batches``, when given, gains the work of each batch under its
    ``variant``: ``{"stepper", "models", "model_steps", "seconds"}``, its
    stepper, rows, rows x record steps and wall seconds; batches of one
    variant on records of different lengths add up.

    A stacked batch holds its (class id, label) blocks in sorted order, so
    the order of ``systems`` and ``records`` moves no bit: the matrix
    products round the models of their last, partial block of columns
    differently from the rest.  Class first keeps each class's rows in one
    span over all inputs, so a hysteretic batch takes the Bouc-Wen power
    over the span of its n != 1 classes only (``_boucwen_kernels``).
    """
    groups = {}
    for label, record in records.items():
        groups.setdefault((record.dt, record.n_steps), []).append(label)
    kinds = [[cid for cid in sorted(systems) if systems[cid].nonlinear == nonlinear]
             for nonlinear in (False, True)]
    runs = []   # (batch, record, its columns, its rows as (label, class_id, system) blocks)
    for labels in groups.values():
        labels.sort(key=str)   # the calibration record's label is None
        for stack in filter(None, kinds):
            blocks = [(label, cid, systems[cid]) for cid in stack for label in labels]
            columns = np.repeat([labels.index(label) for label, _, _ in blocks],
                                [system.n_models for _, _, system in blocks])
            record = ExcitationRecord(records[labels[0]].dt, np.column_stack(
                [records[label].samples for label in labels]))
            runs.append((_stacked([system for _, _, system in blocks]), record, columns, blocks))
    outputs = {label: {} for label in records}
    for batch, record, columns, blocks in runs:
        bounds = np.cumsum([0] + [system.n_models for _, _, system in blocks])
        t0 = time.perf_counter()
        try:
            h = integrate_rk4(batch, record, dt_int=dt_int, columns=columns)
        except SimulationDivergedError as err:
            at = int(np.searchsorted(bounds, err.indices[0], side="right")) - 1
            local = [i - bounds[at] for i in err.indices if bounds[at] <= i < bounds[at + 1]]
            label, cid, _ = blocks[at]
            raise SimulationDivergedError(err.time, local, cid, label) from None
        if batches is not None:
            work = batches.setdefault(batch.variant,
                                      {"models": 0, "model_steps": 0, "seconds": 0.0})
            work["stepper"] = _stepper(batch).__name__.strip("_")
            work["models"] += batch.n_models
            work["model_steps"] += batch.n_models * record.n_steps
            work["seconds"] += time.perf_counter() - t0
        for (label, cid, _), lo, hi in zip(blocks, bounds, bounds[1:]):
            outputs[label][cid] = h[lo:hi]
    return outputs


def _stacked(systems: list) -> IsolatedSystem:
    """One batch of ``systems`` of one kind, linear or hysteretic, on one building,
    their rows in order.

    Such systems share the operator and the state layout and differ only in
    the per-model rows, so the batch integrates each model exactly as its own
    system does, with one evaluation of each rate per stage for all of them.
    """
    first = systems[0]
    if any(system.building != first.building for system in systems):
        raise ValueError("cannot stack systems on different buildings")
    batch = copy.copy(first)
    batch.variant = "+".join(dict.fromkeys(system.variant for system in systems))
    for name in IsolatedSystem._PER_MODEL if first.nonlinear else ("iso_rows",):
        setattr(batch, name, np.concatenate([getattr(system, name) for system in systems],
                                            axis=-1))
    batch.n_models = batch.iso_rows.shape[1]
    return batch


def substeps_per_sample(dt: float, dt_int: float | None = None) -> int:
    """RK4 substeps per record interval ``dt`` at step ``dt_int`` (default dt / 10).

    Refuses a ``dt_int`` that exceeds ``dt`` or does not split it into whole
    substeps, both within 1e-6 relative.
    """
    if dt_int is None:
        dt_int = dt / 10.0
    if not dt_int > 0.0:
        raise ValueError("dt_int must be > 0")
    ratio = dt / dt_int
    n_sub = round(ratio)
    if ratio < 1.0 - 1e-6:
        raise ValueError(f"dt_int = {dt_int:g} s exceeds the sampling interval dt = {dt:g} s")
    if abs(ratio - n_sub) > 1e-6 * ratio:
        raise ValueError(f"dt_int = {dt_int:g} s does not divide the sampling interval "
                         f"dt = {dt:g} s")
    return n_sub


def _stepper(system):
    """How ``integrate_rk4`` solves ``system``: ``_block_map`` when its devices are
    linear, else record step by record step with ``_device_step``."""
    return _device_step if system.nonlinear else _block_map


def _device_step(system, h: float, n_sub: int, x0=None):
    """The record step of a system: RK4 with its linear part precomputed.

    Stage i of an RK4 substep has the rate k_i = A Y_i + B u + E o_i, where
    o_i are the device outputs at the stage state Y_i, the only terms that
    differ per model.  Each Y_i, the new state and the outputs k_1[output_rows] +
    feedthrough u are therefore fixed linear maps of the extended state
    W = [x; u; o_1; ...; o_4], built here once from A, B, E and h (Butcher;
    Hairer & Wanner).  A substep projects the rows the devices read of each
    stage out of W into one buffer (stage 1's map is the identity, so its
    rows are taken, not multiplied), runs the stage's kernel, which writes
    o_i from that buffer straight into its rows of W, and applies one
    (n_states x n_W) product to advance x; the arithmetic is that of RK4 on
    the rate A x + B u + E o, regrouped, so the two agree to round-off.
    Every buffer, and every view of one that a stage reads or writes, is
    made here, once, for both W buffers, and the devices are bound to them
    here (``device_kernels``), so a stage allocates and slices nothing that
    its kernel does not.  Returns
    ``step(u)``, which advances the state by one record interval under the
    held input ``u`` and returns the outputs at its start, of shape
    (n_models, n_channels), and the new state as a models-first view, both
    overwritten by the next call.  The state starts at ``x0``, of shape
    (n_states, n_models) or broadcast to it, or at ``initial_state()`` when
    ``x0`` is None.
    """
    A, B, E = system._A, system._B, system._E
    n, d = E.shape
    width = n + 1 + 4 * d                      # W = [x; u; o_1; ...; o_4]
    identity = np.eye(n, width)                # x as a map of W

    def rate(stage_map, i):
        """k_i as a map of W, given the map of the stage state Y_i."""
        k = A @ stage_map
        k[:, n] += B
        k[:, n + 1 + d * i:n + 1 + d * (i + 1)] += E
        return k

    stage_maps = [identity]
    rates = [rate(identity, 0)]
    for i, fraction in ((1, 0.5), (2, 0.5), (3, 1.0)):
        stage_maps.append(identity + fraction * h * rates[-1])
        rates.append(rate(stage_maps[-1], i))
    k1, k2, k3, k4 = rates
    advance = identity + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    # stage i depends on o_j for j < i only: the rows its devices read over
    # the first n + 1 + d i columns of W, and where its o_i goes in W
    reads = system.device_reads
    stages = [(None if i == 0 else stage_map[reads, :n + 1 + d * i], n + 1 + d * i)
              for i, stage_map in enumerate(stage_maps)]
    output_map = k1[system.output_rows, :n + 1 + d].copy()
    output_map[:, n] += system.feedthrough

    buffers = (np.zeros((width, system.n_models)), np.zeros((width, system.n_models)))
    buffers[0][:n] = system.initial_state() if x0 is None else x0
    stage_rows = np.empty((reads.size, system.n_models))   # the rows the devices read
    # the devices bound to those rows and to the o_i rows of each stage of each W
    kernels = system.device_kernels(stage_rows, [W[o:o + d] for W in buffers for _, o in stages])
    y = np.empty((output_map.shape[0], system.n_models))

    def substep_views(W, spare, kernels):
        """A substep from ``W`` into ``spare``: per stage its projection, the rows
        of W it reads and its devices' kernel, which writes its o_i; the rows the
        output reads, the full W and where the new x goes."""
        per_stage = [(projection, W if projection is None else W[:o], kernel)
                     for (projection, o), kernel in zip(stages, kernels)]
        return per_stage, W[:n + 1 + d], W, spare[:n]

    views = (substep_views(*buffers, kernels[:4]), substep_views(*buffers[::-1], kernels[4:]))
    states = tuple(W[:n].T for W in buffers)
    inputs = tuple(W[n] for W in buffers)
    current = 0

    def step(u):
        nonlocal current
        inputs[0][...] = inputs[1][...] = u
        for j in range(n_sub):
            per_stage, head, W, next_x = views[current]
            for projection, known, kernel in per_stage:
                if projection is None:
                    known.take(reads, axis=0, out=stage_rows, mode="clip")
                else:
                    np.matmul(projection, known, out=stage_rows)
                kernel()
            if j == 0:
                np.matmul(output_map, head, out=y)
            np.matmul(advance, W, out=next_x)
            current ^= 1
        return y.T, states[current]

    return step


def _record_map(system, h: float, n_sub: int) -> np.ndarray:
    """The RK4 map of one record interval of a system whose devices are linear.

    With linear devices, one record interval of ``_device_step`` under the
    held input is linear in the state and the input, so per model m it is
    [x_{k+1}; y_k] = G_m [x_k; u_k], returned as G of shape (n_states +
    n_channels, n_states + 1, n_models).  G is probed from ``_device_step``
    itself: one record step from each unit state e_j with u = 0 gives column
    j, and one from x = 0 with u = 1 the last.  RK4 is thus written once, and
    the outputs move from the device stepper's by round-off only; G is not
    the exact zero-order-hold propagator, which would move them by RK4's
    truncation error.  Each of the n_states + 1 probes binds the devices once
    (``device_kernels``) and runs their kernels 4 n_sub times; after the
    probes only the replay of a flagged block (``_block_map``) runs them.
    """
    n = system._A.shape[0]
    columns = []
    for start in np.eye(n + 1):                 # [x; u] = e_j, column j of G
        y, state = _device_step(system, h, n_sub, x0=start[:n, None])(start[n])
        columns.append(np.vstack([state.T, y.T]))
    return np.stack(columns, axis=1)


def _lifted(G: np.ndarray, L: int):
    """The map of L record steps of each model of the record map ``G`` (see
    ``_record_map``), and the constants of its divergence bound.

    With [Phi Gamma; C D] the record map of a model, L steps from the state
    x_K under the held inputs u_K .. u_{K+L-1} are one linear map (lifting;
    Bamieh, Pearson, Francis & Tannenbaum 1991):

        x_{K+L} = Phi^L x_K + sum_{j<L} Phi^(L-1-j) Gamma u_{K+j}
        y_{K+i} = C Phi^i x_K + D u_{K+i} + sum_{j<i} C Phi^(i-1-j) Gamma u_{K+j}

    Returns ``state_map`` (L, n_models, n_states), the terms of x_{K+L} per
    input u_{K+j}; ``out_map`` (n_models, L + n_states, L n_channels), which
    maps [u_K .. u_{K+L-1}, x_K] to y_K .. y_{K+L-1}, channels interleaved;
    Phi^L (n_states, n_states, n_models), models last; and a and b, one per
    model, with |x_{K+i}| <= a |x_K| + b max|u| for 1 <= i <= L (infinity
    norms): a = max over 1 <= i <= L of |Phi^i|, from the powers themselves,
    and b = sum_{j<L} |Phi^j Gamma|.
    """
    n, n_models = G.shape[1] - 1, G.shape[2]
    c = G.shape[0] - n
    # models first: phi (m, n, n), gamma (m, n), C (m, c, n), D (m, c)
    first = np.ascontiguousarray(G.transpose(2, 0, 1))
    phi, gamma, C, D = first[:, :n, :n], first[:, :n, n], first[:, n:, :n], first[:, n:, n]
    state_map = np.empty((L, n_models, n))
    out_map = np.zeros((n_models, L + n, L * c))
    power, forced, readout = phi, gamma, C      # Phi^(i+1), Phi^i Gamma and C Phi^i
    row_sums = np.zeros((n_models, n))          # of |Phi^i|, the largest over i
    for i in range(L):
        np.maximum(row_sums, np.abs(power) @ np.ones(n), out=row_sums)
        state_map[L - 1 - i] = forced
        out_map[:, i, i * c:(i + 1) * c] = D
        markov = np.einsum("mcn,mn->mc", readout, gamma)
        for j in range(L - 1 - i):              # y_{K+j+i+1} from u_{K+j}
            out_map[:, j, (j + i + 1) * c:(j + i + 2) * c] = markov
        out_map[:, L:, i * c:(i + 1) * c] = readout.transpose(0, 2, 1)
        if i < L - 1:
            power, forced = phi @ power, np.einsum("mij,mj->mi", phi, forced)
            readout = readout @ phi
    # a short last axis reduces faster as the first
    a = np.ascontiguousarray(row_sums.T).max(axis=0)
    b = np.ascontiguousarray(np.abs(state_map).transpose(2, 0, 1)).max(axis=0).sum(axis=0)
    return state_map, out_map, power.transpose(1, 2, 0).copy(), a, b


def _block_map(system, h: float, n_sub: int, inputs: np.ndarray, columns: np.ndarray,
               dt: float, outputs: np.ndarray) -> None:
    """Solve a system whose devices are linear over the whole record, in blocks of
    L = ``_BLOCK`` record steps, its outputs into ``outputs`` (n_models, n_steps *
    n_channels).

    Model m is driven by the column ``columns[m]`` of ``inputs`` (n_steps,
    n_columns).  The input terms of each block's end state (``_lifted``) do
    not depend on the state, so for each run of models on one column they
    are one matrix product for a chunk of blocks: the inputs (blocks x L) by
    the run's ``state_map`` (L x models n_states).  A recursion of one step
    per block then gives the block-start states x_K, and one product per
    model and chunk, the rows [u_K .. u_{K+L-1}, x_K] of its blocks by its
    ``out_map``, writes its outputs straight into ``outputs``.  Chunks hold
    about ``_CHUNK_BYTES`` of those rows.  Outputs move from the per-step
    map's by round-off only.

    A block whose bound a |x_K| + b max|u| may reach ``_STATE_GUARD`` for
    some model, or is not finite, is replayed for the whole batch from its
    block-start states, one record step at a time on ``_device_step``, the
    stepper G was probed from, under the per-step guard of ``_march``: a
    divergence is named at the step, and for the models, that the device
    stepper names.  A replay that does not diverge changes nothing.
    """
    G = _record_map(system, h, n_sub)
    L, n, n_models, n_steps = _BLOCK, G.shape[1] - 1, G.shape[2], inputs.shape[0]
    c = G.shape[0] - n
    state_map, out_map, phi_L, a, b = _lifted(G, L)
    blocks, full = -(-n_steps // L), n_steps // L
    padded = np.zeros((inputs.shape[1], blocks * L))   # each column's inputs by block
    padded[:, :n_steps] = inputs.T
    padded = padded.reshape(inputs.shape[1], blocks, L)
    u_max = np.abs(padded).max(axis=2).T        # (blocks, columns)
    edges = np.flatnonzero(np.diff(columns)) + 1
    runs = [(lo, hi, columns[lo]) for lo, hi in zip([0, *edges], [*edges, n_models])]
    per_chunk = max(1, min(blocks, _CHUNK_BYTES // (8 * n_models * (L + n))))
    chunks = [(k, min(k + per_chunk, full), L) for k in range(0, full, per_chunk)]
    if n_steps % L:                             # a last, short block
        chunks.append((full, full + 1, n_steps % L))
    terms = np.empty((per_chunk, n_models, n))  # the input terms of x_{K+L}
    states = np.empty((per_chunk + 1, n, n_models))   # x_K, models last
    rows = np.empty((n_models, per_chunk, L + n))      # [u_K .. u_{K+L-1}, x_K]
    states[0] = system.initial_state()
    limit = _STATE_GUARD * (1.0 - 1e-9)         # room for the per-step map's round-off
    for b0, b1, w in chunks:
        count = b1 - b0
        for lo, hi, column in runs:
            np.matmul(padded[column, b0:b1], state_map[:, lo:hi].reshape(L, -1),
                      out=terms[:count, lo:hi].reshape(count, -1, copy=False))
            rows[lo:hi, :count, :L] = padded[column, b0:b1]
        for k in range(count):
            np.einsum("ijm,jm->im", phi_L, states[k], out=states[k + 1])
            states[k + 1] += terms[k].T
        bound = a * np.abs(states[:count]).max(axis=1) + b * u_max[b0:b1, columns]
        for k in np.flatnonzero(~(bound < limit).all(axis=1)):
            step = (b0 + k) * L
            _march(_device_step(system, h, n_sub, x0=states[k]), inputs[step:step + w],
                   columns, dt, first=step)
        rows[:, :count, L:] = states[:count].transpose(2, 0, 1)
        y = outputs[:, b0 * L * c:(b0 * L + count * w) * c]
        np.matmul(rows[:, :count], out_map[:, :, :w * c],
                  out=y.reshape(n_models, count, w * c, copy=False))
        states[0] = states[count]


def simulate(system, excitation: ExcitationRecord, dt_int: float | None = None) -> MeasurementSet:
    """Simulate a single-model system and return its stacked output series."""
    if system.n_models != 1:
        raise ValueError("simulate() expects a batch of one model; use integrate_rk4")
    h = integrate_rk4(system, excitation, dt_int=dt_int)
    return MeasurementSet(d=h[0], dt=excitation.dt, channel_names=system.channel_names)


def add_measurement_noise(clean: MeasurementSet, noise_fraction: float,
                          rng: np.random.Generator) -> MeasurementSet:
    """Add i.i.d. zero-mean Gaussian noise, per channel, scaled to the channel std."""
    if noise_fraction < 0.0:
        raise ValueError("noise_fraction must be >= 0")
    per_channel = clean.by_channel()
    stds = per_channel.std(axis=0)
    noise = rng.standard_normal(per_channel.shape) * (noise_fraction * stds)
    return replace(clean, d=(per_channel + noise).reshape(-1))


# ---------------------------------------------------------------------------
# TMD-equipped frame (reduced-scale wind example)

def tmd_force(law: str, du, u=0.0, *, c1=0.0, c3=0.0, q_y=0.0, k_post=0.0,
              z=0.0, power_coef=0.0, power_lin=0.0):
    """Damping-device force [N] for SI inputs; broadcasts over the batch.

    ``q_y``, ``k_post``, ``z`` only apply to the hysteretic law, whose state
    z must be integrated alongside the structural state.
    """
    du = np.asarray(du, dtype=float)
    if law == "linear":
        return c1 * du
    if law == "cubic":
        return c3 * du**3 + c1 * du
    if law == "boucwen":
        return q_y * np.asarray(z, dtype=float) + k_post * np.asarray(u, dtype=float)
    if law == "power_law_truth":
        return power_coef * np.abs(du) ** 0.8 * np.sign(du) + power_lin * du
    raise ValueError(f"unknown TMD damping law {law!r}")


@dataclass(frozen=True)
class TmdFrameModel:
    """Reduced planar-pair frame: one shear chain per horizontal direction.

    Each chain has ``n_stories`` equal lumped masses; story stiffness is
    chosen so the fixed-base fundamental frequency matches the target.
    One TMD rides the x roof, two the y roof, spring-tuned to the chain's
    fundamental mode.  Wind is a single scalar force record shaped over
    height as (h_i / h_roof)**0.3 and split between directions by the
    attack angle.
    """

    n_stories: int = 20
    story_mass: float = 1000.0          # Mg
    f1_x: float = 0.5893                # Hz
    f1_y: float = 0.5718                # Hz
    tmd_mass_fraction_x: float = 0.011
    tmd_mass_fraction_y: float = 0.0055
    damping_ratio: float = 0.02
    wind_angle_deg: float = 30.0

    def chain_stiffness(self, f1: float) -> float:
        """Uniform story stiffness [MN/m] putting the chain's first mode at f1 [Hz]."""
        n = self.n_stories
        # first eigenvalue of the uniform chain: 4 sin^2(pi / (2 (2n+1))) * k/m
        factor = 4.0 * np.sin(np.pi / (2.0 * (2 * n + 1))) ** 2
        omega1 = 2.0 * np.pi * f1
        k_si = omega1**2 * (self.story_mass * MG) / factor
        return k_si / MN_PER_M

    def chain(self, direction: str) -> ShearBuildingModel:
        f1 = self.f1_x if direction == "x" else self.f1_y
        k = self.chain_stiffness(f1)
        return ShearBuildingModel(
            story_masses=(self.story_mass,) * self.n_stories,
            story_stiffnesses=(k,) * self.n_stories,
            base_mass=1.0,  # unused: chains are fixed-base here
            damping_ratio=self.damping_ratio,
        )


class TmdFrameSystem:
    """Wind-excited planar-pair frame with three TMDs, batched over models.

    The excitation record carries the scalar wind force [N]; each chain
    receives its directional component distributed over height.  Outputs are
    the x and y roof absolute accelerations, interleaved.

    A device system (see ``integrate_rk4``), models last.  Per chain the
    state is [X_s, U, V_s, dU] plus one z per hysteretic TMD, with U the TMD
    motion relative to the roof.  ``A`` holds the stories and the TMD
    springs, ``B`` the wind shape, and each TMD is a device: it reads its U,
    dU (and z) rows and writes its law's force (and its Bouc-Wen z rate).
    The frame is ``nonlinear`` unless both laws are ``"linear"``.
    """

    channel_names = ("roof_accel_x", "roof_accel_y")
    # the parameters of each law, the damping laws' force coefficients in kN units
    _LAW_KEYS = {"linear": ("c1",), "cubic": ("c1", "c3"), "boucwen": ("r_k", "Q_y", "k_pre"),
                 "power_law_truth": ("power_coef", "power_lin")}

    def __init__(self, frame: TmdFrameModel, law_x: str, law_y: str, *,
                 params_x: dict, params_y: dict, n_models: int = 1):
        self.frame = frame
        self.laws = (law_x, law_y)
        self.nonlinear = self.laws != ("linear", "linear")
        self.n_models = n_models
        ns = frame.n_stories
        theta = np.deg2rad(frame.wind_angle_deg)
        # per chain: stories + TMDs (disp, vel), then one z per hysteretic TMD
        n_tmd = {"x": 1, "y": 2}
        n_z = {d: n_tmd[d] if law == "boucwen" else 0 for d, law in zip("xy", self.laws)}
        self.n_states = n = sum(2 * (ns + n_tmd[d]) + n_z[d] for d in "xy")
        self._A, self._B = np.zeros((n, n)), np.zeros(n)
        self._E = np.zeros((n, sum(n_tmd[d] + n_z[d] for d in "xy")))
        reads, roofs, self._devices = [], [], []
        x = col = 0   # the chain's first state row and its first device output
        for direction, law, raw, wind in (("x", law_x, params_x, np.cos(theta)),
                                          ("y", law_y, params_y, np.sin(theta))):
            chain = frame.chain(direction)
            frac = frame.tmd_mass_fraction_x if direction == "x" else frame.tmd_mass_fraction_y
            m_tmd = frac * chain.n_stories * frame.story_mass * MG
            omega1 = chain.fixed_base_frequencies()[0]
            mu = m_tmd / (MG * sum(chain.story_masses))
            omega_t = omega1 / (1.0 + mu)        # classic frequency tuning
            k_tmd = m_tmd * omega_t**2
            masses = np.asarray(chain.story_masses) * MG
            k, nz = n_tmd[direction], n_z[direction]
            v, z = x + ns + k, x + 2 * (ns + k)  # the chain's first velocity and z rows
            tmds, roof = np.arange(ns, ns + k), v + ns - 1
            self._A[x:v, v:z] = np.eye(ns + k)
            self._A[v:v + ns, x:x + ns] = -chain.stiffness_matrix() / masses[:, None]
            self._A[v:v + ns, v:v + ns] = -chain.damping_matrix() / masses[:, None]
            self._A[roof, x + tmds] = k_tmd / masses[-1]   # the TMD springs pull on the roof
            self._B[v:v + ns] = wind * (np.arange(1, ns + 1) / ns) ** 0.3 / masses
            forces = np.arange(col, col + k)
            self._E[roof, forces] = 1.0 / masses[-1]        # and so do the device forces
            # m_tmd (u_ddot + roof_ddot) = -k u - f_dev  =>  u relative to the roof
            self._A[v + tmds] = -self._A[roof]
            self._A[v + tmds, x + tmds] -= k_tmd / m_tmd
            self._B[v + tmds] = -self._B[roof]
            self._E[v + tmds] = -self._E[roof]
            self._E[v + tmds, forces] -= 1.0 / m_tmd
            self._E[z + np.arange(nz), col + k + np.arange(nz)] = 1.0
            force_kw, bw_a = self._si_params(direction, law, raw, m_tmd, n_models)
            for i in range(k):
                # TMD i reads [U; dU] (and z), so a hysteretic one's [dU; z] rows are
                # adjacent, at read row r; it writes its force into output col + i (and
                # its z rate into col + k + i)
                r = sum(len(rows) for rows in reads)
                reads.append([x + ns + i, v + ns + i, z + i][:2 + (nz > 0)])
                self._devices.append((law, force_kw, bw_a, r, col + i, col + k + i))
            roofs.append(roof)
            x, col = z + nz, col + k + nz
        self.device_reads = np.concatenate(reads)
        self.output_rows, self.feedthrough = np.array(roofs), np.zeros(2)

    @classmethod
    def _si_params(cls, direction: str, law: str, raw: dict, m_tmd: float, n_models: int):
        """The ``tmd_force`` keywords of a law in SI and the Bouc-Wen ``a`` of a
        hysteretic one (else None), batch arrays passed through.  Refuses an unknown law,
        a key the law does not take or lacks, and an array not one value or one per model."""
        if law not in cls._LAW_KEYS:
            raise ValueError(f"{direction} TMD: unknown damping law {law!r}; "
                             f"the laws are {', '.join(cls._LAW_KEYS)}")
        keys = cls._LAW_KEYS[law]
        _check_keys(f"{direction} TMD: law {law!r}", raw, keys)
        p = {key: np.asarray(raw[key], dtype=float) for key in keys}
        for key, value in p.items():
            if value.ndim > 1 or value.size not in (1, n_models):
                raise ValueError(f"{direction} TMD: {key} has shape {value.shape}; give one "
                                 f"value or one per model ({n_models})")
        if law != "boucwen":   # the other laws take force coefficients in kN units
            return {key: value * KN for key, value in p.items()}, None
        k_pre = p["k_pre"] * KN                        # kN/m -> N/m
        Qy_si = p["Q_y"] / 100.0 * m_tmd * GRAVITY     # Q_y in % of the TMD weight
        return {"k_post": p["r_k"] * k_pre, "q_y": Qy_si * (1.0 - p["r_k"])}, k_pre / Qy_si

    def initial_state(self) -> np.ndarray:
        return np.zeros((self.n_states, self.n_models))

    def device_kernels(self, rows, outs) -> list:
        """The TMDs bound to their ``rows``: per device output ``out`` of ``outs`` a
        kernel that writes each TMD's law force, and the z rate of each hysteretic
        one, into out."""
        def bind_force(law, force_kw, u, du, z, force):
            def kernel():
                force[...] = tmd_force(law, du, u, z=z, **force_kw)
            return kernel

        def in_turn(kernels):
            def kernel():
                for each in kernels:
                    each()
            return kernel

        per_device = []
        for law, force_kw, bw_a, r, f, g in self._devices:
            z = 0.0 if bw_a is None else rows[r + 2]
            per_device.append([bind_force(law, force_kw, rows[r], rows[r + 1], z, out[f])
                               for out in outs])
            if bw_a is not None:
                per_device.append(_boucwen_kernels(bw_a, np.zeros(self.n_models),
                                                   [(rows[r + 1:r + 3], out[g]) for out in outs]))
        return [in_turn(kernels) for kernels in zip(*per_device)]


# ---------------------------------------------------------------------------
# synthetic excitation records

def band_limited_record(duration: float, dt: float, *, band=(0.35, 1.5), order: int = 4,
                        seed: int = 0, peak: float | None = None, rms: float | None = None,
                        label: str = "synthetic") -> ExcitationRecord:
    """Band-limited filtered Gaussian white noise record.

    A Butterworth band-pass (default 4th order) applied to unit white noise,
    then scaled to the requested ``peak`` or ``rms``.  Used both for synthetic
    ground motions in the test suite and for the wind process.
    """
    import scipy.signal   # imported here: it is slow to import and only this needs it

    n = int(round(duration / dt))
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(n)
    nyq = 0.5 / dt
    sos = scipy.signal.butter(order, [band[0] / nyq, band[1] / nyq],
                              btype="bandpass", output="sos")
    x = scipy.signal.sosfilt(sos, white)
    # taper the edges so the record starts and ends near rest
    taper = scipy.signal.windows.tukey(n, alpha=0.1)
    x = x * taper
    if peak is not None:
        x = x * (peak / np.max(np.abs(x)))
    elif rms is not None:
        x = x * (rms / np.sqrt(np.mean(x**2)))
    return ExcitationRecord(dt=dt, samples=x, label=label)
