"""Lumped-mass structural models with nonlinear isolation and damping devices.

Everything here works in SI internally (kg, N, m, s); the public
constructors accept the conventional engineering units noted in their
docstrings (Mg, MN/m, kN.s/m, yield force as a percentage of structure
weight).

Simulation is fixed-step explicit RK4 for bit-reproducibility, vectorized
over a batch of candidate models, and all parameter arrays broadcast over the
batch.  ``integrate_rk4`` has two steppers.  A system made of one linear
operator shared by the batch plus a few per-model devices (the hysteretic
isolated building, the TMD frame) keeps its models last (state shape
(n_states, n_models)) and describes itself by A, B, the state rows its
devices read, the rate rows their outputs enter (E) and ``devices``; the
device stepper precomputes the linear part of all four RK4 stages, so a
substep evaluates only the devices of each stage, in place in buffers
allocated once per call, and applies one matrix product.  Any other system
(equivalent-linear isolators) keeps its models first (shape (n_models,
n_states)) and takes four ``rhs`` calls per substep.  The Bouc-Wen rate
(``_boucwen``) is written once, with the one parameter a = 2 beta = 2 gamma
of every device here (Wen 1976): loading and unloading stiffnesses match and
|z| saturates at 1, so no beta, gamma or saturation amplitude is kept.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .falsification import MeasurementSet

__all__ = [
    "ExcitationRecord",
    "SimulationOutput",
    "ShearBuildingModel",
    "IsolatedSystem",
    "TmdFrameModel",
    "TmdFrameSystem",
    "SimulationDivergedError",
    "boucwen_rate",
    "equivalent_linear_params",
    "tmd_force",
    "integrate_rk4",
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

_STATE_GUARD = 1.0e6  # any |state| beyond this is treated as divergence
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
# excitation and output containers

@dataclass(frozen=True)
class ExcitationRecord:
    """Sampled excitation: ground acceleration [m/s^2] or force [N].

    ``samples`` has shape (n,).  With ``per_model`` it has shape
    (n, n_models): one input column per model of a batch (see
    ``integrate_rk4``).
    """

    dt: float
    samples: np.ndarray
    label: str = ""
    per_model: bool = False

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if self.dt <= 0.0:
            raise ValueError("excitation dt must be > 0")
        if not np.all(np.isfinite(samples)):
            raise ValueError(f"excitation {self.label!r} contains non-finite samples")
        if self.per_model and samples.ndim != 2:
            raise ValueError("per-model excitation must have shape (n, n_models)")
        if not self.per_model and samples.ndim != 1:
            raise ValueError("excitation must be a 1-d sample array")
        if samples.shape[0] == 0:
            raise ValueError(f"excitation {self.label!r} has no samples")
        object.__setattr__(self, "samples", samples)

    @property
    def n_steps(self) -> int:
        return self.samples.shape[0]

    @property
    def duration(self) -> float:
        return self.n_steps * self.dt


@dataclass(frozen=True)
class SimulationOutput:
    """Model outputs stacked time-major: [y(0), y(dt), ...] with channels interleaved."""

    dt: float
    values: np.ndarray
    channel_names: tuple[str, ...] = ("output",)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("SimulationOutput values must be a stacked 1-d vector")
        if values.size % len(self.channel_names) != 0:
            raise ValueError("stacked length must be a multiple of the channel count")
        if not np.all(np.isfinite(values)):
            raise ValueError("simulation output contains non-finite values")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "channel_names", tuple(self.channel_names))

    @property
    def n_channels(self) -> int:
        return len(self.channel_names)

    @property
    def n_samples(self) -> int:
        return self.values.size // self.n_channels

    def by_channel(self) -> np.ndarray:
        """De-interleave into shape (n_samples, n_channels)."""
        return self.values.reshape(self.n_samples, self.n_channels)


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
    return _boucwen(z, v, a, _checked_n_pow(n_pow) - 1.0)[()]


def _checked_n_pow(n_pow) -> np.ndarray:
    n = np.asarray(n_pow, dtype=float)
    if (n < 1.0).any():
        raise ValueError("n_pow must be >= 1")
    return n


def _boucwen(z, v, a, n_less_one, out=None, work=None):
    """The Bouc-Wen rate with n - 1 given; no input checks.

    a v - 0.5 az**(n-1) ((a v) az + (|v| z) a) with az = min(|z|, 1), the law
    of ``boucwen_rate`` with one power (|z|**n = |z|**(n-1) |z|); halving is
    exact, so it is the general law at beta = gamma = a/2 to the bit.  The
    result goes into ``out`` and the scratch into ``work``, three arrays of
    out's shape; either is allocated when not given, except when every input
    is 0-d: then the steps run on numpy scalars, each in-place step rebinding
    its name.  ``out`` must not share memory with ``z`` or ``v``.
    """
    if out is None:
        shape = np.broadcast(z, v, a, n_less_one).shape
        if shape:
            out = np.empty(shape)
    if work is None and out is not None:
        work = np.empty((3,) + out.shape)
    az_buf, t_buf, r_buf = (None, None, None) if work is None else work
    az = np.minimum(np.abs(z, out=az_buf), 1.0, out=az_buf)
    rate = np.multiply(a, v, out=out)
    t = np.multiply(rate, az, out=t_buf)    # (a v) az
    r = np.abs(v, out=r_buf)
    r *= z
    r *= a                                  # (|v| z) a
    t += r
    t *= np.power(az, n_less_one, out=az_buf)
    t *= 0.5
    rate -= t
    return rate


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

class IsolatedSystem:
    """Shear building on an isolation layer, batched over candidate models.

    Isolator parameters: k_post in MN/m, c_b in kN.s/m, Q_y as a percentage
    of the structure weight W (nonlinear variants, with n_pow defaulting to 1
    for boucwen and 100 for bilinear), r_d the shear ductility ratio (linear
    variants).  k_pre = k_post / r_k; yield displacement x_y = Q_y / k_pre.

    State layout per model: [X_s (ns), x_b, V_s (ns), v_b] plus a trailing
    z for hysteretic variants.  All isolator parameter arrays broadcast over
    the batch.  Output is the base absolute acceleration [m/s^2].

    The state rate is ``A x + B a_g`` with one operator ``A`` for the whole
    batch (superstructure on the base mass), minus each model's isolator
    force on the base row, plus the Bouc-Wen rate of z.  The hysteretic
    isolator force contracts the per-model rows ``iso_rows`` = [k_iso; c_iso;
    q_iso] with the state rows [x_b; v_b; z].  Hysteretic batches are device
    systems (see ``integrate_rk4``): models last (state shape (n_states,
    n_models)), their one device reads [x_b; v_b; z] and writes the isolator
    force, which leaves the v_b rate, and the Bouc-Wen rate, which is the z
    rate, and their output is k_1[v_b] + a_g.  They accept one input per
    model (a per-model excitation).  Linear batches keep their models first.
    """

    channel_names = ("base_abs_accel",)
    # the per-model rows of a hysteretic batch, concatenated by ``stacked``
    _PER_MODEL = ("iso_rows", "bw_a", "n_pow_less_one")
    device_reads = None   # the state rows the devices read; None for a linear batch

    def __init__(self, building: ShearBuildingModel, variant: str, *,
                 k_post, c_b, r_k, Q_y=None, r_d=None, n_pow=None):
        if variant not in NONLINEAR_VARIANTS + LINEAR_VARIANTS:
            raise ValueError(f"unknown isolator variant {variant!r}")
        self.building = building
        self.variant = variant
        self.nonlinear = variant in NONLINEAR_VARIANTS
        self.model_axis = 1 if self.nonlinear else 0
        self.ns = building.n_stories
        n = self.ns + 1                                  # degrees of freedom
        self.n_states = 2 * n + (1 if self.nonlinear else 0)
        self._xb = n - 1                                 # state index of x_b
        self._vb = 2 * n - 1                             # state index of v_b

        # M q'' + C q' + K q = -M 1 a_g - f_iso e_b for q = [X_s, x_b], with
        # M = diag(m_s, m_b), K = T^T K_s T, C = T^T C_s T and T = [I | -1]
        T = np.hstack([np.eye(self.ns), -np.ones((self.ns, 1))])
        masses = MG * np.append(building.story_masses, building.base_mass)
        self._A = np.zeros((self.n_states, self.n_states))
        self._A[:n, n:2 * n] = np.eye(n)
        self._A[n:2 * n, :n] = -(T.T @ building.stiffness_matrix() @ T) / masses[:, None]
        self._A[n:2 * n, n:2 * n] = -(T.T @ building.damping_matrix() @ T) / masses[:, None]
        self._B = np.zeros(self.n_states)
        self._B[n:2 * n] = -1.0

        if self.nonlinear:
            if Q_y is None:
                raise ValueError("nonlinear variant requires Q_y [%W]")
            if n_pow is None:
                n_pow = 1.0 if variant == "boucwen" else 100.0
            per_model = dict(k_post=k_post, c_b=c_b, r_k=r_k, Q_y=Q_y, n_pow=n_pow)
        else:
            if r_d is None:
                raise ValueError("linear variant requires r_d")
            per_model = dict(k_post=k_post, c_b=c_b, r_k=r_k, r_d=r_d)
        per_model = {key: np.atleast_1d(np.asarray(value, dtype=float))
                     for key, value in per_model.items()}
        try:
            shape = np.broadcast_shapes(*(value.shape for value in per_model.values()))
        except ValueError:
            shapes = ", ".join(f"{key} {value.shape}" for key, value in per_model.items())
            raise ValueError(f"isolator parameters do not broadcast to one batch: {shapes}") from None
        p = {key: np.broadcast_to(value, shape) for key, value in per_model.items()}
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
                                      Qy_si * (1.0 - p["r_k"])]) / masses[-1]
            self.bw_a = k_pre_si / Qy_si             # 1/m
            self.n_pow_less_one = _checked_n_pow(p["n_pow"]) - 1.0
            self.device_reads = np.array([self._xb, self._vb, self.n_states - 1])
            self._E = np.zeros((self.n_states, 2))
            self._E[self._vb, 0], self._E[-1, 1] = -1.0, 1.0
            self.output_rows, self.feedthrough = np.array([self._vb]), np.ones(1)
            self._work = tuple(np.empty((3, self.n_models)))   # scratch rows of ``_boucwen``
        else:
            zeta_eq, k_eq = equivalent_linear_params(variant, p["r_k"], p["r_d"], k_pre_si)
            # c_eq = 2 zeta_eq sqrt(k_eq m) with m the total isolated mass
            with np.errstate(over="ignore"):
                c_eq = p["c_b"] * KN + 2.0 * zeta_eq * np.sqrt(k_eq * building.total_mass)
            if not np.isfinite(c_eq).all():
                raise ValueError(f"{variant} damping overflows at {building.total_mass:g} kg of mass")
            # one row per model, dotted with the models-first state
            self._iso = np.zeros((self.n_models, self.n_states))
            self._iso[:, self._xb] = k_eq / masses[-1]
            self._iso[:, self._vb] = c_eq / masses[-1]

    @classmethod
    def stacked(cls, systems) -> "IsolatedSystem":
        """One batch of hysteretic ``systems`` on one building, their rows in order.

        Such systems share the operator and the state layout and differ only
        in the per-model rows, so the batch integrates each model exactly as
        its own system does, with one evaluation of each rate per stage for
        all of them.
        """
        systems = list(systems)
        if not systems:
            raise ValueError("stacked() needs at least one system")
        first = systems[0]
        for system in systems:
            if not system.nonlinear:
                raise ValueError(f"cannot stack the linear variant {system.variant!r}; "
                                 "only hysteretic systems share a batch")
            if system.building != first.building:
                raise ValueError("cannot stack systems on different buildings")
        batch = copy.copy(first)
        batch.variant = "+".join(dict.fromkeys(system.variant for system in systems))
        for name in cls._PER_MODEL:
            setattr(batch, name, np.concatenate([getattr(system, name) for system in systems],
                                                axis=-1))
        batch.n_models = batch.bw_a.size
        batch._work = tuple(np.empty((3, batch.n_models)))
        return batch

    def initial_state(self) -> np.ndarray:
        shape = (self.n_models, self.n_states)
        return np.zeros(shape[::-1] if self.model_axis else shape)

    def rhs(self, state: np.ndarray, ag) -> np.ndarray:
        if self.nonlinear:
            return _device_rhs(self, state, ag)
        deriv = state @ self._A.T + ag * self._B
        deriv[:, self._vb] -= np.einsum("ij,ij->i", state, self._iso)
        return deriv

    def devices(self, rows, out):
        """At the [x_b; v_b; z] ``rows``, into ``out``: the isolator force per unit base
        mass (``iso_rows`` contracted with the rows) and the Bouc-Wen rate."""
        np.einsum("ij,ij->j", self.iso_rows, rows, out=out[0])
        _boucwen(rows[2], rows[1], self.bw_a, self.n_pow_less_one, out=out[1], work=self._work)

    def output(self, state: np.ndarray, deriv: np.ndarray, ag) -> np.ndarray:
        """Base absolute acceleration of a models-first batch, shape (n_models, 1)."""
        return (deriv[:, self._vb] + ag)[:, None]


# ---------------------------------------------------------------------------
# fixed-step RK4 with zero-order-hold excitation

def integrate_rk4(system, record: ExcitationRecord, dt_int: float | None = None) -> np.ndarray:
    """Integrate ``system`` under the excitation ``record`` and collect its outputs.

    The excitation is held constant over integrator substeps within each
    record interval (zero-order hold).  Outputs are sampled at the record
    dt, at times 0, dt, ..., (n-1) dt.  Returns an array of shape
    (n_models, n_samples * n_channels) with channels interleaved time-major.

    A device system (one whose ``device_reads`` is not None: hysteretic
    ``IsolatedSystem`` batches and ``TmdFrameSystem``) keeps its models last
    (``initial_state()`` has shape (n_states, n_models)) and has the rate
    ``A x + B u + E devices(x[device_reads])``: ``_A``,
    ``_B`` and ``_E`` are shared by the batch, and ``devices(rows, out)``
    writes the per-model device outputs into ``out`` in place.  Its outputs
    are the rate rows ``output_rows`` of the first RK4 stage plus
    ``feedthrough`` times the input.  ``_device_step`` advances it with the
    linear part of the four stages precomputed; it never calls ``rhs``, and
    such a system alone takes a ``per_model`` excitation, whose ``u`` is a
    row of one sample per model.

    Any other system provides ``initial_state()``, ``rhs(state, u)``
    returning the state rate, and ``output(state, deriv, u)`` returning the
    outputs, where ``deriv`` is ``rhs(state, u)`` at the same state and
    input; it is the first RK4 stage, so an output that needs the rate costs
    no extra ``rhs`` call.  Its state has shape (n_models, n_states) and its
    outputs (n_models, n_channels); ``_rhs_step`` takes four ``rhs`` calls
    per substep.

    Both steppers stop with ``SimulationDivergedError`` naming the models
    whose state is non-finite or beyond ``_STATE_GUARD`` after a record step;
    one whole-state test per record step finds that some model did, and only
    then are the models named.
    """
    dt = record.dt
    n_sub = substeps_per_sample(dt, dt_int)
    h = dt / n_sub

    devices = getattr(system, "device_reads", None) is not None
    if record.per_model and not (devices and record.samples.shape[1] == system.n_models):
        raise ValueError(f"a per-model excitation of {record.samples.shape[1]} columns needs "
                         f"a models-last system of as many models, not {system.n_models} "
                         f"with model axis {1 if devices else 0}")
    step = (_device_step if devices else _rhs_step)(system, h, n_sub)
    n_steps = record.n_steps
    outputs = None   # (n_models, n_steps, n_channels)
    # a diverging model overflows before the guard below names it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            y, state = step(record.samples[k])
            if outputs is None:
                outputs = np.empty((y.shape[0], n_steps, y.shape[1]))
            outputs[:, k] = y
            # max propagates NaN, so a NaN state fails the test as an overflow does
            if not np.abs(state).max() <= _STATE_GUARD:
                good = np.abs(state).max(axis=1) <= _STATE_GUARD
                raise SimulationDivergedError((k + 1) * dt, np.nonzero(~good)[0])
    return outputs.reshape(outputs.shape[0], -1)


def substeps_per_sample(dt: float, dt_int: float | None = None) -> int:
    """RK4 substeps per record interval ``dt`` at step ``dt_int`` (default dt / 10)."""
    if dt_int is None:
        dt_int = dt / 10.0
    if dt_int <= 0.0:
        raise ValueError("dt_int must be > 0")
    return max(1, int(round(dt / dt_int)))


def _rhs_step(system, h: float, n_sub: int):
    """The generic record step: ``n_sub`` RK4 substeps of four ``rhs`` calls each.

    Returns ``step(u)``, which advances the models-first state by one record
    interval under the held input ``u`` and returns the outputs at its start
    and the new state.
    """
    state = system.initial_state()

    def step(u):
        nonlocal state
        for j in range(n_sub):
            k1 = system.rhs(state, u)
            if j == 0:
                y = system.output(state, k1, u)
            k2 = system.rhs(state + 0.5 * h * k1, u)
            k3 = system.rhs(state + 0.5 * h * k2, u)
            k4 = system.rhs(state + h * k3, u)
            state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return y, state

    return step


def _device_rhs(system, state: np.ndarray, u) -> np.ndarray:
    """The rate ``A x + B u + E devices(x[device_reads])`` of a models-last device system.

    ``u`` is a scalar or one value per model.  The reference form of what
    ``_device_step`` evaluates.
    """
    out = np.empty((system._E.shape[1], state.shape[1]))
    system.devices(state[system.device_reads], out)
    return system._A @ state + system._B[:, None] * u + system._E @ out


def _device_step(system, h: float, n_sub: int):
    """The record step of a device system: RK4 with its linear part precomputed.

    Stage i of an RK4 substep has the rate k_i = A Y_i + B u + E o_i, where
    o_i = ``devices`` at the stage state Y_i, the only terms that differ per
    model.  Each Y_i, the new state and the outputs k_1[output_rows] +
    feedthrough u are therefore fixed linear maps of the extended state
    W = [x; u; o_1; ...; o_4], built here once from A, B, E and h (Butcher;
    Hairer & Wanner).  A substep projects the rows the devices read of each
    stage out of W into one buffer (stage 1's map is the identity, so its
    rows are taken, not multiplied), writes o_i from that buffer straight
    into its rows of W, and applies one (n_states x n_W) product to advance
    x; the arithmetic is that of ``rhs``-based RK4, regrouped, so the two
    agree to round-off.  Every buffer, and every view of one that a stage
    reads or writes, is made here, once, for both W buffers, so a stage
    allocates and slices nothing that its devices do not.  Returns
    ``step(u)`` as ``_rhs_step`` does, with outputs of shape (n_models,
    n_channels) and the state as a models-first view, both overwritten by
    the next call.
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
    buffers[0][:n] = system.initial_state()
    stage_rows = np.empty((reads.size, system.n_models))   # the rows the devices read
    devices = system.devices
    y = np.empty((output_map.shape[0], system.n_models))

    def substep_views(W, spare):
        """A substep from ``W`` into ``spare``: per stage its projection, the rows
        of W it reads and the rows of o_i it writes; the rows the output reads,
        the full W and where the new x goes."""
        per_stage = [(projection, W if projection is None else W[:o], W[o:o + d])
                     for projection, o in stages]
        return per_stage, W[:n + 1 + d], W, spare[:n]

    views = (substep_views(*buffers), substep_views(*buffers[::-1]))
    states = tuple(W[:n].T for W in buffers)
    inputs = tuple(W[n] for W in buffers)
    current = 0

    def step(u):
        nonlocal current
        inputs[0][...] = inputs[1][...] = u
        for j in range(n_sub):
            per_stage, head, W, next_x = views[current]
            for projection, known, out in per_stage:
                if projection is None:
                    known.take(reads, axis=0, out=stage_rows, mode="clip")
                else:
                    np.matmul(projection, known, out=stage_rows)
                devices(stage_rows, out)
            if j == 0:
                np.matmul(output_map, head, out=y)
            np.matmul(advance, W, out=next_x)
            current ^= 1
        return y.T, states[current]

    return step


def simulate(system, excitation: ExcitationRecord, dt_int: float | None = None) -> SimulationOutput:
    """Simulate a single-model system and return its stacked output vector."""
    if system.n_models != 1:
        raise ValueError("simulate() expects a batch of one model; use integrate_rk4")
    h = integrate_rk4(system, excitation, dt_int=dt_int)
    return SimulationOutput(excitation.dt, h[0], tuple(system.channel_names))


def add_measurement_noise(clean: SimulationOutput, noise_fraction: float,
                          rng: np.random.Generator) -> MeasurementSet:
    """Add i.i.d. zero-mean Gaussian noise, per channel, scaled to the channel std."""
    if noise_fraction < 0.0:
        raise ValueError("noise_fraction must be >= 0")
    per_channel = clean.by_channel()
    stds = per_channel.std(axis=0)
    noise = rng.standard_normal(per_channel.shape) * (noise_fraction * stds)
    noisy = (per_channel + noise).reshape(-1)
    return MeasurementSet(d=noisy, dt=clean.dt, channel_names=clean.channel_names)


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
    """

    channel_names = ("roof_accel_x", "roof_accel_y")
    # the parameters of each law, the damping laws' force coefficients in kN units
    _LAW_KEYS = {"linear": ("c1",), "cubic": ("c1", "c3"), "boucwen": ("r_k", "Q_y", "k_pre"),
                 "power_law_truth": ("power_coef", "power_lin")}

    def __init__(self, frame: TmdFrameModel, law_x: str, law_y: str, *,
                 params_x: dict, params_y: dict, n_models: int = 1):
        self.frame = frame
        self.laws = (law_x, law_y)
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
            # the device reads [U; dU; z] at rows r, r + k, r + 2 k of the read rows
            r = sum(rows.size for rows in reads)
            reads.append(np.concatenate([x + tmds, v + tmds, z + np.arange(nz)]))
            force_kw, bw_a = self._si_params(direction, law, raw, m_tmd, n_models)
            self._devices.append((law, force_kw, bw_a, slice(r, r + k), slice(r + k, r + 2 * k),
                                  slice(r + 2 * k, r + 2 * k + nz), slice(col, col + k),
                                  slice(col + k, col + k + nz)))
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
        odd = sorted(set(raw).symmetric_difference(keys))
        if odd:
            verb = "does not take" if odd[0] in raw else "needs"
            raise ValueError(f"{direction} TMD: law {law!r} {verb} {odd[0]!r}; "
                             f"its keys are {', '.join(keys)}")
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

    def rhs(self, state: np.ndarray, wind_force) -> np.ndarray:
        return _device_rhs(self, state, wind_force)

    def devices(self, rows, out):
        """Each TMD's law force, and the z rate of each hysteretic one, into ``out``."""
        for law, force_kw, bw_a, u, du, z, f, g in self._devices:
            out[f] = tmd_force(law, rows[du], rows[u], z=rows[z], **force_kw)
            if bw_a is not None:
                _boucwen(rows[z], rows[du], bw_a, 0.0, out=out[g])


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
