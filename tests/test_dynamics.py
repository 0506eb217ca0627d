from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from falsikit import dynamics
from falsikit.dynamics import (LINEAR_VARIANTS, ExcitationRecord, IsolatedSystem,
                               ShearBuildingModel, SimulationDivergedError,
                               TmdFrameModel, TmdFrameSystem, add_measurement_noise,
                               band_limited_record, boucwen_rate,
                               equivalent_linear_params, integrate_rk4, simulate,
                               simulate_classes, substeps_per_sample, tmd_force,
                               _stacked)
from falsikit.falsification import MeasurementSet

_L = dynamics._BLOCK


# ---------------------------------------------------------------------------
# helpers

class _Sdof:
    """Linear SDOF x'' + 2 zeta omega x' + omega^2 x = u(t), batched trivially, with no devices.

    The state is [x, v, w] with w' = x, so the rate row of w is x: ``outputs``
    picks rate rows, row 2 (the default) the displacement and row 0 the velocity.
    ``nonlinear`` picks the solver: the block map, or the device stepper when True.
    """

    channel_names = ("disp",)
    device_reads = np.array([], dtype=int)

    def __init__(self, omega, zeta=0.0, x0=0.0, v0=0.0, n_models=1, outputs=(2,),
                 nonlinear=False):
        self.x0, self.v0 = x0, v0
        self.n_models, self.nonlinear = n_models, nonlinear
        self._A = np.array([[0.0, 1.0, 0.0], [-omega**2, -2.0 * zeta * omega, 0.0],
                            [1.0, 0.0, 0.0]])
        self._B = np.array([0.0, 1.0, 0.0])
        self._E = np.zeros((3, 0))
        self.output_rows = np.array(outputs)
        self.feedthrough = np.zeros(len(outputs))

    def initial_state(self):
        s = np.zeros((3, self.n_models))
        s[0], s[1] = self.x0, self.v0
        return s

    def device_kernels(self, rows, outs):
        return [lambda: None for _ in outs]


class _CountingSdof(_Sdof):
    """``_Sdof`` that counts how often it is bound (``binds``) and how often its kernels
    run (``calls``)."""

    binds = calls = 0

    def device_kernels(self, rows, outs):
        self.binds += 1

        def kernel():
            self.calls += 1

        return [kernel for _ in outs]


class _Chain:
    """An n-DOF chain M q'' + C q' + K q = -M 1 u over the state [q; q'], batched over the
    columns of ``x0``; its outputs are the n accelerations plus u.  With ``device`` its
    stiffness is one linear device that reads q and writes K q, else it is part of A.
    """

    nonlinear = False

    def __init__(self, masses, springs, dampers, x0, device):
        def chain(k):
            # spring i joins mass i to mass i - 1, the first to the ground
            return np.diag(np.append(k[1:], 0.0) + k) - np.diag(k[1:], 1) - np.diag(k[1:], -1)

        n = len(masses)
        m_inv = 1.0 / np.asarray(masses)
        self.n_models, self._x0, self._K = x0.shape[1], x0, chain(np.asarray(springs))
        self._A = np.zeros((2 * n, 2 * n))
        self._A[:n, n:] = np.eye(n)
        self._A[n:, n:] = -m_inv[:, None] * chain(np.asarray(dampers))
        self._B = np.repeat([0.0, -1.0], n)
        self._E = np.zeros((2 * n, n if device else 0))
        if device:
            self._E[n:] = -np.diag(m_inv)
        else:
            self._A[n:, :n] = -m_inv[:, None] * self._K
        self.device_reads = np.arange(self._E.shape[1])
        self.output_rows, self.feedthrough = np.arange(n, 2 * n), np.ones(n)

    def initial_state(self):
        return self._x0.copy()

    def device_kernels(self, rows, outs):
        return [partial(np.matmul, self._K, rows, out=out) if out.size else lambda: None
                for out in outs]


class _Lti:
    """x' = A x + B u, its output the rate of row 0, batched over the columns of ``x0``.

    With ``gains`` (one per model) the rate of row 0 also gains the linear device
    gains * x[0], else the system has no devices.
    """

    nonlinear = False
    channel_names = ("rate0",)

    def __init__(self, A, B, x0, gains=None):
        self._A, self._B = np.array(A, dtype=float), np.array(B, dtype=float)
        self._x0 = np.array(x0, dtype=float)
        self.n_models, self._gains = self._x0.shape[1], gains
        self._E = np.zeros((self._B.size, 0 if gains is None else 1))
        self._E[:1] = 1.0
        self.device_reads = np.arange(self._E.shape[1])
        self.output_rows, self.feedthrough = np.array([0]), np.zeros(1)

    def initial_state(self):
        return self._x0.copy()

    def device_kernels(self, rows, outs):
        if self._gains is None:
            return [lambda: None for _ in outs]
        return [partial(np.multiply, self._gains, rows[0], out=out[0]) for out in outs]


def _record_map_step(G: np.ndarray, x0: np.ndarray):
    """``step(u)`` of the record map ``G`` (see ``dynamics._record_map``) from the state
    ``x0``, models last: one contraction per model, returning what ``_device_step``'s
    does."""
    n = G.shape[1] - 1
    z = np.empty((n + 1, G.shape[2]))          # [x; u]
    z[:n] = x0
    out = np.empty((G.shape[0], G.shape[2]))
    x, y = out[:n], out[n:]

    def step(u):
        z[n] = u
        np.einsum("ijm,jm->im", G, z, out=out)
        z[:n] = x
        return y.T, x.T

    return step


def _on_record_map(system, record, dt_int, columns=None):
    """``integrate_rk4`` of a linear ``system`` stepped one record step at a time by its
    record map under the per-step guard: the reference for the block map."""
    n_sub = substeps_per_sample(record.dt, dt_int)
    G = dynamics._record_map(system, record.dt / n_sub, n_sub)
    samples = record.samples.reshape(record.n_steps, -1)
    if columns is None:
        columns = np.zeros(system.n_models, dtype=int)
    outputs = np.empty((system.n_models, record.n_steps, system.output_rows.size))
    with np.errstate(over="ignore", invalid="ignore"):
        dynamics._march(_record_map_step(G, system.initial_state()), samples, columns,
                        record.dt, outputs)
    return outputs.reshape(system.n_models, -1)


def _on_device_step(system, record, dt_int, columns=None):
    """``integrate_rk4`` of ``system`` stepped by ``_device_step``, its devices linear or not:
    the stepper the record map of a linear system is probed from."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_stepper", lambda system: dynamics._device_step)
        return integrate_rk4(system, record, dt_int=dt_int, columns=columns)



def _rel_rms(got, expected):
    """The relative RMS difference of each row (model) of ``got`` from ``expected``."""
    return np.linalg.norm(got - expected, axis=1) / np.linalg.norm(expected, axis=1)


def _device_rhs(system, state: np.ndarray, u) -> np.ndarray:
    """The rate ``A x + B u + E o`` of a system (models last), with o the device outputs
    at the rows ``x[device_reads]``.

    ``u`` is a scalar or one value per model.  The reference form of what
    ``_device_step`` evaluates.
    """
    out = np.empty((system._E.shape[1], state.shape[1]))
    kernel, = system.device_kernels(state[system.device_reads], [out])
    kernel()
    return system._A @ state + system._B[:, None] * u + system._E @ out


def _rhs_rk4(system, record, dt_int, rate=_device_rhs):
    """The generic RK4 loop of four ``rate(system, state, u)`` calls a substep, models last.

    The reference for the precomputed stepper of ``integrate_rk4``: the same
    zero-order hold, outputs k_1[output_rows] + feedthrough u and divergence
    guard, evaluated stage by stage.
    """
    n_sub = max(1, int(round(record.dt / dt_int)))
    h = record.dt / n_sub
    state = system.initial_state()
    outputs = np.empty((system.n_models, record.n_steps, system.output_rows.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for k, u in enumerate(record.samples):
            for j in range(n_sub):
                k1 = rate(system, state, u)
                if j == 0:
                    outputs[:, k] = (k1[system.output_rows]
                                     + system.feedthrough[:, None] * u).T
                k2 = rate(system, state + 0.5 * h * k1, u)
                k3 = rate(system, state + 0.5 * h * k2, u)
                k4 = rate(system, state + h * k3, u)
                state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            bad = ~np.all(np.isfinite(state), axis=0) | (np.abs(state).max(axis=0) > 1.0e6)
            if np.any(bad):
                raise SimulationDivergedError((k + 1) * record.dt, np.nonzero(bad)[0])
    return outputs.reshape(system.n_models, -1)


class _ModelsFirstLinear:
    """The equivalent-linear isolated building written models first, for ``_rhs_rk4``
    with ``rate=_ModelsFirstLinear.rate``.

    Per model the rate is state @ A.T + a_g B - (k_eq x_b + c_eq v_b) e_vb / m_b, with
    k_eq and c_eq = c_b + 2 zeta_eq sqrt(k_eq m_total) from the code formulas, and the
    output is the v_b rate plus a_g: the reference for equivalent-linear device batches.
    """

    channel_names = ("base_abs_accel",)

    def __init__(self, building, variant, k_post, c_b, r_k, r_d):
        n = building.n_stories + 1
        self.xb, self.vb = n - 1, 2 * n - 1
        zeta, k_eq = equivalent_linear_params(variant, r_k, r_d, k_post * 1.0e6 / r_k)
        c_eq = c_b * 1.0e3 + 2.0 * zeta * np.sqrt(k_eq * building.total_mass)
        m_b = 1.0e3 * building.base_mass
        self.k, self.c = k_eq / m_b, c_eq / m_b
        self.A = IsolatedSystem.shared_operator(building)
        self.B = np.zeros(2 * n)
        self.B[n:] = -1.0
        self.n_models = self.k.size
        self.output_rows, self.feedthrough = np.array([self.vb]), np.ones(1)

    def initial_state(self):
        return np.zeros((self.B.size, self.n_models))

    def rate(self, state, ag):
        """The rate of the models-last ``state``, from the formula over its models-first view."""
        first = state.T
        deriv = first @ self.A.T + ag * self.B
        deriv[:, self.vb] -= self.k * first[:, self.xb] + self.c * first[:, self.vb]
        return deriv.T


def _integrate_z(x_fn, v_fn, t_end, dt, a, n_pow):
    """RK4 on the scalar hysteretic ODE under a prescribed displacement history."""
    n = int(round(t_end / dt))
    z = 0.0
    zs = [z]
    for k in range(n):
        t = k * dt
        f = lambda tt, zz: float(boucwen_rate(zz, v_fn(tt), a, n_pow))
        k1 = f(t, z)
        k2 = f(t + dt / 2, z + dt / 2 * k1)
        k3 = f(t + dt / 2, z + dt / 2 * k2)
        k4 = f(t + dt, z + dt * k3)
        z = z + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        zs.append(z)
    return np.array(zs)


def _loop_area(x, f):
    """Signed area of the closed (x, f) loop by the trapezoid rule."""
    return float(np.trapezoid(f, x))


# ---------------------------------------------------------------------------
# hysteresis law

class TestBoucwen:
    def test_origin_slope(self):
        assert boucwen_rate(0.0, 2.0, a=3.0, n_pow=1.0) == 6.0

    def test_saturation(self):
        # a = 2 beta = 2 gamma, z at 1: loading rate vanishes
        assert boucwen_rate(1.0, 0.5, a=2.0, n_pow=1.0) \
            == pytest.approx(0.0, abs=1e-14)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            boucwen_rate(np.nan, 1.0, 2.0, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(0.1, 100.0), n_pow=st.sampled_from([1.0, 1.5, 100.0]),
           zv=st.lists(st.tuples(st.floats(-3.0, 3.0, allow_subnormal=False),
                                 st.floats(-10.0, 10.0, allow_subnormal=False)),
                       min_size=1, max_size=12))
    def test_one_power_matches_two_power_law(self, a, n_pow, zv):
        # the textbook law at beta = gamma = a/2; |z| > 1, the saturation amplitude, is drawn too
        beta = gamma = 0.5 * a
        z = np.array([zz for zz, _ in zv])
        v = np.array([vel for _, vel in zv])
        az = np.minimum(np.abs(z), 1.0)
        terms = (a * v, beta * v * az**n_pow, gamma * z * np.abs(v) * az**(n_pow - 1.0))
        textbook = terms[0] - terms[1] - terms[2]
        scale = np.max(np.abs(terms), axis=0)
        got = boucwen_rate(z, v, a, n_pow)
        assert np.all(np.abs(got - textbook) <= 1e-13 * scale)

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(st.floats(0.1, 100.0), st.sampled_from([1.0, 1.5, 100.0]),
                                   *[st.just(0.0) | st.floats(-bound, bound, allow_subnormal=False)
                                     for bound in (3.0, 10.0, 3.0, 10.0)]),
                         min_size=1, max_size=12))
    def test_bound_kernel_matches_the_law_row_by_row(self, rows):
        # (a, n, z, v, z', v') per model, between an n = 1.5 and an n = 100 model with an
        # n = 1 model among them, so the power's span holds n = 1 rows
        rows = [(2.0, 1.5, 0.5, 1.0, -0.5, 0.0), *rows[:len(rows) // 2],
                (3.0, 1.0, 2.0, -1.0, 0.0, 4.0), *rows[len(rows) // 2:],
                (4.0, 100.0, -1.0, 0.0, 3.0, -2.0)]
        a, n_pow, *states = np.array(rows).T
        vz, out = np.empty((2, len(rows))), np.full(len(rows), np.nan)
        kernel, = dynamics._boucwen_kernels(a, n_pow - 1.0, [(vz, out)])
        for z, v in (states[:2], states[2:]):
            vz[:] = v, z   # in place: the kernel reads the rows it was bound to
            kernel()
            expected = [boucwen_rate(z[i], v[i], a[i], n_pow[i]) for i in range(len(rows))]
            assert out.tobytes() == np.array(expected).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(a=st.floats(0.1, 100.0), n_pow=st.sampled_from([1.0, 1.5, 100.0]),
           zv=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-10.0, 10.0)),
                       min_size=1, max_size=8))
    def test_scalar_calls_match_the_batch(self, a, n_pow, zv):
        # 0-d inputs run the law on numpy scalars; the numbers are the buffered path's
        z, v = np.array(zv).T
        batch = boucwen_rate(z, v, a, n_pow)
        for i in range(z.size):
            single = boucwen_rate(float(z[i]), float(v[i]), a, n_pow)
            assert np.ndim(single) == 0 and single == batch[i]

    def test_isolated_system_rejects_n_pow_below_one(self, building):
        with pytest.raises(ValueError, match="n_pow"):
            IsolatedSystem(building, "boucwen", k_post=4.0, c_b=20.0, r_k=0.1667, Q_y=5.0,
                           n_pow=0.5)

    @pytest.mark.parametrize("n_pow", [1.0, 100.0])
    def test_z_saturation_bound(self, n_pow):
        # |z| never exceeds 1 + 1e-3 under a = 2 beta = 2 gamma
        x_y = 0.03
        amp, omega = 5 * x_y, 2.0 * np.pi
        a = 1.0 / x_y
        zs = _integrate_z(lambda t: amp * np.sin(omega * t),
                          lambda t: amp * omega * np.cos(omega * t),
                          3.0, 1e-3, a, n_pow)
        assert np.max(np.abs(zs)) <= 1.0 + 1e-3

    def test_loop_area_against_fine_reference(self):
        # per-cycle dissipation at 5 x_y amplitude vs a 100x finer integration
        x_y = 0.03
        amp, omega = 5 * x_y, 2.0 * np.pi
        a = 1.0 / x_y
        k_post, q_y = 4.0e6, 5.0e5

        def areas(dt):
            t = np.arange(0, 2.0 + dt / 2, dt)
            x = amp * np.sin(omega * t)
            zs = _integrate_z(lambda tt: amp * np.sin(omega * tt),
                              lambda tt: amp * omega * np.cos(omega * tt),
                              2.0, dt, a, 1.0)
            f = k_post * x + q_y * zs
            half = len(t) // 2   # second (steady) cycle
            return _loop_area(x[half:], f[half:])

        coarse, ref = areas(2e-3), areas(2e-5)
        assert ref != 0.0
        assert abs(coarse - ref) / abs(ref) < 0.005

    def test_bilinear_limit_matches_ideal_loop(self):
        # n_pow = 100 loop vs an ideal bilinear oracle, 3 x_y amplitude
        x_y = 0.0286
        k_pre = 24.0e6
        r_k = 1.0 / 6.0
        k_post = r_k * k_pre
        Qy = k_pre * x_y
        q_y = Qy * (1.0 - r_k)
        amp, omega = 3 * x_y, 2.0 * np.pi
        dt = 5e-4
        t = np.arange(0, 2.0 + dt / 2, dt)
        x = amp * np.sin(omega * t)
        zs = _integrate_z(lambda tt: amp * np.sin(omega * tt),
                          lambda tt: amp * omega * np.cos(omega * tt),
                          2.0, dt, k_pre / Qy, 100.0)
        f_bw = k_post * x + q_y * zs

        # ideal bilinear: slope k_pre between the bounding lines k_post x +/- q_y
        f_ideal = np.zeros_like(x)
        for i in range(1, len(x)):
            trial = f_ideal[i - 1] + k_pre * (x[i] - x[i - 1])
            f_ideal[i] = np.clip(trial, k_post * x[i] - q_y, k_post * x[i] + q_y)
        half = len(t) // 2
        rms = np.sqrt(np.mean((f_bw[half:] - f_ideal[half:]) ** 2))
        assert rms / np.sqrt(np.mean(f_ideal[half:] ** 2)) < 0.02


# ---------------------------------------------------------------------------
# equivalent-linear code formulas

class TestEquivalentLinear:
    def test_aashto_reference_values(self):
        zeta, k_eq = equivalent_linear_params("aashto", r_k=1.0 / 6.0, r_d=2.5, k_pre=1.0)
        assert zeta == pytest.approx(0.2546, abs=5e-4)
        assert k_eq == pytest.approx(0.5, abs=1e-12)

    def test_caltrans_reference_value(self):
        zeta, _ = equivalent_linear_params("caltrans", r_k=0.2, r_d=2.5, k_pre=1.0)
        assert zeta == pytest.approx(0.0587 * 1.5**0.371, rel=1e-12)
        assert zeta == pytest.approx(0.0682, abs=5e-4)

    @pytest.mark.parametrize("variant", ["aashto", "caltrans", "modified_aashto"])
    def test_zeta_vanishes_at_unit_ductility(self, variant):
        zeta, _ = equivalent_linear_params(variant, r_k=0.2, r_d=1.0 + 1e-9, k_pre=1.0)
        assert zeta < 1e-3

    def test_jpwri_domain_error_names_variant(self):
        with pytest.raises(ValueError, match="jpwri"):
            equivalent_linear_params("jpwri", r_k=0.2, r_d=1.2, k_pre=1.0)

    def test_rd_below_one_rejected(self):
        with pytest.raises(ValueError, match="r_d"):
            equivalent_linear_params("aashto", r_k=0.2, r_d=0.9, k_pre=1.0)

    def test_nonlinear_variant_rejected(self):
        with pytest.raises(ValueError):
            equivalent_linear_params("boucwen", r_k=0.2, r_d=2.0, k_pre=1.0)

    @pytest.mark.parametrize("variant", LINEAR_VARIANTS)
    def test_broadcasts_over_r_k(self, variant):
        r_k, r_d, k_pre = np.array([0.12, 0.16, 0.2]), np.array([2.0, 2.5, 3.0]), np.arange(1.0, 4.0)
        zeta, k_eq = equivalent_linear_params(variant, r_k=r_k, r_d=r_d, k_pre=k_pre)
        for i in range(3):
            z_i, k_i = equivalent_linear_params(variant, r_k=float(r_k[i]), r_d=r_d[i],
                                                k_pre=k_pre[i])
            np.testing.assert_allclose([zeta[i], k_eq[i]], [z_i, k_i], rtol=1e-15, atol=0.0)
        with pytest.raises(ValueError, match="r_k"):
            equivalent_linear_params(variant, r_k=np.array([0.2, 1.2]), r_d=2.5, k_pre=1.0)

    def test_aashto_energy_matches_bilinear_loop(self):
        # per-cycle dissipation of the equivalent model vs the bilinear loop area
        r_k, r_d = 1.0 / 6.0, 2.5
        k_pre = 24.0e6
        Qy = 686.0e3
        x_y = Qy / k_pre
        x_d = r_d * x_y
        zeta, k_eq = equivalent_linear_params("aashto", r_k=r_k, r_d=r_d, k_pre=k_pre)
        ed_equivalent = 2.0 * np.pi * zeta * k_eq * x_d**2
        ed_bilinear = 4.0 * Qy * (1.0 - r_k) * (x_d - x_y)
        assert abs(ed_equivalent - ed_bilinear) / ed_bilinear < 0.15


# ---------------------------------------------------------------------------
# superstructure assembly

class TestShearBuilding(object):
    def test_matrix_shapes_and_symmetry(self, building):
        K = building.stiffness_matrix()
        assert K.shape == (3, 3)
        assert np.array_equal(K, K.T)
        # classic tridiagonal pattern for a uniform chain
        k = 40.0e6
        assert K[0, 0] == pytest.approx(2 * k) and K[2, 2] == pytest.approx(k)
        assert K[0, 1] == pytest.approx(-k)

    def test_rayleigh_calibration(self, building):
        # damping ratio hits 3% in the two designated fixed-base modes
        a0, a1 = building.rayleigh_coefficients()
        omega = building.fixed_base_frequencies()
        for w in omega[:2]:
            assert (a0 / w + a1 * w) / 2.0 == pytest.approx(0.03, rel=1e-8)

    def test_frequencies_match_generalized_eigensolve(self):
        import scipy.linalg
        building = ShearBuildingModel((300.0, 250.0, 410.0, 180.0), (40.0, 35.0, 52.0, 20.0),
                                      500.0)
        lam = scipy.linalg.eigh(building.stiffness_matrix(), building.mass_matrix(),
                                eigvals_only=True)
        np.testing.assert_allclose(building.fixed_base_frequencies(), np.sqrt(lam),
                                   rtol=1e-12, atol=0.0)

    def test_validation(self):
        from falsikit.dynamics import ShearBuildingModel
        with pytest.raises(ValueError):
            ShearBuildingModel((300.0,), (40.0, 40.0), 500.0)
        with pytest.raises(ValueError):
            ShearBuildingModel((300.0,), (40.0,), -1.0)


# ---------------------------------------------------------------------------
# integrator

class TestIntegrator:
    def test_sdof_steady_state_amplitude(self):
        omega, zeta, Omega = 2.0 * np.pi, 0.05, 1.5 * np.pi
        T = 2.0 * np.pi / Omega
        dt = T / 200.0
        n = int(round(60.0 / dt))
        rec = ExcitationRecord(dt, np.sin(Omega * np.arange(n) * dt))
        out = simulate(_Sdof(omega, zeta), rec, dt_int=dt)
        x = out.d
        tail = x[int(0.8 * len(x)):]
        amp = 0.5 * (tail.max() - tail.min())
        exact = 1.0 / np.sqrt((omega**2 - Omega**2) ** 2 + (2 * zeta * omega * Omega) ** 2)
        assert amp == pytest.approx(exact, rel=1e-3)

    def test_rk4_fourth_order_convergence(self):
        omega = 2.0
        rec = ExcitationRecord(0.1, np.zeros(101))
        t = np.arange(101) * 0.1
        exact = np.cos(omega * t)

        def err(dt_int):
            h = integrate_rk4(_Sdof(omega, x0=1.0), rec, dt_int=dt_int)
            return np.max(np.abs(h[0] - exact))

        ratio = err(0.02) / err(0.01)
        assert 14.0 <= ratio <= 18.0

    @pytest.mark.parametrize("dt_int,problem", [(0.03, "does not divide"), (0.08, "exceeds")])
    def test_dt_int_splits_the_record_dt_into_whole_substeps(self, dt_int, problem):
        # such a step is refused, not rounded to dt / round(dt / dt_int) (0.025 s, 0.05 s)
        rec = ExcitationRecord(0.05, np.zeros(10))
        with pytest.raises(ValueError, match=rf"^dt_int = {dt_int:g} s {problem} the sampling "
                                             r"interval dt = 0.05 s$"):
            integrate_rk4(_Sdof(2.0, x0=1.0), rec, dt_int=dt_int)
        assert [substeps_per_sample(0.05, step) for step in (None, 0.05 / 3, 0.05 * (1 + 1e-7))] \
            == [10, 3, 1]

    def test_free_vibration_energy_nonincreasing(self):
        omega, zeta = 2.0 * np.pi, 0.02
        rec = ExcitationRecord(0.01, np.zeros(2000))
        # rate rows 0 and 2 are v and x at the start of each record step
        v, x = integrate_rk4(_Sdof(omega, zeta, x0=1.0, outputs=(0, 2)), rec,
                             dt_int=0.01)[0].reshape(-1, 2).T
        e = 0.5 * v**2 + 0.5 * omega**2 * x**2
        assert np.all(np.diff(e) <= 1e-6 * e[0])

    @settings(max_examples=15, deadline=None)
    @given(masses=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
           springs=st.tuples(st.floats(1.0, 100.0), st.floats(1.0, 100.0)),
           dampers=st.tuples(st.floats(0.01, 2.0), st.floats(0.01, 2.0)),
           seed=st.integers(0, 2**16))
    def test_zero_device_system_matches_its_device_form(self, masses, springs, dampers, seed):
        # a system with no devices is stepped as one whose stiffness is a linear device
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-1.0, 1.0, (4, 3))
        record = ExcitationRecord(0.05, rng.standard_normal(40))
        forms = [_Chain(masses, springs, dampers, x0, device) for device in (False, True)]
        got = [_on_device_step(system, record, 0.01) for system in forms]
        assert got[0].shape == (3, 2 * record.n_steps)
        assert _rel_rms(got[0], got[1]).max() <= 1e-12
        for system, h in zip(forms, got):
            assert _rel_rms(h, _rhs_rk4(system, record, 0.01)).max() <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(chain=st.integers(1, 4).flatmap(lambda n: st.tuples(
               *(st.tuples(*(st.floats(lo, hi),) * n)
                 for lo, hi in ((0.5, 2.0), (1.0, 100.0), (0.01, 2.0))))),
           device=st.booleans(), n_sub=st.sampled_from([1, 5]), seed=st.integers(0, 2**16))
    def test_record_map_matches_device_step_on_damped_chains(self, chain, device, n_sub, seed):
        # the map of a random damped chain, with or without a linear device, steps it as
        # the device stepper it is probed from does
        rng = np.random.default_rng(seed)
        system = _Chain(*chain, rng.uniform(-1.0, 1.0, (2 * len(chain[0]), 3)), device)
        record = ExcitationRecord(0.05, rng.standard_normal(40))
        got = integrate_rk4(system, record, dt_int=0.05 / n_sub)
        assert got.shape == (3, len(chain[0]) * record.n_steps)
        assert _rel_rms(got, _on_device_step(system, record, 0.05 / n_sub)).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(chain=st.integers(1, 3).flatmap(lambda n: st.tuples(
               *(st.tuples(*(st.floats(lo, hi),) * n)
                 for lo, hi in ((0.5, 2.0), (1.0, 100.0), (0.01, 2.0))))),
           device=st.booleans(), n_sub=st.sampled_from([1, 5]),
           n_steps=st.sampled_from([1, _L - 1, _L, _L + 1])
           | st.builds(lambda k, r: k * _L + r, st.integers(2, 12), st.integers(0, _L - 1)),
           shared=st.booleans(), chunk=st.integers(1, 4), seed=st.integers(0, 2**16))
    def test_block_map_matches_record_map_steps(self, chain, device, n_sub, n_steps, shared,
                                                chunk, seed):
        # a random damped chain from a non-zero state, on one input or on per-model columns,
        # solved in blocks (``chunk`` blocks at a time) as the record map steps it
        rng = np.random.default_rng(seed)
        n = len(chain[0])
        system = _Chain(*chain, rng.uniform(-1.0, 1.0, (2 * n, 4)), device)
        columns = None if shared else rng.integers(0, 3, system.n_models)
        record = ExcitationRecord(0.05, rng.standard_normal(n_steps if shared else (n_steps, 3)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "_CHUNK_BYTES", chunk * 8 * system.n_models * (_L + 2 * n))
            got = integrate_rk4(system, record, dt_int=0.05 / n_sub, columns=columns)
        expected = _on_record_map(system, record, 0.05 / n_sub, columns)
        assert got.shape == expected.shape == (system.n_models, n * n_steps)
        assert _rel_rms(got, expected).max() <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(chain=st.integers(1, 3).flatmap(lambda n: st.tuples(
               *(st.tuples(*(st.floats(lo, hi),) * n)
                 for lo, hi in ((0.5, 2.0), (1.0, 100.0), (0.01, 2.0))))),
           device=st.booleans(), n_models=st.integers(1, 4), n_sub=st.sampled_from([1, 3]),
           n_steps=st.integers(1, 3 * _L + 1), seed=st.integers(0, 2**16))
    def test_one_record_drives_every_layout_alike(self, chain, device, n_models, n_sub,
                                                  n_steps, seed):
        # a 1-d record and the same record as one column that every model reads give the
        # same bits on both steppers, and so does one copy of it per model on the device
        # stepper; the block map takes its input terms per run of models on one column,
        # and BLAS rounds a product of another width differently, so there it is round-off
        rng = np.random.default_rng(seed)
        system = _Chain(*chain, rng.uniform(-1.0, 1.0, (2 * len(chain[0]), n_models)), device)
        samples = rng.standard_normal(n_steps)
        layouts = [(ExcitationRecord(0.05, samples), None),
                   (ExcitationRecord(0.05, samples[:, None]), np.zeros(n_models, dtype=int)),
                   (ExcitationRecord(0.05, np.repeat(samples[:, None], n_models, axis=1)),
                    np.arange(n_models))]
        for solve in (integrate_rk4, _on_device_step):
            lone, one_column, per_model = [solve(system, record, dt_int=0.05 / n_sub,
                                                 columns=columns)
                                           for record, columns in layouts]
            np.testing.assert_array_equal(one_column, lone)
            if solve is integrate_rk4:
                assert _rel_rms(per_model, lone).max() <= 1e-12
            else:
                np.testing.assert_array_equal(per_model, lone)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 4), scale=st.sampled_from([0.1, 1.0, 10.0]),
           n_sub=st.sampled_from([1, 3]), seed=st.integers(0, 2**16))
    def test_block_bound_covers_every_state_of_the_block(self, n, scale, n_sub, seed):
        # |x_{K+i}| <= a |x_K| + b max|u| for 1 <= i <= L, stable or not, stepped by G
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal((n, 5)) * rng.uniform(0.0, 3.0, 5)
        system = _Lti(scale * rng.standard_normal((n, n)), rng.standard_normal(n), x0)
        G = dynamics._record_map(system, 0.1 / n_sub, n_sub)
        a, b = dynamics._lifted(G, _L)[3:]
        inputs = rng.standard_normal((_L, 5)) * rng.uniform(0.0, 2.0)
        reach = a * np.abs(x0).max(axis=0) + b * np.abs(inputs).max()
        step = _record_map_step(G, x0)
        for u in inputs:
            _, state = step(u)
            assert np.all(np.abs(state).max(axis=1) <= reach * (1.0 + 1e-9))

    @staticmethod
    def _growth(breaches):
        """x' = x from one state per model, each past the guard after the record step in
        ``breaches`` (None: never), at dt = 0.1 with one substep per step."""
        g = sum(0.1**k / np.prod(np.arange(1, k + 1)) for k in range(5))   # RK4's factor
        x0 = [1.0 if s is None else 1.0e6 / g ** (s + 0.5) for s in breaches]
        return _Lti([[1.0]], [0.0], [x0])

    @pytest.mark.parametrize("case", [*(f"offset {o}" for o in range(_L)), "back under",
                                      "nan", "last short block"])
    def test_block_map_diverges_where_device_step_does(self, case):
        record = ExcitationRecord(0.1, np.zeros(4 * _L))
        if case.startswith("offset"):   # in the third block, models 1 and 3 first
            s = 2 * _L + int(case.split()[1])
            system, time, indices = self._growth([None, s, None, s, s + 1]), s + 1, [1, 3]
        elif case == "last short block":
            record = ExcitationRecord(0.1, np.zeros(3 * _L + 3))
            system, time, indices = self._growth([3 * _L + 2, None]), 3 * _L + 3, [0]
        elif case == "back under":
            # rotating a quarter turn a block from 45 degrees: models 0 and 2 leave the guard
            # after step 2 and are back under it by the block's end
            omega, angle = np.pi / 2 / (_L * 0.1), np.pi / 4
            radius = np.array([1.05e6, 0.5e6, 1.05e6])
            system = _Lti([[0.0, omega], [-omega, 0.0]], [0.0, 0.0],
                          radius * np.array([[np.cos(angle)], [np.sin(angle)]]))
            time, indices = 3, [0, 2]
            with np.errstate(over="ignore", invalid="ignore"):
                end = _record_map_step(dynamics._record_map(system, 0.01, 10),
                                                system.initial_state())
                for _ in range(_L):
                    _, state = end(0.0)
            assert np.abs(state).max() < dynamics._STATE_GUARD
        else:   # model 1's device gain is NaN: its state is NaN after the first step
            system = _Lti([[-1.0, 0.0], [0.0, -1.0]], [1.0, 0.0], np.ones((2, 3)),
                          gains=np.array([0.0, np.nan, 0.0]))
            record = ExcitationRecord(0.1, np.ones(4 * _L))
            time, indices = 1, [1]
        dt_int = 0.01 if case == "back under" else 0.1
        with pytest.raises(SimulationDivergedError) as expected:
            _on_device_step(system, record, dt_int)
        with pytest.raises(SimulationDivergedError) as got:
            integrate_rk4(system, record, dt_int=dt_int)
        assert got.value.time == expected.value.time == time * 0.1
        assert list(got.value.indices) == list(expected.value.indices) == indices

    def test_flagged_block_that_does_not_diverge_changes_nothing(self):
        # at 0.9e6 the bound flags every block of the rotation; no state leaves the guard
        omega = np.pi / 2 / (_L * 0.1)
        system = _Lti([[0.0, omega], [-omega, 0.0]], [0.0, 1.0],
                      np.array([[0.9e6, 0.3e6], [0.0, 0.2e6]]))
        record = ExcitationRecord(0.1, np.random.default_rng(4).standard_normal(5 * _L + 3))
        replays = []

        def march(step, samples, columns, dt, outputs=None, first=0, march=dynamics._march):
            if outputs is None:
                replays.append((first, len(samples)))
            return march(step, samples, columns, dt, outputs, first)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "_march", march)
            flagged = integrate_rk4(system, record, dt_int=0.01)
            # every block, replayed whole from its start, the last one short
            assert replays == [(k * _L, _L) for k in range(5)] + [(5 * _L, 3)]
            patch.setattr(dynamics, "_STATE_GUARD", np.inf)
            unflagged = integrate_rk4(system, record, dt_int=0.01)
        assert len(replays) == 6   # and none once nothing is flagged
        assert _rel_rms(flagged, unflagged).max() <= 1e-12
        assert _rel_rms(flagged, _on_record_map(system, record, 0.01)).max() <= 1e-12

    def test_divergence_guard(self):
        unstable = _Sdof(0.0, x0=1.0)
        unstable._A = np.diag([5.0, 0.0, 0.0])   # x' = 5 x
        rec = ExcitationRecord(0.5, np.zeros(100))
        with pytest.raises(SimulationDivergedError, match="diverged at t ="):
            integrate_rk4(unstable, rec)

    def test_divergence_guard_names_nan_rows(self):
        # x = t in every model; model 1's device writes sqrt(5.2 - x) into its w rate, NaN
        # once its clock passes 5.2 s; no state leaves the guard
        class _NanAfter(_Sdof):
            device_reads = np.array([0])

            def __init__(self, n_models):
                super().__init__(0.0, v0=1.0, n_models=n_models, nonlinear=True)
                self._E = np.array([[0.0], [0.0], [1.0]])

            def device_kernels(self, rows, outs):
                def bind(out):
                    def kernel():
                        out[0] = 0.0
                        out[0, 1] = np.sqrt(5.2 - rows[0, 1])
                    return kernel
                return [bind(out) for out in outs]

        rec = ExcitationRecord(0.5, np.zeros(20))
        with pytest.raises(SimulationDivergedError) as err:
            integrate_rk4(_NanAfter(n_models=3), rec)
        assert err.value.time == 5.5
        assert list(err.value.indices) == [1]

    def test_device_calls_per_record_step(self):
        # each sample is read from the first RK4 stage, not from an extra evaluation
        sys_ = _CountingSdof(2.0, x0=1.0, nonlinear=True)
        n_steps, n_sub = 30, 4
        integrate_rk4(sys_, ExcitationRecord(0.1, np.zeros(n_steps)), dt_int=0.1 / n_sub)
        assert sys_.calls == n_steps * 4 * n_sub

    @pytest.mark.parametrize("n_steps", [20, 200])
    def test_devices_are_bound_once_per_call(self, n_steps):
        # one kernel per stage output of both W buffers, bound before the first step
        sys_ = _CountingSdof(2.0, x0=1.0, nonlinear=True)
        n_sub = 4
        integrate_rk4(sys_, ExcitationRecord(0.1, np.zeros(n_steps)), dt_int=0.1 / n_sub)
        assert (sys_.binds, sys_.calls) == (1, n_steps * 4 * n_sub)

    @pytest.mark.parametrize("n_steps", [20, 200])
    def test_linear_batch_calls_devices_only_to_probe_its_map(self, building, n_steps):
        # n_states + 1 record steps of the device stepper, whatever the record length
        batch = IsolatedSystem(building, "aashto", k_post=np.array([4.0, 4.5]), c_b=20.0,
                               r_k=0.16, r_d=2.5)
        binds, calls = [], []

        def device_kernels(rows, outs, bind=batch.device_kernels):
            binds.append(rows.shape)

            def counted(kernel):
                def run():
                    calls.append(rows.shape)
                    kernel()
                return run

            return [counted(kernel) for kernel in bind(rows, outs)]

        batch.device_kernels = device_kernels
        n_sub = 4
        integrate_rk4(batch, band_limited_record(n_steps * 0.05, 0.05, seed=3, peak=2.0),
                      dt_int=0.05 / n_sub)
        assert len(binds) == batch.n_states + 1
        assert len(calls) == 4 * n_sub * (batch.n_states + 1)

    def test_simulate_refuses_a_batch_before_integrating(self):
        sys_ = _CountingSdof(2.0, x0=1.0, n_models=3)
        with pytest.raises(ValueError, match="batch of one model"):
            simulate(sys_, ExcitationRecord(0.1, np.zeros(30)))
        assert sys_.calls == 0

    def test_batch_matches_singles(self, building):
        rec = band_limited_record(5.0, 0.05, seed=3, peak=2.0)
        k_posts = np.array([3.5, 4.0, 4.5])
        batch = IsolatedSystem(building, "boucwen", k_post=k_posts,
                               c_b=np.full(3, 20.0), r_k=np.full(3, 0.1667),
                               Q_y=np.full(3, 5.0))
        hb = integrate_rk4(batch, rec, dt_int=0.005)
        for i, kp in enumerate(k_posts):
            iso = IsolatedSystem(building, "boucwen", k_post=kp, c_b=20.0, r_k=0.1667, Q_y=5.0)
            single = simulate(iso, rec, dt_int=0.005)
            # batch and single runs may differ in the last ulp (BLAS kernels)
            np.testing.assert_allclose(hb[i], single.d, rtol=1e-9, atol=1e-12)

    def test_divergence_message_names_first_indices(self):
        err = SimulationDivergedError(1.5, np.arange(500), "boucwen")
        assert len(str(err)) < 200
        assert "(models [0, 1, 2, 3, 4] and 495 more)" in str(err)
        assert "(models [7])" in str(SimulationDivergedError(1.5, [7]))

    def test_linear_variant_runs(self, building):
        rec = band_limited_record(5.0, 0.05, seed=3, peak=2.0)
        iso = IsolatedSystem(building, "aashto", k_post=4.0, c_b=20.0, r_k=0.1667, r_d=2.5)
        out = simulate(iso, rec, dt_int=0.005)
        assert out.by_channel().shape == (rec.n_steps, 1)
        assert np.all(np.isfinite(out.d))


class TestIsolatedBatch:
    @staticmethod
    def _params(variant, n, seed):
        """``n`` draws of the isolator parameters ``variant`` takes."""
        rng = np.random.default_rng(seed)
        params = dict(k_post=rng.uniform(3.5, 5.0, n), c_b=rng.uniform(15.0, 25.0, n),
                      r_k=rng.uniform(0.155, 0.165, n))
        if variant in LINEAR_VARIANTS:
            return dict(params, r_d=rng.uniform(2.0, 3.0, n))
        return dict(params, Q_y=rng.uniform(4.3, 5.2, n))

    @classmethod
    def _batch(cls, building, variant, n, seed, **kw):
        return IsolatedSystem(building, variant, **cls._params(variant, n, seed), **kw)

    def test_stacked_matches_class_batches(self, building):
        rec = band_limited_record(5.0, 0.05, seed=3, peak=3.0)
        systems = [self._batch(building, "boucwen", 3, 1),
                   self._batch(building, "bilinear", 4, 2),
                   self._batch(building, "boucwen", 2, 3, n_pow=2.0)]
        h = simulate_classes(dict(zip("abc", systems)), {None: rec}, dt_int=0.005)[None]
        stacked = np.vstack([h[cid] for cid in "abc"])
        separate = np.vstack([integrate_rk4(s, rec, dt_int=0.005) for s in systems])
        assert stacked.shape == separate.shape == (9, rec.n_steps)
        rel_rms = np.linalg.norm(stacked - separate, axis=1) / np.linalg.norm(separate, axis=1)
        assert rel_rms.max() <= 1e-12

    def test_linear_batch_matches_models_first_formula(self, building):
        # all four equivalent-linear classes in one device batch, against the rate written
        # models first and stepped by four rate calls a substep
        record = band_limited_record(5.0, 0.05, seed=3, peak=3.0)
        params = {variant: self._params(variant, 3, seed)
                  for seed, variant in enumerate(LINEAR_VARIANTS)}
        batch = _stacked([IsolatedSystem(building, variant, **p) for variant, p in params.items()])
        assert batch.variant == "+".join(LINEAR_VARIANTS) and batch.n_models == 12
        got = integrate_rk4(batch, record, dt_int=0.005)
        expected = np.vstack([_rhs_rk4(_ModelsFirstLinear(building, variant, **p), record, 0.005,
                                       rate=_ModelsFirstLinear.rate)
                              for variant, p in params.items()])
        assert got.shape == expected.shape == (12, record.n_steps)
        rel_rms = np.linalg.norm(got - expected, axis=1) / np.linalg.norm(expected, axis=1)
        assert rel_rms.max() <= 1e-12

    def test_models_last_rhs_matches_models_first_kernel(self, building):
        batch = _stacked([self._batch(building, "boucwen", 4, 1),
                          self._batch(building, "bilinear", 3, 2)])
        rng = np.random.default_rng(7)
        state = 0.05 * rng.standard_normal((batch.n_states, batch.n_models))
        state[-1] = rng.uniform(-1.0, 1.0, batch.n_models)
        first = state.T
        vb = batch.n_states - 2
        # the models-first kernel: one isolator row per model, dotted with the state
        iso = np.zeros((batch.n_models, batch.n_states))
        iso[:, vb // 2], iso[:, vb], iso[:, -1] = batch.iso_rows
        for ag in (0.7, rng.standard_normal(batch.n_models)):
            expected = first @ batch._A.T + np.multiply.outer(ag, batch._B)
            expected[:, vb] -= np.einsum("ij,ij->i", first, iso)
            expected[:, -1] = boucwen_rate(first[:, -1], first[:, vb], batch.bw_a,
                                           batch.n_pow_less_one + 1.0)
            got = _device_rhs(batch, state, ag)
            assert got.shape == state.shape
            scale = np.abs(expected).max(axis=0)
            assert np.all(np.abs(got.T - expected).max(axis=0) <= 1e-12 * scale)

    def test_per_model_inputs_match_single_input_runs(self, building):
        records = [band_limited_record(5.0, 0.05, seed=s, peak=p)
                   for s, p in ((3, 2.0), (4, 3.0), (5, 4.0))]
        columns = np.repeat(np.column_stack([r.samples for r in records]), 5, axis=1)
        for variants in (("boucwen", "bilinear"), ("aashto", "caltrans")):
            pair = [self._batch(building, variants[0], 3, 1),
                    self._batch(building, variants[1], 2, 2)]
            batch = _stacked(pair * len(records))
            stacked = integrate_rk4(batch, ExcitationRecord(0.05, columns), dt_int=0.005,
                                    columns=np.arange(15))
            single = np.vstack([integrate_rk4(_stacked(pair), r, dt_int=0.005)
                                for r in records])
            rel_rms = np.linalg.norm(stacked - single, axis=1) / np.linalg.norm(single, axis=1)
            assert rel_rms.max() <= 1e-12, variants
            with pytest.raises(ValueError, match=r"^a 2-d excitation needs columns, one column "
                                                 r"index per model \(15\)$"):
                integrate_rk4(batch, ExcitationRecord(0.05, columns))

    def test_column_indices_match_repeated_columns(self, building):
        # one column index per model drives each model as the repeated columns do: to the
        # bit on the device stepper, to round-off on the block map
        records = [band_limited_record(5.0, 0.05, seed=s, peak=p)
                   for s, p in ((3, 2.0), (4, 3.0), (5, 4.0))]
        columns = np.column_stack([r.samples for r in records])
        index = np.repeat(np.arange(len(records)), 5)
        for variants in (("boucwen", "bilinear"), ("aashto", "caltrans")):
            batch = _stacked([self._batch(building, variants[0], 3, 1),
                              self._batch(building, variants[1], 2, 2)] * len(records))
            got = integrate_rk4(batch, ExcitationRecord(0.05, columns), dt_int=0.005,
                                columns=index)
            repeated = integrate_rk4(batch, ExcitationRecord(0.05, columns[:, index]),
                                     dt_int=0.005, columns=np.arange(index.size))
            if batch.nonlinear:
                np.testing.assert_array_equal(got, repeated)
            else:
                assert _rel_rms(got, repeated).max() <= 1e-12
        for bad, message in ((index[1:], "be one integer per model"), (index + 1, "index the")):
            with pytest.raises(ValueError, match=f"^columns must {message}"):
                integrate_rk4(batch, ExcitationRecord(0.05, columns), columns=bad)

    @classmethod
    def _stepper_case(cls, building, variants, per_model):
        """A batch of three models of each of ``variants``, its record and its columns,
        with ``per_model`` three inputs, each driving a copy of every block through a
        column of its own per model."""
        blocks = [cls._batch(building, variant, 3, seed)
                  for seed, variant in enumerate(variants)]
        record, columns = band_limited_record(5.0, 0.05, seed=3, peak=3.0), None
        if per_model:
            peaks = (1.0, 3.0, 4.0)
            blocks = blocks * len(peaks)
            inputs = np.column_stack([band_limited_record(5.0, 0.05, seed=s, peak=p).samples
                                      for s, p in zip((3, 4, 5), peaks)])
            record = ExcitationRecord(0.05, np.repeat(inputs, 3 * len(variants), axis=1))
            columns = np.arange(record.samples.shape[1])
        return _stacked(blocks), record, columns

    @pytest.mark.parametrize("n_sub", [1, 10])
    @pytest.mark.parametrize("per_model", [False, True])
    @pytest.mark.parametrize("variants", [("boucwen",), ("bilinear",), ("boucwen", "bilinear"),
                                          *((variant,) for variant in LINEAR_VARIANTS)])
    def test_stepper_matches_rhs_loop(self, building, variants, per_model, n_sub):
        batch, record, columns = self._stepper_case(building, variants, per_model)
        got = integrate_rk4(batch, record, dt_int=0.05 / n_sub, columns=columns)
        expected = _rhs_rk4(batch, record, 0.05 / n_sub)
        rel_rms = np.linalg.norm(got - expected, axis=1) / np.linalg.norm(expected, axis=1)
        assert got.shape == expected.shape
        assert rel_rms.max() <= 1e-12

    @pytest.mark.parametrize("n_sub", [1, 10])
    @pytest.mark.parametrize("per_model", [False, True])
    @pytest.mark.parametrize("variant", LINEAR_VARIANTS)
    def test_record_map_matches_device_step(self, building, variant, per_model, n_sub):
        batch, record, columns = self._stepper_case(building, (variant,), per_model)
        assert not batch.nonlinear
        got = integrate_rk4(batch, record, dt_int=0.05 / n_sub, columns=columns)
        expected = _on_device_step(batch, record, 0.05 / n_sub, columns)
        assert got.shape == expected.shape == (batch.n_models, record.n_steps)
        assert _rel_rms(got, expected).max() <= 1e-12

    def test_record_map_diverges_where_device_step_does(self, building):
        # k_post = 5e4 MN/m puts the isolator mode outside RK4's stability region
        aashto = self._batch(building, "aashto", 3, 1)
        unstable = IsolatedSystem(building, "caltrans", k_post=np.array([4.0, 5.0e4]), c_b=20.0,
                                  r_k=0.16, r_d=2.5)
        batch = _stacked([aashto, unstable, aashto, unstable])
        record = band_limited_record(5.0, 0.05, seed=3, peak=3.0)
        with pytest.raises(SimulationDivergedError) as expected:
            _on_device_step(batch, record, 0.005)
        with pytest.raises(SimulationDivergedError) as got:
            integrate_rk4(batch, record, dt_int=0.005)
        assert got.value.time == expected.value.time < record.n_steps * record.dt
        assert list(got.value.indices) == list(expected.value.indices) == [4, 9]

    def test_stepper_diverges_where_rhs_loop_does(self, building):
        boucwen = self._batch(building, "boucwen", 3, 1)
        bilinear = self._batch(building, "bilinear", 3, 2)
        unstable = IsolatedSystem(building, "bilinear", k_post=np.array([4.0, 5.0e4]), c_b=20.0,
                                  r_k=0.16, Q_y=5.0)
        batch = _stacked([boucwen, unstable, bilinear, unstable])
        record = band_limited_record(5.0, 0.05, seed=3, peak=3.0)
        with pytest.raises(SimulationDivergedError) as expected:
            _rhs_rk4(batch, record, 0.005)
        with pytest.raises(SimulationDivergedError) as got:
            integrate_rk4(batch, record, dt_int=0.005)
        assert got.value.time == expected.value.time < record.n_steps * record.dt
        assert list(got.value.indices) == list(expected.value.indices) == [4, 9]

    def test_stacking_refuses_other_building(self, building):
        # the linear and the hysteretic classes run in separate batches, each on one building
        record = band_limited_record(5.0, 0.05, seed=3, peak=3.0)
        taller = ShearBuildingModel(story_masses=(300.0,) * 4, story_stiffnesses=(40.0,) * 4,
                                    base_mass=500.0)
        boucwen = self._batch(building, "boucwen", 2, 1)
        aashto = IsolatedSystem(taller, "aashto", k_post=4.0, c_b=20.0, r_k=0.16, r_d=2.5)
        h = simulate_classes({"boucwen": boucwen, "aashto": aashto}, {None: record}, 0.005)
        assert {cid: y.shape for cid, y in h[None].items()} \
            == {"boucwen": (2, record.n_steps), "aashto": (1, record.n_steps)}
        for cid, other in (("bilinear", self._batch(taller, "bilinear", 2, 2)),
                           ("caltrans", self._batch(building, "caltrans", 2, 2))):
            with pytest.raises(ValueError, match="different buildings"):
                simulate_classes({"boucwen": boucwen, "aashto": aashto, cid: other},
                                 {None: record}, 0.005)

    def test_batch_size_from_every_parameter(self, building):
        sys_q = IsolatedSystem(building, "boucwen", k_post=4.0, c_b=20.0, r_k=0.1667,
                               Q_y=np.array([4.5, 5.0, 5.5]))
        sys_n = IsolatedSystem(building, "boucwen", k_post=4.0, c_b=20.0, r_k=0.1667, Q_y=5.0,
                               n_pow=np.array([1.0, 2.0]))
        sys_d = IsolatedSystem(building, "aashto", k_post=4.0, c_b=20.0, r_k=0.1667,
                               r_d=np.array([2.0, 2.5, 3.0, 3.5]))
        assert (sys_q.n_models, sys_n.n_models, sys_d.n_models) == (3, 2, 4)
        assert sys_q.bw_a.shape == sys_q.n_pow_less_one.shape == (3,)
        with pytest.raises(ValueError, match=r"k_post \(3,\).*Q_y \(4,\)"):
            IsolatedSystem(building, "bilinear", k_post=np.full(3, 4.0), c_b=20.0, r_k=0.16,
                           Q_y=np.full(4, 5.0))

    @pytest.mark.parametrize("variant,extra,message", [
        ("aashto", dict(r_d=2.5, Q_y=5.0), "does not take 'Q_y'; its keys are k_post, c_b, "
                                           "r_k, r_d$"),
        ("boucwen", dict(Q_y=5.0, r_d=2.5), "does not take 'r_d'; its keys are k_post, c_b, "
                                            "r_k, Q_y, n_pow$"),
    ])
    def test_refuses_a_parameter_its_variant_does_not_take(self, building, variant, extra,
                                                           message):
        assert set(extra) - set(IsolatedSystem.PARAMETERS[variant])
        with pytest.raises(ValueError, match=f"^isolator variant '{variant}' {message}"):
            IsolatedSystem(building, variant, k_post=4.0, c_b=20.0, r_k=0.16, **extra)

    def test_refuses_a_batch_without_a_required_parameter(self, building):
        with pytest.raises(ValueError, match="^isolator variant 'boucwen' needs 'k_post'"):
            IsolatedSystem(building, "boucwen", c_b=20.0, r_k=0.16, Q_y=np.full(3, 5.0))

    # an explicit None is not the default n_pow: it converts to NaN
    @pytest.mark.parametrize("key,value", [("k_post", np.array([4.0, np.nan])), ("n_pow", None)])
    def test_refuses_a_parameter_not_finite(self, building, key, value):
        params = dict(k_post=4.0, c_b=20.0, r_k=0.16, Q_y=5.0)
        with pytest.raises(ValueError, match=f"^{key} must be a finite number$"):
            IsolatedSystem(building, "boucwen", **dict(params, **{key: value}))


# ---------------------------------------------------------------------------
# containers, noise, records

class TestContainers:
    def test_excitation_validation(self):
        with pytest.raises(ValueError):
            ExcitationRecord(0.0, np.zeros(10))
        with pytest.raises(ValueError):
            ExcitationRecord(0.1, np.array([1.0, np.nan]))
        for shape in ((), (5, 3, 2)):
            with pytest.raises(ValueError, match="1-d or 2-d"):
                ExcitationRecord(0.1, np.zeros(shape))
        assert ExcitationRecord(0.1, np.zeros((5, 3))).n_steps == 5
        with pytest.raises(ValueError, match="no samples"):
            ExcitationRecord(0.1, np.zeros(0))

    def test_output_round_trip(self):
        out = MeasurementSet(np.arange(10.0), 0.1, ("a", "b"))
        assert out.by_channel().shape == (5, 2)
        assert np.array_equal(out.by_channel()[:, 0], [0.0, 2.0, 4.0, 6.0, 8.0])

    def test_noise_identity_at_zero(self):
        out = MeasurementSet(np.sin(np.arange(100.0)), 0.1)
        d = add_measurement_noise(out, 0.0, np.random.default_rng(1))
        assert np.array_equal(d.d, out.d)
        assert (d.dt, d.channel_names) == (out.dt, out.channel_names)

    def test_noise_std_calibrated(self):
        rng = np.random.default_rng(8)
        out = MeasurementSet(np.sin(0.3 * np.arange(600.0)), 0.05)
        d = add_measurement_noise(out, 0.2, rng)
        added = d.d - out.d
        target = 0.2 * out.d.std()
        assert abs(added.std() - target) / target < 0.12

    def test_noise_deterministic_under_seed(self):
        out = MeasurementSet(np.sin(0.3 * np.arange(200.0)), 0.05)
        a = add_measurement_noise(out, 0.2, np.random.default_rng(5))
        b = add_measurement_noise(out, 0.2, np.random.default_rng(5))
        assert np.array_equal(a.d, b.d)

    def test_band_limited_scaling(self):
        rec = band_limited_record(10.0, 0.05, seed=1, peak=3.42)
        assert np.max(np.abs(rec.samples)) == pytest.approx(3.42)
        rec2 = band_limited_record(10.0, 0.05, seed=1, rms=1.0)
        assert np.sqrt(np.mean(rec2.samples**2)) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# TMD force laws and frame

_TMD_LAW_PARAMS = {   # per-model parameter draws of each law, in the constructor's kN units
    "linear": lambda rng, m: dict(c1=rng.uniform(20.0, 60.0, m)),
    "cubic": lambda rng, m: dict(c1=rng.uniform(5.0, 15.0, m), c3=rng.uniform(500.0, 1000.0, m)),
    "boucwen": lambda rng, m: dict(r_k=rng.uniform(0.15, 0.25, m), Q_y=rng.uniform(6.0, 10.0, m),
                                   k_pre=rng.uniform(400.0, 600.0, m)),
    "power_law_truth": lambda rng, m: dict(power_coef=rng.uniform(150.0, 300.0, m),
                                           power_lin=rng.uniform(2.0, 8.0, m)),
}
_TMD_LAW_PAIRS = [("linear", "linear"), ("cubic", "cubic"), ("boucwen", "boucwen"),
                  ("power_law_truth", "power_law_truth"), ("cubic", "boucwen")]


def _frame_chain_rhs(frame, laws, params, state, wind):
    """The TMD frame's equations of motion written out chain by chain.

    Per chain the models-last state is [X_s, U, V_s, dU] plus one z per
    hysteretic TMD, U the TMD motion relative to the roof; ``wind`` is a
    scalar or one force per model.  The reference for ``TmdFrameSystem``'s rate:
    the state rate and the x and y roof accelerations, shape (2, n_models).
    """
    ns = frame.n_stories
    theta = np.deg2rad(frame.wind_angle_deg)
    shape = (np.arange(1, ns + 1) / ns) ** 0.3
    deriv = np.empty_like(state)
    roofs = []
    offset = 0
    for direction, law, raw, n_tmd, frac, component in (
            ("x", laws[0], params[0], 1, frame.tmd_mass_fraction_x, np.cos(theta)),
            ("y", laws[1], params[1], 2, frame.tmd_mass_fraction_y, np.sin(theta))):
        chain = frame.chain(direction)
        masses = np.asarray(chain.story_masses) * 1.0e3
        m_tmd = frac * ns * frame.story_mass * 1.0e3
        omega_t = chain.fixed_base_frequencies()[0] / (1.0 + m_tmd / masses.sum())
        k_tmd = m_tmd * omega_t**2
        n_dof, n_z = ns + n_tmd, (n_tmd if law == "boucwen" else 0)
        X, V = state[offset:offset + n_dof], state[offset + n_dof:offset + 2 * n_dof]
        Z = state[offset + 2 * n_dof:offset + 2 * n_dof + n_z]
        Xs, U, Vs, dU = X[:ns], X[ns:], V[:ns], V[ns:]
        si = {key: np.asarray(value) * 1.0e3 for key, value in raw.items()}   # kN -> N
        if law == "linear":
            f_dev = si["c1"] * dU
        elif law == "cubic":
            f_dev = si["c3"] * dU**3 + si["c1"] * dU
        elif law == "power_law_truth":
            f_dev = si["power_coef"] * np.abs(dU) ** 0.8 * np.sign(dU) + si["power_lin"] * dU
        else:
            r_k, Qy = np.asarray(raw["r_k"]), raw["Q_y"] / 100.0 * m_tmd * 9.80665
            f_dev = r_k * si["k_pre"] * U + Qy * (1.0 - r_k) * Z
            a = si["k_pre"] / Qy
            deriv[offset + 2 * n_dof:offset + 2 * n_dof + n_z] = boucwen_rate(Z, dU, a, 1.0)
        f_tmd = k_tmd * U + f_dev                # what the TMDs apply to the roof
        load = shape[:, None] * (wind * component)
        acc_s = (-chain.damping_matrix() @ Vs - chain.stiffness_matrix() @ Xs + load) \
            / masses[:, None]
        acc_s[-1] += f_tmd.sum(axis=0) / masses[-1]
        deriv[offset:offset + n_dof] = V
        deriv[offset + n_dof:offset + n_dof + ns] = acc_s
        deriv[offset + n_dof + ns:offset + 2 * n_dof] = -f_tmd / m_tmd - acc_s[-1]
        roofs.append(acc_s[-1])
        offset += 2 * n_dof + n_z
    assert offset == state.shape[0]
    return deriv, np.array(roofs)


class TestTmd:
    @staticmethod
    def _frame_batch(laws, m, seed, tiles=1):
        """A TMD frame batch of ``m`` models with distinct per-model parameters,
        the batch repeated ``tiles`` times, and its parameters."""
        rng = np.random.default_rng(seed)
        params = [{key: np.tile(value, tiles) for key, value in
                   _TMD_LAW_PARAMS[law](rng, m).items()} for law in laws]
        system = TmdFrameSystem(TmdFrameModel(), *laws, params_x=params[0],
                                params_y=params[1], n_models=m * tiles)
        return system, params

    @pytest.mark.parametrize("laws", _TMD_LAW_PAIRS, ids="-".join)
    def test_rhs_matches_chain_equations(self, laws):
        system, params = self._frame_batch(laws, 5, 1)
        rng = np.random.default_rng(2)
        state = 0.05 * rng.standard_normal((system.n_states, system.n_models))
        # the z rows trail each chain's 2 (n_stories + n_tmd) rows; |z| > 1 is clipped
        ns = system.frame.n_stories
        if laws[0] == "boucwen":
            state[2 * (ns + 1)] = rng.uniform(-1.5, 1.5, system.n_models)
        if laws[1] == "boucwen":
            state[-2:] = rng.uniform(-1.5, 1.5, (2, system.n_models))
        for wind in (80.0e3, rng.normal(0.0, 1.0e5, system.n_models)):
            expected, roofs = _frame_chain_rhs(system.frame, laws, params, state, wind)
            got = _device_rhs(system, state, wind)
            assert got.shape == state.shape
            scale = np.abs(expected).max(axis=1, keepdims=True)
            assert np.all(np.abs(got - expected) <= 1e-12 * scale)
            # the outputs are the roof accelerations, with no input feedthrough
            np.testing.assert_array_equal(expected[system.output_rows], roofs)
            assert not system.feedthrough.any()

    @pytest.mark.parametrize("per_model", [False, True])
    @pytest.mark.parametrize("laws", _TMD_LAW_PAIRS, ids="-".join)
    def test_stepper_matches_rhs_loop(self, laws, per_model):
        rms = (50.0e3, 100.0e3, 200.0e3) if per_model else (100.0e3,)
        system, _ = self._frame_batch(laws, 3, 1, tiles=len(rms))
        winds = [band_limited_record(10.0, 0.1, band=(0.1, 1.0), seed=6 + i, rms=r)
                 for i, r in enumerate(rms)]
        record, columns = winds[0], None
        if per_model:   # each wind drives one copy of the three models
            record = ExcitationRecord(0.1, np.repeat(np.column_stack([w.samples for w in winds]),
                                                     3, axis=1))
            columns = np.arange(system.n_models)
        got = integrate_rk4(system, record, dt_int=0.025, columns=columns)
        expected = _rhs_rk4(system, record, 0.025)
        assert got.shape == expected.shape == (system.n_models, 2 * record.n_steps)
        rel_rms = np.linalg.norm(got - expected, axis=1) / np.linalg.norm(expected, axis=1)
        assert rel_rms.max() <= 1e-12

    @pytest.mark.parametrize("per_model", [False, True])
    def test_linear_frame_record_map_matches_device_step(self, per_model):
        rms = (50.0e3, 100.0e3) if per_model else (100.0e3,)
        system, _ = self._frame_batch(("linear", "linear"), 3, 1, tiles=len(rms))
        winds = [band_limited_record(10.0, 0.1, band=(0.1, 1.0), seed=6 + i, rms=r)
                 for i, r in enumerate(rms)]
        record = ExcitationRecord(0.1, np.repeat(np.column_stack([w.samples for w in winds]),
                                                 3, axis=1)) if per_model else winds[0]
        columns = np.arange(system.n_models) if per_model else None
        assert not system.nonlinear
        assert all(self._frame_batch(laws, 1, 1)[0].nonlinear
                   for laws in _TMD_LAW_PAIRS if laws != ("linear", "linear"))
        got = integrate_rk4(system, record, dt_int=0.025, columns=columns)
        expected = _on_device_step(system, record, 0.025, columns)
        assert got.shape == expected.shape == (system.n_models, 2 * record.n_steps)
        assert _rel_rms(got, expected).max() <= 1e-12

    @pytest.mark.parametrize("n_steps", [1, _L - 1, _L, _L + 1, 5 * _L + 3])
    @pytest.mark.parametrize("per_model", [False, True])
    def test_linear_frame_block_map_matches_record_map_steps(self, n_steps, per_model):
        # two channels from a non-zero state, on one wind or on a column per copy
        system, _ = self._frame_batch(("linear", "linear"), 3, 1, tiles=2 if per_model else 1)
        rng = np.random.default_rng(n_steps)
        x0 = 0.01 * rng.standard_normal((system.n_states, system.n_models))
        system.initial_state = lambda: x0.copy()
        columns = np.repeat([0, 1], 3) if per_model else None
        record = ExcitationRecord(0.1, rng.normal(0.0, 1.0e5, (n_steps, 2) if per_model
                                                  else n_steps))
        got = integrate_rk4(system, record, dt_int=0.025, columns=columns)
        expected = _on_record_map(system, record, 0.025, columns)
        assert got.shape == expected.shape == (system.n_models, 2 * n_steps)
        assert _rel_rms(got, expected).max() <= 1e-12

    def test_stepper_diverges_where_rhs_loop_does(self):
        # a strongly negative TMD damping pumps energy in until the state leaves the guard
        c1 = np.array([30.0, -6000.0, 40.0, -6000.0])
        system = TmdFrameSystem(TmdFrameModel(), "linear", "linear", params_x=dict(c1=c1),
                                params_y=dict(c1=15.0), n_models=4)
        wind = band_limited_record(10.0, 0.1, band=(0.1, 1.0), seed=6, rms=100.0e3)
        with pytest.raises(SimulationDivergedError) as expected:
            _rhs_rk4(system, wind, 0.025)
        with pytest.raises(SimulationDivergedError) as got:
            integrate_rk4(system, wind, dt_int=0.025)
        assert got.value.time == expected.value.time < wind.n_steps * wind.dt
        assert list(got.value.indices) == list(expected.value.indices) == [1, 3]

    def test_refuses_unknown_law(self):
        laws = "linear, cubic, boucwen, power_law_truth"
        with pytest.raises(ValueError, match=f"y TMD: unknown damping law 'quadratic'; "
                                             f"the laws are {laws}"):
            TmdFrameSystem(TmdFrameModel(), "linear", "quadratic", params_x=dict(c1=30.0),
                           params_y=dict(c1=15.0))

    @pytest.mark.parametrize("law,params,message", [
        ("linear", dict(C1=30.0), "law 'linear' does not take 'C1'; its keys are c1"),
        ("cubic", dict(c1=10.0), "law 'cubic' needs 'c3'; its keys are c1, c3"),
        ("boucwen", dict(r_k=0.2, Q_y=8.0, k_pre=500.0, n_pow=2.0),
         "law 'boucwen' does not take 'n_pow'; its keys are r_k, Q_y, k_pre"),
    ], ids=("misspelt", "missing", "general-law"))
    def test_refuses_keys_the_law_does_not_take_or_lacks(self, law, params, message):
        with pytest.raises(ValueError, match=f"x TMD: {message}"):
            TmdFrameSystem(TmdFrameModel(), law, "linear", params_x=params,
                           params_y=dict(c1=15.0))

    @pytest.mark.parametrize("c1,shape", [(np.full(3, 30.0), r"\(3,\)"),
                                          (np.full((2, 2), 30.0), r"\(2, 2\)")],
                             ids=("length-3", "2-d"))
    def test_refuses_arrays_not_one_per_model(self, c1, shape):
        with pytest.raises(ValueError, match=f"y TMD: c1 has shape {shape}; give one value "
                                             r"or one per model \(2\)"):
            TmdFrameSystem(TmdFrameModel(), "linear", "linear", params_x=dict(c1=[30.0]),
                           params_y=dict(c1=c1), n_models=2)

    @pytest.mark.parametrize("law,kw", [
        ("linear", dict(c1=3.0)),
        ("cubic", dict(c1=3.0, c3=2.0)),
        ("power_law_truth", dict(power_coef=200.0, power_lin=30.0)),
    ])
    def test_odd_laws_vanish_at_rest(self, law, kw):
        assert tmd_force(law, 0.0, **kw) == 0.0

    def test_cubic_reduces_to_linear(self):
        du = np.linspace(-2, 2, 11)
        assert np.array_equal(tmd_force("cubic", du, c1=5.0, c3=0.0),
                              tmd_force("linear", du, c1=5.0))

    def test_power_law_reference_point(self):
        assert tmd_force("power_law_truth", 1.0, power_coef=200.0, power_lin=30.0) \
            == pytest.approx(230.0)

    def test_frame_simulation_runs(self):
        frame = TmdFrameModel(n_stories=20)
        wind = band_limited_record(10.0, 0.05, band=(0.1, 1.0), seed=6,
                                   rms=100.0e3, label="wind")
        sys_ = TmdFrameSystem(frame, "power_law_truth", "power_law_truth",
                              params_x=dict(power_coef=200.0, power_lin=30.0),
                              params_y=dict(power_coef=100.0, power_lin=15.0))
        h = integrate_rk4(sys_, wind, dt_int=0.01)
        assert h.shape == (1, 2 * wind.n_steps)
        assert np.all(np.isfinite(h)) and np.any(h != 0.0)

    def test_frame_laws_differ(self):
        frame = TmdFrameModel(n_stories=20)
        wind = band_limited_record(10.0, 0.05, band=(0.1, 1.0), seed=6, rms=100.0e3)
        base = dict(params_y=dict(c1=15.0))
        a = integrate_rk4(TmdFrameSystem(frame, "linear", "linear",
                                         params_x=dict(c1=30.0), **base), wind, dt_int=0.01)
        b = integrate_rk4(TmdFrameSystem(frame, "cubic", "linear",
                                         params_x=dict(c1=30.0, c3=50.0), **base),
                          wind, dt_int=0.01)
        assert not np.array_equal(a, b)

    def test_frame_hysteretic_law_runs(self):
        frame = TmdFrameModel(n_stories=20)
        wind = band_limited_record(10.0, 0.05, band=(0.1, 1.0), seed=6, rms=100.0e3)
        sys_ = TmdFrameSystem(frame, "boucwen", "linear",
                              params_x=dict(r_k=0.2, Q_y=5.0, k_pre=500.0),
                              params_y=dict(c1=15.0))
        h = integrate_rk4(sys_, wind, dt_int=0.01)
        assert np.all(np.isfinite(h))
