import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from falsikit.dynamics import (LINEAR_VARIANTS, ExcitationRecord, IsolatedSystem,
                               ShearBuildingModel, SimulationDivergedError, SimulationOutput,
                               TmdFrameModel, TmdFrameSystem, add_measurement_noise,
                               band_limited_record, boucwen_rate,
                               equivalent_linear_params, integrate_rk4, simulate,
                               tmd_force, _boucwen)


# ---------------------------------------------------------------------------
# helpers

class _Sdof:
    """Linear SDOF x'' + 2 zeta omega x' + omega^2 x = u(t), batched trivially."""

    channel_names = ("disp",)

    def __init__(self, omega, zeta=0.0, x0=0.0, v0=0.0, n_models=1):
        self.omega, self.zeta = omega, zeta
        self.x0, self.v0 = x0, v0
        self.n_models = n_models

    def initial_state(self):
        s = np.zeros((self.n_models, 2))
        s[:, 0], s[:, 1] = self.x0, self.v0
        return s

    def rhs(self, state, u):
        d = np.empty_like(state)
        d[:, 0] = state[:, 1]
        d[:, 1] = u - 2.0 * self.zeta * self.omega * state[:, 1] \
            - self.omega**2 * state[:, 0]
        return d

    def output(self, state, deriv, u):
        return state[:, :1]


class _CountingSdof(_Sdof):
    """``_Sdof`` that counts its ``rhs`` calls."""

    calls = 0

    def rhs(self, state, u):
        self.calls += 1
        return super().rhs(state, u)


def _rhs_rk4(system, record, dt_int):
    """The generic four-``rhs`` RK4 loop on a models-last device system.

    The reference for the precomputed stepper of ``integrate_rk4``: the same
    zero-order hold, outputs k_1[output_rows] + feedthrough u and divergence
    guard, evaluated stage by stage through the system's ``rhs``.
    """
    n_sub = max(1, int(round(record.dt / dt_int)))
    h = record.dt / n_sub
    state = system.initial_state()
    outputs = np.empty((system.n_models, record.n_steps, system.output_rows.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for k, u in enumerate(record.samples):
            for j in range(n_sub):
                k1 = system.rhs(state, u)
                if j == 0:
                    outputs[:, k] = (k1[system.output_rows]
                                     + system.feedthrough[:, None] * u).T
                k2 = system.rhs(state + 0.5 * h * k1, u)
                k3 = system.rhs(state + 0.5 * h * k2, u)
                k4 = system.rhs(state + h * k3, u)
                state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            bad = ~np.all(np.isfinite(state), axis=0) | (np.abs(state).max(axis=0) > 1.0e6)
            if np.any(bad):
                raise SimulationDivergedError((k + 1) * record.dt, np.nonzero(bad)[0])
    return outputs.reshape(system.n_models, -1)


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
        # the in-place path computes the same numbers into the caller's buffers
        out, work = np.empty_like(z), np.full((3, z.size), np.nan)
        assert _boucwen(z, v, a, n_pow - 1.0, out=out, work=work) is out
        np.testing.assert_array_equal(out, _boucwen(z, v, a, n_pow - 1.0))

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
        x = out.values
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

    def test_free_vibration_energy_nonincreasing(self):
        omega, zeta = 2.0 * np.pi, 0.02
        rec = ExcitationRecord(0.01, np.zeros(2000))
        sys_ = _Sdof(omega, zeta, x0=1.0)
        # collect full state by stepping manually through the same integrator
        state = sys_.initial_state()
        energies = []
        h = 0.01
        for k in range(2000):
            energies.append(0.5 * state[0, 1] ** 2 + 0.5 * omega**2 * state[0, 0] ** 2)
            k1 = sys_.rhs(state, 0.0)
            k2 = sys_.rhs(state + h / 2 * k1, 0.0)
            k3 = sys_.rhs(state + h / 2 * k2, 0.0)
            k4 = sys_.rhs(state + h * k3, 0.0)
            state = state + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        e = np.array(energies)
        assert np.all(np.diff(e) <= 1e-6 * e[0])

    def test_divergence_guard(self):
        class _Unstable:
            channel_names = ("x",)
            n_models = 1

            def initial_state(self):
                return np.ones((1, 1))

            def rhs(self, state, u):
                return 5.0 * state

            def output(self, state, deriv, u):
                return state

        rec = ExcitationRecord(0.5, np.zeros(100))
        with pytest.raises(SimulationDivergedError, match="diverged at t ="):
            integrate_rk4(_Unstable(), rec)

    def test_divergence_guard_names_nan_rows(self):
        # model 1's rate turns NaN once its clock passes 5.2 s; no state leaves the guard
        class _NanAfter(_Sdof):
            def rhs(self, state, u):
                deriv = np.zeros_like(state)
                deriv[:, 0] = 1.0
                deriv[1, 1] = np.sqrt(5.2 - state[1, 0])
                return deriv

        rec = ExcitationRecord(0.5, np.zeros(20))
        with pytest.raises(SimulationDivergedError) as err:
            integrate_rk4(_NanAfter(1.0, n_models=3), rec)
        assert err.value.time == 5.5
        assert list(err.value.indices) == [1]

    def test_rhs_calls_per_record_step(self):
        # each sample is read from the first RK4 stage, not from an extra rhs call
        sys_ = _CountingSdof(2.0, x0=1.0)
        n_steps, n_sub = 30, 4
        integrate_rk4(sys_, ExcitationRecord(0.1, np.zeros(n_steps)), dt_int=0.1 / n_sub)
        assert sys_.calls == n_steps * 4 * n_sub

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
            np.testing.assert_allclose(hb[i], single.values, rtol=1e-9, atol=1e-12)

    def test_divergence_message_names_first_indices(self):
        err = SimulationDivergedError(1.5, np.arange(500), "boucwen")
        assert len(str(err)) < 200
        assert "(models [0, 1, 2, 3, 4] and 495 more)" in str(err)
        assert "(models [7])" in str(SimulationDivergedError(1.5, [7]))

    def test_linear_variant_runs(self, building):
        rec = band_limited_record(5.0, 0.05, seed=3, peak=2.0)
        iso = IsolatedSystem(building, "aashto", k_post=4.0, c_b=20.0, r_k=0.1667, r_d=2.5)
        out = simulate(iso, rec, dt_int=0.005)
        assert out.n_samples == rec.n_steps
        assert np.all(np.isfinite(out.values))


class TestIsolatedBatch:
    @staticmethod
    def _hysteretic(building, variant, n, seed, **kw):
        rng = np.random.default_rng(seed)
        return IsolatedSystem(building, variant, k_post=rng.uniform(3.5, 5.0, n),
                              c_b=rng.uniform(15.0, 25.0, n), r_k=rng.uniform(0.155, 0.165, n),
                              Q_y=rng.uniform(4.3, 5.2, n), **kw)

    def test_stacked_matches_class_batches(self, building):
        rec = band_limited_record(5.0, 0.05, seed=3, peak=3.0)
        systems = [self._hysteretic(building, "boucwen", 3, 1),
                   self._hysteretic(building, "bilinear", 4, 2),
                   self._hysteretic(building, "boucwen", 2, 3, n_pow=2.0)]
        batch = IsolatedSystem.stacked(systems)
        assert batch.n_models == 9
        stacked = integrate_rk4(batch, rec, dt_int=0.005)
        separate = np.vstack([integrate_rk4(s, rec, dt_int=0.005) for s in systems])
        rel_rms = np.linalg.norm(stacked - separate, axis=1) / np.linalg.norm(separate, axis=1)
        assert rel_rms.max() <= 1e-12

    def test_models_last_rhs_matches_models_first_kernel(self, building):
        batch = IsolatedSystem.stacked([self._hysteretic(building, "boucwen", 4, 1),
                                        self._hysteretic(building, "bilinear", 3, 2)])
        assert batch.model_axis == 1
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
            got = batch.rhs(state, ag)
            assert got.shape == state.shape
            scale = np.abs(expected).max(axis=0)
            assert np.all(np.abs(got.T - expected).max(axis=0) <= 1e-12 * scale)

    def test_per_model_inputs_match_single_input_runs(self, building):
        pair = [self._hysteretic(building, "boucwen", 3, 1),
                self._hysteretic(building, "bilinear", 2, 2)]
        records = [band_limited_record(5.0, 0.05, seed=s, peak=p)
                   for s, p in ((3, 2.0), (4, 3.0), (5, 4.0))]
        batch = IsolatedSystem.stacked(pair * len(records))
        columns = np.repeat(np.column_stack([r.samples for r in records]), 5, axis=1)
        stacked = integrate_rk4(batch, ExcitationRecord(0.05, columns, per_model=True),
                                dt_int=0.005)
        single = np.vstack([integrate_rk4(IsolatedSystem.stacked(pair), r, dt_int=0.005)
                            for r in records])
        rel_rms = np.linalg.norm(stacked - single, axis=1) / np.linalg.norm(single, axis=1)
        assert rel_rms.max() <= 1e-12
        with pytest.raises(ValueError, match="14 columns needs .* not 15 with model axis 1"):
            integrate_rk4(batch, ExcitationRecord(0.05, columns[:, 1:], per_model=True))
        linear = IsolatedSystem(building, "aashto", k_post=np.full(15, 4.0), c_b=20.0,
                                r_k=0.16, r_d=2.5)
        with pytest.raises(ValueError, match="models-last system"):
            integrate_rk4(linear, ExcitationRecord(0.05, columns, per_model=True))

    @pytest.mark.parametrize("n_sub", [1, 10])
    @pytest.mark.parametrize("per_model", [False, True])
    @pytest.mark.parametrize("variants", [("boucwen",), ("bilinear",), ("boucwen", "bilinear")])
    def test_stepper_matches_rhs_loop(self, building, variants, per_model, n_sub):
        blocks = [self._hysteretic(building, variant, 3, seed)
                  for seed, variant in enumerate(variants)]
        record = band_limited_record(5.0, 0.05, seed=3, peak=3.0)
        if per_model:   # three inputs, each driving a copy of every block
            peaks = (1.0, 3.0, 4.0)
            blocks = blocks * len(peaks)
            columns = np.column_stack([band_limited_record(5.0, 0.05, seed=s, peak=p).samples
                                       for s, p in zip((3, 4, 5), peaks)])
            record = ExcitationRecord(0.05, np.repeat(columns, 3 * len(variants), axis=1),
                                      per_model=True)
        batch = IsolatedSystem.stacked(blocks)
        got = integrate_rk4(batch, record, dt_int=0.05 / n_sub)
        expected = _rhs_rk4(batch, record, 0.05 / n_sub)
        rel_rms = np.linalg.norm(got - expected, axis=1) / np.linalg.norm(expected, axis=1)
        assert got.shape == expected.shape
        assert rel_rms.max() <= 1e-12

    def test_stepper_diverges_where_rhs_loop_does(self, building):
        boucwen = self._hysteretic(building, "boucwen", 3, 1)
        bilinear = self._hysteretic(building, "bilinear", 3, 2)
        unstable = IsolatedSystem(building, "bilinear", k_post=np.array([4.0, 5.0e4]), c_b=20.0,
                                  r_k=0.16, Q_y=5.0)
        batch = IsolatedSystem.stacked([boucwen, unstable, bilinear, unstable])
        record = band_limited_record(5.0, 0.05, seed=3, peak=3.0)
        with pytest.raises(SimulationDivergedError) as expected:
            _rhs_rk4(batch, record, 0.005)
        with pytest.raises(SimulationDivergedError) as got:
            integrate_rk4(batch, record, dt_int=0.005)
        assert got.value.time == expected.value.time < record.duration
        assert list(got.value.indices) == list(expected.value.indices) == [4, 9]

    def test_stacked_refuses_linear_and_other_building(self, building):
        boucwen = self._hysteretic(building, "boucwen", 2, 1)
        aashto = IsolatedSystem(building, "aashto", k_post=4.0, c_b=20.0, r_k=0.16, r_d=2.5)
        with pytest.raises(ValueError, match="linear variant 'aashto'"):
            IsolatedSystem.stacked([boucwen, aashto])
        taller = ShearBuildingModel(story_masses=(300.0,) * 4, story_stiffnesses=(40.0,) * 4,
                                    base_mass=500.0)
        with pytest.raises(ValueError, match="different buildings"):
            IsolatedSystem.stacked([boucwen, self._hysteretic(taller, "bilinear", 2, 2)])

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


# ---------------------------------------------------------------------------
# containers, noise, records

class TestContainers:
    def test_excitation_validation(self):
        with pytest.raises(ValueError):
            ExcitationRecord(0.0, np.zeros(10))
        with pytest.raises(ValueError):
            ExcitationRecord(0.1, np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            ExcitationRecord(0.1, np.zeros((5, 2)))
        with pytest.raises(ValueError, match="per-model"):
            ExcitationRecord(0.1, np.zeros(5), per_model=True)
        assert ExcitationRecord(0.1, np.zeros((5, 3)), per_model=True).n_steps == 5
        with pytest.raises(ValueError, match="no samples"):
            ExcitationRecord(0.1, np.zeros(0))

    def test_output_round_trip(self):
        out = SimulationOutput(0.1, np.arange(10.0), ("a", "b"))
        assert out.n_samples == 5
        assert np.array_equal(out.by_channel()[:, 0], [0.0, 2.0, 4.0, 6.0, 8.0])

    def test_noise_identity_at_zero(self):
        out = SimulationOutput(0.1, np.sin(np.arange(100.0)))
        d = add_measurement_noise(out, 0.0, np.random.default_rng(1))
        assert np.array_equal(d.d, out.values)

    def test_noise_std_calibrated(self):
        rng = np.random.default_rng(8)
        out = SimulationOutput(0.05, np.sin(0.3 * np.arange(600.0)))
        d = add_measurement_noise(out, 0.2, rng)
        added = d.d - out.values
        target = 0.2 * out.values.std()
        assert abs(added.std() - target) / target < 0.12

    def test_noise_deterministic_under_seed(self):
        out = SimulationOutput(0.05, np.sin(0.3 * np.arange(200.0)))
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
    scalar or one force per model.  The reference for ``TmdFrameSystem.rhs``:
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
            got = system.rhs(state, wind)
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
        record = winds[0]
        if per_model:   # each wind drives one copy of the three models
            record = ExcitationRecord(0.1, np.repeat(np.column_stack([w.samples for w in winds]),
                                                     3, axis=1), per_model=True)
        got = integrate_rk4(system, record, dt_int=0.025)
        expected = _rhs_rk4(system, record, 0.025)
        assert got.shape == expected.shape == (system.n_models, 2 * record.n_steps)
        rel_rms = np.linalg.norm(got - expected, axis=1) / np.linalg.norm(expected, axis=1)
        assert rel_rms.max() <= 1e-12

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
        assert got.value.time == expected.value.time < wind.duration
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
