"""Acceptance suite: one test per release criterion, each printing a verdict line.

The replica scenario is a three-story shear building on a hysteretic isolation
layer.  The true system is a smooth hysteretic (evolutionary-variable) isolator;
six candidate model classes compete: the true family, its sharp-transition
bilinear limit, and four code-specified equivalent-linear idealizations.
"""

import math
import time

import numpy as np
import pytest

from falsikit.dynamics import (IsolatedSystem, add_measurement_noise, band_limited_record,
                               boucwen_rate, equivalent_linear_params,
                               integrate_rk4, simulate)
from falsikit.falsification import (FdrConfig, ResidualNoiseModel, falsify,
                                    falsify_classes, likelihood_bound,
                                    log_likelihood, p_values, residuals)
from falsikit.modal import ModalResult, mac, modal_residual, solve_modes
from falsikit.prediction import (estimate_parameters, post_falsification_weights,
                                 predict_response, relative_rms_error)
from falsikit.priors import EnsembleSpec, ModelClassSpec, PriorSpec, generate_ensemble

# ---------------------------------------------------------------------------
# frozen replica scenario

ALPHA = 0.05
N_S = 500
MASTER_SEED = 2024
DT = 0.05
DURATION = 30.0
TRUE_THETA = np.array([4.0, 20.0, 0.1667, 5.0])   # k_post, c_b, r_k, Q_y
NOISE_FRACTION = 0.20
SIGMA_FRACTION = 0.15
NOISE_SEEDS = tuple(range(100, 105))

NONLINEAR_PRIORS = dict(
    k_post=PriorSpec("lognormal", 4.5, 0.25),
    c_b=PriorSpec("lognormal", 20.0, 4.0),
    r_k=PriorSpec("uniform", 0.16, 0.0058),
    Q_y=PriorSpec("uniform", 4.75, 0.2887),
)
LINEAR_PRIORS = dict(
    k_post=PriorSpec("lognormal", 4.5, 0.25),
    c_b=PriorSpec("lognormal", 20.0, 4.0),
    r_k=PriorSpec("uniform", 0.16, 0.0058),
    r_d=PriorSpec("uniform", 2.5, 0.2887),
)
CLASS_IDS = ("boucwen", "bilinear", "aashto", "jpwri", "modified_aashto", "caltrans")


def _class_specs():
    specs = []
    for cid in CLASS_IDS:
        priors = NONLINEAR_PRIORS if cid in ("boucwen", "bilinear") else LINEAR_PRIORS
        specs.append(ModelClassSpec(cid, tuple(priors), tuple(priors.values()), cid))
    return specs


def _system(class_spec, theta, building):
    names = list(class_spec.parameter_names)
    kwargs = {name: theta[:, i] for i, name in enumerate(names)}
    return IsolatedSystem(building, class_spec.physics_binding, **kwargs)


@pytest.fixture(scope="module")
def scenario(building):
    calibration = band_limited_record(DURATION, DT, band=(0.35, 1.5), seed=11,
                                      peak=2.0, label="calibration")
    prediction = band_limited_record(DURATION, DT, band=(0.35, 1.5), seed=23,
                                     peak=4.0, label="prediction")
    truth = IsolatedSystem(building, "boucwen", k_post=TRUE_THETA[0], c_b=TRUE_THETA[1],
                           r_k=TRUE_THETA[2], Q_y=TRUE_THETA[3])
    truth_cal = simulate(truth, calibration)
    truth_pred = simulate(truth, prediction)
    return dict(building=building, calibration=calibration, prediction=prediction,
                truth_cal=truth_cal, truth_pred=truth_pred)


@pytest.fixture(scope="module")
def replica(scenario):
    """Ensemble generation, calibration simulations, and falsification, timed."""
    building = scenario["building"]
    specs = _class_specs()
    t0 = time.perf_counter()
    thetas = generate_ensemble(EnsembleSpec(tuple(specs), N_S, MASTER_SEED))
    h_by_class = {s.class_id: integrate_rk4(_system(s, thetas[s.class_id], building),
                                            scenario["calibration"])
                  for s in specs}
    d = add_measurement_noise(scenario["truth_cal"], NOISE_FRACTION,
                              np.random.default_rng(NOISE_SEEDS[0]))
    noise = ResidualNoiseModel.per_channel(
        tuple(SIGMA_FRACTION * d.by_channel().std(axis=0)))
    verdicts = falsify_classes({cid: residuals(h, d) for cid, h in h_by_class.items()},
                               noise, FdrConfig(ALPHA))
    elapsed = time.perf_counter() - t0
    return dict(specs={s.class_id: s for s in specs}, thetas=thetas,
                h_by_class=h_by_class, d=d, noise=noise, verdicts=verdicts,
                elapsed=elapsed)


@pytest.fixture(scope="module")
def prediction_members(scenario, replica):
    """All candidate-family member responses under the prediction record."""
    spec = replica["specs"]["boucwen"]
    system = _system(spec, replica["thetas"]["boucwen"], scenario["building"])
    return integrate_rk4(system, scenario["prediction"])


# ---------------------------------------------------------------------------
# criteria

def test_criterion_01_replica_falsification(replica):
    verdicts = replica["verdicts"]
    fractions = {cid: float(verdicts[cid].unfalsified.mean()) for cid in CLASS_IDS}
    for cid in ("aashto", "jpwri", "modified_aashto", "caltrans"):
        assert fractions[cid] == 0.0, f"{cid} should be fully falsified"
    assert fractions["boucwen"] >= 0.50
    assert 0.0 < fractions["bilinear"] <= 0.25
    assert replica["elapsed"] <= 300.0
    print(f"criterion 1: PASS - unfalsified fractions "
          f"{ {c: round(100 * f, 1) for c, f in fractions.items()} } %, "
          f"runtime {replica['elapsed']:.1f} s")


def test_criterion_02_prediction_accuracy(scenario, replica, prediction_members):
    theta = replica["thetas"]["boucwen"]
    truth = scenario["truth_pred"].values
    medians = []
    for fraction in (0.0, 0.10, 0.20):
        errors = []
        for seed in NOISE_SEEDS:
            d = add_measurement_noise(scenario["truth_cal"], fraction,
                                      np.random.default_rng(seed))
            noise = ResidualNoiseModel.per_channel(
                tuple(SIGMA_FRACTION * d.by_channel().std(axis=0)))
            verdicts = falsify("boucwen",
                               residuals(replica["h_by_class"]["boucwen"], d),
                               noise, FdrConfig(ALPHA))
            ensemble = post_falsification_weights(verdicts)
            members = prediction_members[np.asarray(ensemble.sample_indices)]
            pred = predict_response(ensemble, members, DT)
            errors.append(relative_rms_error(truth, pred.q_hat))
        medians.append(float(np.median(errors)))
    assert all(m <= 0.03 for m in medians)
    assert medians[0] >= medians[1] >= medians[2]
    print(f"criterion 2: PASS - median relative RMS error "
          f"{[round(100 * m, 3) for m in medians]} % over noise (0, 10, 20)%")


def test_criterion_03_parameter_recovery(replica):
    ensemble = post_falsification_weights(replica["verdicts"]["boucwen"])
    estimate = estimate_parameters(ensemble, replica["thetas"]["boucwen"])
    rel = np.abs(estimate - TRUE_THETA) / TRUE_THETA
    assert np.all(rel <= 0.10), f"estimate {estimate} vs true {TRUE_THETA}"
    print(f"criterion 3: PASS - estimates {np.round(estimate, 4)} within "
          f"{100 * rel.max():.2f}% of the true parameters")


def test_criterion_04_fdr_control():
    n_obs, trials = 600, 1000
    config = FdrConfig(ALPHA)
    levels = np.arange(1, n_obs + 1) / n_obs * config.alpha
    rng = np.random.default_rng(2026)
    eps = rng.standard_normal((trials, n_obs))
    noise = ResidualNoiseModel.iid(1.0)
    p_sorted = np.sort(p_values(eps, noise), axis=1)
    rejections = np.sum(p_sorted <= levels, axis=1)
    # the simulated model is correct, so every rejection is a false discovery
    fdr = float(np.mean(np.where(rejections > 0, 1.0, 0.0)))
    assert fdr <= 0.07
    print(f"criterion 4: PASS - empirical FDR {fdr:.4f} <= 0.07 over {trials} trials")


def _bisect_two_sided_quantile(level):
    # solve P(|E| >= q) = erfc(q / sqrt(2)) = level by bisection
    lo, hi = 0.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.erfc(mid / math.sqrt(2.0)) > level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_05_bound_oracle():
    worst = 0.0
    for sigma in (1.0, 0.37):
        noise = ResidualNoiseModel.iid(sigma)
        for n_obs in (1, 2, 3, 10):
            oracle = 0.0
            for i in range(1, n_obs + 1):
                q = _bisect_two_sided_quantile(i / n_obs * ALPHA)
                oracle += -math.log(sigma * math.sqrt(2.0 * math.pi)) - 0.5 * q * q
            value = likelihood_bound(noise, FdrConfig(ALPHA), n_obs)
            worst = max(worst, abs(value - oracle))
            assert abs(value - oracle) <= 1e-10
    print(f"criterion 5: PASS - bound vs bisection oracle, worst gap {worst:.2e}")


def test_criterion_06_degenerate_equivalence():
    from scipy.special import logsumexp
    rng = np.random.default_rng(66)
    n_models, n_obs = 20, 600
    eps = rng.standard_normal((n_models, n_obs)) * 3.0   # mediocre but finite fits
    noise = ResidualNoiseModel.iid(1.0)
    outputs = rng.standard_normal((n_models, 50))

    verdicts = falsify("c", eps, noise, FdrConfig(1e-300))
    assert verdicts.unfalsified.all()
    ensemble = post_falsification_weights(verdicts)
    pred = predict_response(ensemble, outputs, DT)
    # oracle: plain Bayesian average over every model, no falsification step
    log_l = log_likelihood(eps, noise)
    weights = np.exp(log_l - logsumexp(log_l))
    weights = weights / weights.sum()
    assert np.array_equal(pred.q_hat, weights @ outputs)

    # a single survivor must reproduce its own simulation exactly
    eps_single = np.vstack([np.zeros(n_obs), np.full((2, n_obs), 60.0)])
    verdicts = falsify("c", eps_single, noise, FdrConfig(ALPHA))
    assert verdicts.unfalsified.tolist() == [True, False, False]
    ensemble = post_falsification_weights(verdicts)
    pred = predict_response(ensemble, outputs[:1], DT)
    assert np.array_equal(pred.q_hat, outputs[0])
    print("criterion 6: PASS - degenerate alpha matches the all-model average "
          "bit-for-bit; a lone survivor is reproduced exactly")


def test_criterion_07_integrator_order():
    omega = 2.0

    class _Sdof:
        channel_names = ("disp",)
        n_models = 1

        def initial_state(self):
            return np.array([[1.0, 0.0]])

        def rhs(self, state, u):
            return np.column_stack([state[:, 1], -omega**2 * state[:, 0]])

        def output(self, state, deriv, u):
            return state[:, :1]

    from falsikit.dynamics import ExcitationRecord
    rec = ExcitationRecord(0.1, np.zeros(101))
    exact = np.cos(omega * np.arange(101) * 0.1)
    err = {dt: np.max(np.abs(integrate_rk4(_Sdof(), rec, dt_int=dt)[0] - exact))
           for dt in (0.02, 0.01)}
    ratio = err[0.02] / err[0.01]
    assert 14.0 <= ratio <= 18.0
    print(f"criterion 7: PASS - global error ratio {ratio:.2f} when halving dt_int")


def test_criterion_08_bilinear_limit():
    x_y = 0.0286
    k_pre, r_k = 24.0e6, 1.0 / 6.0
    k_post = r_k * k_pre
    Qy = k_pre * x_y
    q_y = Qy * (1.0 - r_k)
    amp, omega, dt = 3 * x_y, 2.0 * np.pi, 2e-4
    t = np.arange(0.0, 2.0 + dt / 2, dt)
    x = amp * np.sin(omega * t)
    v = amp * omega * np.cos(omega * t)

    a = k_pre / Qy
    z = 0.0
    zs = [z]
    for k in range(len(t) - 1):
        f = lambda zz, vv: float(boucwen_rate(zz, vv, a, 100.0))
        vm = amp * omega * np.cos(omega * (t[k] + dt / 2))
        k1 = f(z, v[k])
        k2 = f(z + dt / 2 * k1, vm)
        k3 = f(z + dt / 2 * k2, vm)
        k4 = f(z + dt * k3, v[k + 1])
        z += dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        zs.append(z)
    f_smooth = k_post * x + q_y * np.asarray(zs)

    f_ideal = np.zeros_like(x)   # elastic step bounded by the hardening lines
    for i in range(1, len(x)):
        trial = f_ideal[i - 1] + k_pre * (x[i] - x[i - 1])
        f_ideal[i] = min(max(trial, k_post * x[i] - q_y), k_post * x[i] + q_y)

    half = len(t) // 2
    rms = np.sqrt(np.mean((f_smooth[half:] - f_ideal[half:]) ** 2))
    rel = rms / np.sqrt(np.mean(f_ideal[half:] ** 2))
    assert rel < 0.02
    print(f"criterion 8: PASS - sharp-transition loop within {100 * rel:.3f}% "
          "force RMS of the ideal bilinear oracle")


def test_criterion_09_equivalent_linear_arithmetic():
    r_k, r_d, k_pre = 0.1667, 2.5, 24.0e6
    pi = math.pi

    def family(rho):
        zeta = 2.0 * (1.0 - r_k) * (1.0 - 1.0 / rho) / (pi * (1.0 + r_k * (rho - 1.0)))
        k_eq = k_pre / rho * (1.0 + r_k * (rho - 1.0))
        return zeta, k_eq

    oracles = {}
    oracles["aashto"] = family(r_d)
    oracles["jpwri"] = family(0.7 * r_d)
    z, k = family(r_d)
    oracles["modified_aashto"] = (
        z * r_d**0.58 / (6.0 - 10.0 * r_k),
        k * (1.0 - 0.737 * (r_d - 1.0) / r_d**2) ** (-2.0),
    )
    oracles["caltrans"] = (
        0.0587 * (r_d - 1.0) ** 0.371,
        k_pre * (1.0 + math.log(1.0 + 0.13 * (r_d - 1.0) ** 1.137)) ** (-2.0),
    )

    worst = 0.0
    for variant, (zeta_o, k_o) in oracles.items():
        zeta, k_eq = equivalent_linear_params(variant, r_k=r_k, r_d=r_d, k_pre=k_pre)
        worst = max(worst, abs(zeta - zeta_o) / zeta_o, abs(k_eq - k_o) / k_o)
        assert abs(zeta - zeta_o) <= 1e-12 * abs(zeta_o)
        assert abs(k_eq - k_o) <= 1e-12 * abs(k_o)
    print(f"criterion 9: PASS - all four code formulas match hand arithmetic, "
          f"worst relative gap {worst:.2e}")


def test_criterion_10_modal_path():
    m, k_true = 300.0e3, 40.0e6

    def matrices(k1, k2, k3):
        M = np.diag([m, m, m])
        K = np.array([[k1 + k2, -k2, 0.0],
                      [-k2, k2 + k3, -k3],
                      [0.0, -k3, k3]])
        return M, K

    # frequencies against the hand-expanded characteristic polynomial
    M, K = matrices(k_true, k_true, k_true)
    mu = np.sort(np.roots([-1.0, 5.0, -6.0, 1.0]).real)
    f_oracle = np.sqrt(mu * k_true / m) / (2.0 * np.pi)
    ref = solve_modes(M, K)
    np.testing.assert_allclose(ref.frequencies, f_oracle, rtol=1e-8)

    # MAC identities: self, scale, orthogonality
    phi = ref.mode_shapes
    assert mac(phi[:, 0], phi[:, 0]) == 1.0
    assert mac(phi[:, 0], 2.0 * phi[:, 0]) == 1.0
    assert mac([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]) == 0.0

    # perturbed-stiffness ensemble: residual = interleaved (freq error, 1 - MAC)
    sigma_freq = 0.03 * ref.frequencies[0]
    sigma_mac = 0.25
    noise = ResidualNoiseModel.per_channel((sigma_freq, sigma_mac))
    rng = np.random.default_rng(10)
    n_models = 300
    ks = rng.lognormal(np.log(40.0e6), 0.3, size=(n_models, 3))
    ks = np.vstack([ks, [k_true, k_true, k_true]])   # truth appended last

    f_meas = ref.frequencies + rng.normal(0.0, sigma_freq, size=3)
    eps_rows = []
    first_freqs = []
    for row in ks:
        modes = solve_modes(*matrices(*row))
        first_freqs.append(modes.frequencies[0])
        res = modal_residual(modes, ref)          # [freq errors, 1 - MAC]
        freq_err = (modes.frequencies - f_meas)
        eps_rows.append(np.column_stack([freq_err, res[3:]]).reshape(-1))
    eps = np.asarray(eps_rows)
    verdicts = falsify("chain", eps, noise, FdrConfig(ALPHA), n_channels=2)

    assert verdicts.unfalsified[-1], "the true model must survive"
    first_freqs = np.asarray(first_freqs)
    outliers = np.abs(first_freqs - ref.frequencies[0]) > 3.0 * sigma_freq
    assert outliers.sum() > 10
    falsified = ~verdicts.unfalsified
    rate = falsified[outliers].mean()
    assert rate >= 0.90
    print(f"criterion 10: PASS - frequencies match the polynomial oracle, MAC "
          f"identities exact, {100 * rate:.1f}% of >3 sigma outliers falsified "
          "with the truth retained")


def test_criterion_11_savings_accounting(scenario, replica, tmp_path_factory):
    from falsikit.pipeline import parse_config, run_pipeline, write_timeseries

    base = tmp_path_factory.mktemp("replica_run")
    write_timeseries(base / "cal.tsv", DT, scenario["calibration"].samples)
    write_timeseries(base / "pred.tsv", DT, scenario["prediction"].samples)
    write_timeseries(base / "measured.tsv", DT, replica["d"].d)
    lines = [
        "[run]",
        f"master_seed = {MASTER_SEED}",
        f"samples_per_class = {N_S}",
        "output_dir = out",
        f"alpha = {ALPHA}",
        "",
        "[building]",
        "story_masses = 300 300 300",
        "story_stiffnesses = 40 40 40",
        "base_mass = 500",
        "",
        "[noise]",
        f"sigma_fraction = {SIGMA_FRACTION}",
        "",
        "[measurement]",
        "file = measured.tsv",
        "",
        "[excitation]",
        "calibration = cal.tsv",
        "prediction = pred.tsv",
        "",
    ]
    for cid in CLASS_IDS:
        priors = NONLINEAR_PRIORS if cid in ("boucwen", "bilinear") else LINEAR_PRIORS
        lines.append(f"[class:{cid}]")
        lines.append(f"binding = {cid}")
        for name, p in priors.items():
            lines.append(f"{name} = {p.kind} {p.mean} {p.std_dev}")
        lines.append("")
    (base / "run.ini").write_text("\n".join(lines))

    manifest = run_pipeline(parse_config(base / "run.ini"))
    n_u = sum(c["n_u"] for c in manifest.counts.values())
    assert manifest.prediction_simulations == n_u * manifest.prediction_inputs
    assert manifest.savings_ratio > 0.7
    # pipeline-run verdicts agree with the library-level replica
    for cid in CLASS_IDS:
        lib_n_u = replica["verdicts"][cid].unfalsified.sum()
        assert manifest.counts[cid]["n_u"] == lib_n_u
    print(f"criterion 11: PASS - {manifest.prediction_simulations} prediction "
          f"simulations for {n_u} survivors, savings ratio "
          f"{manifest.savings_ratio:.3f} > 0.7")
