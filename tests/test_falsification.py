import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from falsikit.falsification import (ClassVerdicts, FdrConfig, MeasurementSet,
                                    ResidualNoiseModel, _cached_log_bound,
                                    bh_levels, bh_quantiles,
                                    falsify, falsify_classes, likelihood_bound,
                                    log_likelihood, measurement_rejections,
                                    p_values, residuals)

_LOG_2PI = np.log(2.0 * np.pi)


class TestMeasurementSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            MeasurementSet(np.array([[1.0, 2.0]]), 0.05)
        with pytest.raises(ValueError):
            MeasurementSet(np.array([1.0, np.nan]), 0.05)

    def test_by_channel(self):
        d = MeasurementSet(np.arange(6.0), 0.05, channel_names=("a", "b"))
        assert d.n_obs == 6 and d.n_channels == 2
        np.testing.assert_array_equal(d.by_channel()[:, 1], [1.0, 3.0, 5.0])


class TestNoiseModel:
    def test_sigma_vector_tiling(self):
        noise = ResidualNoiseModel.per_channel((1.0, 2.0))
        np.testing.assert_array_equal(noise.sigma_vector(4), [1.0, 2.0, 1.0, 2.0])

    def test_sigma_vector_length_mismatch(self):
        with pytest.raises(ValueError, match="multiple"):
            ResidualNoiseModel.per_channel((1.0, 2.0)).sigma_vector(5)

    def test_sigma_count_must_match_the_channels(self):
        noise = ResidualNoiseModel.per_channel((0.5, 5.0))
        with pytest.raises(ValueError, match=r"2 residual sigmas .* 1 channel"):
            falsify("c", np.zeros((1, 100)), noise, FdrConfig(0.05))
        with pytest.raises(ValueError, match=r"2 residual sigmas .* 3 channel"):
            falsify_classes({"c": np.zeros((1, 99))}, noise, FdrConfig(0.05), n_channels=3)
        two = falsify("c", np.zeros((1, 100)), noise, FdrConfig(0.05), n_channels=2)
        shared = falsify("c", np.zeros((1, 100)), ResidualNoiseModel.iid(0.5), FdrConfig(0.05),
                         n_channels=2)
        assert two.log_bound == likelihood_bound(noise, FdrConfig(0.05), 100)
        assert shared.log_bound == likelihood_bound(ResidualNoiseModel.iid(0.5),
                                                    FdrConfig(0.05), 100)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            ResidualNoiseModel.iid(0.0)


class TestFdrConfig:
    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            FdrConfig(0.0)
        with pytest.raises(ValueError):
            FdrConfig(1.0)


class TestResiduals:
    def test_batch_and_single(self):
        d = MeasurementSet(np.ones(4), 0.05)
        assert np.array_equal(residuals(np.zeros(4), d), -np.ones(4))
        eps = residuals(np.zeros((3, 4)), d)
        assert eps.shape == (3, 4)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            residuals(np.zeros(5), MeasurementSet(np.ones(4), 0.05))

    def test_channel_descriptor_mismatch(self):
        from falsikit.dynamics import SimulationOutput
        h = SimulationOutput(0.05, np.zeros(4), ("x",))
        d = MeasurementSet(np.ones(4), 0.05, channel_names=("y",))
        with pytest.raises(ValueError, match="channel"):
            residuals(h, d)


class TestLogLikelihood:
    def test_standard_normal_peak(self):
        assert log_likelihood(np.zeros(1), ResidualNoiseModel.iid(1.0)) \
            == pytest.approx(-0.5 * _LOG_2PI, rel=1e-14)

    def test_unit_mahalanobis_per_entry(self):
        sigma = 0.7
        n = 10
        noise = ResidualNoiseModel.iid(sigma)
        peak = log_likelihood(np.zeros(n), noise)
        assert log_likelihood(np.full(n, sigma), noise) \
            == pytest.approx(peak - n / 2.0, rel=1e-12)

    def test_no_underflow_for_long_vectors(self):
        # linear-space likelihood would underflow here; log space must not
        noise = ResidualNoiseModel.iid(0.05)
        value = log_likelihood(np.full(600, 0.15), noise)
        assert np.isfinite(value) and value < -1000.0

    def test_batch_matches_singles(self, rng):
        eps = rng.standard_normal((5, 20))
        noise = ResidualNoiseModel.iid(0.4)
        batch = log_likelihood(eps, noise)
        for i in range(5):
            assert batch[i] == pytest.approx(log_likelihood(eps[i], noise), rel=1e-14)

    def test_per_channel_sigma(self):
        noise = ResidualNoiseModel.per_channel((1.0, 2.0))
        eps = np.array([1.0, 2.0])
        expected = -_LOG_2PI - np.log(2.0) - 0.5 * (1.0 + 1.0)
        assert log_likelihood(eps, noise) == pytest.approx(expected, rel=1e-14)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            log_likelihood(np.array([np.inf]), ResidualNoiseModel.iid(1.0))


class TestPValues:
    def test_center(self):
        p = p_values(np.zeros(3), ResidualNoiseModel.iid(1.0))
        np.testing.assert_array_equal(p, np.ones(3))

    def test_five_percent_point(self):
        p = p_values(np.array([1.95996, -1.95996]), ResidualNoiseModel.iid(1.0))
        np.testing.assert_allclose(p, 0.05, atol=1e-5)

    def test_tails(self):
        p = p_values(np.array([50.0]), ResidualNoiseModel.iid(1.0))
        assert p[0] < 1e-300

    def test_sigma_scaling(self):
        a = p_values(np.array([0.3]), ResidualNoiseModel.iid(1.0))
        b = p_values(np.array([0.6]), ResidualNoiseModel.iid(2.0))
        assert a[0] == b[0]

    def test_matches_scipy_erfc(self):
        from scipy.special import erfc
        eps = np.linspace(-35.0, 35.0, 7007).reshape(7, 1001)   # p down to about 1e-268
        noise = ResidualNoiseModel.iid(1.0)
        np.testing.assert_allclose(p_values(eps, noise), erfc(np.abs(eps) / np.sqrt(2.0)),
                                   rtol=1e-13, atol=0.0)


@settings(max_examples=200, deadline=None)
@given(eps=arrays(np.float64, 8, elements=st.floats(-1e6, 1e6)),
       sigma=st.floats(1e-3, 1e3))
def test_p_value_symmetry(eps, sigma):
    noise = ResidualNoiseModel.iid(sigma)
    assert np.array_equal(p_values(eps, noise), p_values(-eps, noise))


class TestBhBounds:
    def test_levels_arithmetic(self):
        config = FdrConfig(0.05)
        np.testing.assert_allclose(bh_levels(config, 3),
                                   [1.0 / 60.0, 1.0 / 30.0, 1.0 / 20.0], rtol=1e-15)

    def test_quantiles_strictly_decreasing(self):
        q = bh_quantiles(FdrConfig(0.05), 50)
        assert np.all(np.diff(q) < 0.0)

    def test_last_rank_quantile(self):
        # rank N_o level equals alpha, so the bound is the familiar 1.96 sigma
        q = bh_quantiles(FdrConfig(0.05), 10)
        assert q[-1] == pytest.approx(1.959964, abs=1e-6)

    @pytest.mark.parametrize("n_obs", [1, 600, 10_000])
    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.5])
    def test_quantiles_match_scipy_erfcinv(self, n_obs, alpha):
        from scipy.special import erfcinv
        config = FdrConfig(alpha)
        np.testing.assert_allclose(bh_quantiles(config, n_obs),
                                   np.sqrt(2.0) * erfcinv(bh_levels(config, n_obs)),
                                   rtol=1e-14, atol=0.0)


class TestLikelihoodBound:
    def test_single_observation_value(self):
        # ln of the standard normal density at its 1.96 two-sided bound
        bound = likelihood_bound(ResidualNoiseModel.iid(1.0), FdrConfig(0.05), 1)
        q = 1.959964
        assert bound == pytest.approx(-0.5 * _LOG_2PI - 0.5 * q * q, abs=1e-5)
        assert bound == pytest.approx(-2.8396, abs=1e-3)

    def test_two_rank_construction(self):
        from scipy.special import erfcinv
        bound = likelihood_bound(ResidualNoiseModel.iid(1.0), FdrConfig(0.05), 2)
        qs = np.sqrt(2.0) * erfcinv(np.array([0.025, 0.05]))
        expected = sum(-0.5 * _LOG_2PI - 0.5 * q * q for q in qs)
        assert bound == pytest.approx(expected, rel=1e-12)

    def test_vanishing_alpha_pushes_bound_down(self):
        noise = ResidualNoiseModel.iid(1.0)
        b1 = likelihood_bound(noise, FdrConfig(1e-2), 10)
        b2 = likelihood_bound(noise, FdrConfig(1e-8), 10)
        assert b2 < b1

    def test_monotone_in_alpha(self):
        noise = ResidualNoiseModel.iid(0.3)
        bounds = [likelihood_bound(noise, FdrConfig(a), 25)
                  for a in (0.001, 0.01, 0.05, 0.2, 0.5)]
        assert all(b > a for a, b in zip(bounds, bounds[1:]))

    def test_cache_equivalence(self):
        noise = ResidualNoiseModel.iid(0.42)
        config = FdrConfig(0.07)
        first = likelihood_bound(noise, config, 123)
        cached = likelihood_bound(noise, config, 123)
        _cached_log_bound.cache_clear()
        fresh = likelihood_bound(noise, config, 123)
        assert first == cached == fresh


class TestFalsify:
    def test_zero_residual_truth_unfalsified(self):
        noise = ResidualNoiseModel.iid(0.2)
        for alpha in (0.001, 0.05, 0.5, 0.999):
            v = falsify("truth", np.zeros((1, 50)), noise, FdrConfig(alpha))
            assert v.unfalsified[0]

    def test_tie_falsifies(self):
        v = ClassVerdicts("c", log_likelihood=[-5.0, -4.999, -5.001], log_bound=-5.0)
        assert v.unfalsified.tolist() == [False, True, False]

    def test_alpha_monotone_falsified_sets(self, rng):
        # falsified set at alpha1 < alpha2 is a subset of the set at alpha2
        eps = rng.standard_normal((40, 30)) * 0.25
        noise = ResidualNoiseModel.iid(0.2)
        sets = []
        for alpha in (0.01, 0.05, 0.25, 0.8):
            v = falsify("c", eps, noise, FdrConfig(alpha))
            sets.append(set(np.flatnonzero(~v.unfalsified)))
        for small, large in zip(sets, sets[1:]):
            assert small <= large

    def test_report_counts_consistent(self, rng):
        eps = {"a": rng.standard_normal((10, 20)), "b": rng.standard_normal((7, 20)) * 3}
        noise = ResidualNoiseModel.iid(1.0)
        verdicts = falsify_classes(eps, noise, FdrConfig(0.05))
        assert list(verdicts) == ["a", "b"]
        for cid, n in (("a", 10), ("b", 7)):
            v = verdicts[cid]
            assert v.class_id == cid
            assert v.log_likelihood.shape == v.unfalsified.shape == (n,)
            np.testing.assert_array_equal(v.log_likelihood, log_likelihood(eps[cid], noise))
            assert v.log_bound == likelihood_bound(noise, FdrConfig(0.05), 20)

    def test_rank_bound_consistency(self, rng):
        eps = rng.standard_normal((30, 25)) * 0.3
        noise = ResidualNoiseModel.iid(0.25)
        v = falsify("c", eps, noise, FdrConfig(0.05))
        assert np.all(v.log_likelihood[v.unfalsified] > v.log_bound)
        assert np.all(v.log_likelihood[~v.unfalsified] <= v.log_bound)

    def test_rejection_count(self):
        noise = ResidualNoiseModel.iid(1.0)
        config = FdrConfig(0.05)
        assert measurement_rejections(np.zeros(10), noise, config) == 0
        eps = np.zeros(10)
        eps[0] = 8.0   # p ~ 1e-15, far below every BH level
        assert measurement_rejections(eps, noise, config) == 1

    @settings(max_examples=300, deadline=None)
    @given(n_obs=st.integers(1, 60), alpha=st.floats(0.001, 0.9),
           scale=st.integers(-3, 3), data=st.data())
    def test_rejection_count_matches_p_values(self, n_obs, alpha, scale, data):
        # ties: some entries sit exactly on a quantile q_j, with either sign
        config = FdrConfig(alpha)
        q = bh_quantiles(config, n_obs)
        entry = st.one_of(st.floats(0.0, 8.0), st.sampled_from(list(q)))
        z = np.array(data.draw(st.lists(entry, min_size=n_obs, max_size=n_obs)))
        signs = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                            min_size=n_obs, max_size=n_obs)))
        sigma = 2.0 ** scale            # a power of two keeps |eps / sigma| == z exact
        noise = ResidualNoiseModel.iid(sigma)
        # a tie at q_i rejects in both; erfc(q_i / sqrt 2) meets alpha_i only to rounding
        p_sorted = np.sort(p_values(signs * z * sigma, noise))
        expected = int(np.sum(p_sorted <= bh_levels(config, n_obs) * (1.0 + 1e-12)))
        assert measurement_rejections(signs * z * sigma, noise, config) == expected

    def test_matrix_shape_required(self):
        with pytest.raises(ValueError):
            falsify("c", np.zeros(10), ResidualNoiseModel.iid(1.0), FdrConfig(0.05))
