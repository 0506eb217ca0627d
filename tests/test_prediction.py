import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from falsikit.falsification import ClassVerdicts
from falsikit.prediction import (AllModelsFalsifiedError, WeightedEnsemble,
                                 estimate_parameters, post_falsification_weights,
                                 predict_response, relative_rms_error)


def _verdicts(log_ls, bound=-10.0, class_id="c"):
    return ClassVerdicts(class_id, log_ls, bound)


class TestWeights:
    def test_sum_to_one_and_falsified_absent(self):
        we = post_falsification_weights(_verdicts([-5.0, -20.0, -6.0]))
        assert we.sample_indices == (0, 2)   # index 1 falsified by the bound
        assert we.weights.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.all(we.weights > 0.0)

    def test_likelihood_ratios(self):
        we = post_falsification_weights(_verdicts([-5.0, -6.0]))
        assert we.weights[0] / we.weights[1] == pytest.approx(np.e, rel=1e-12)

    def test_log_space_stability(self):
        # likelihoods far below double-precision linear range
        we = post_falsification_weights(_verdicts([-1.0e5, -1.0e5 - 2.0], bound=-2e5))
        assert np.isfinite(we.weights).all()
        assert we.weights[0] / we.weights[1] == pytest.approx(np.exp(2.0), rel=1e-10)

    @pytest.mark.parametrize("log_ls", [[-3.0], [-7.5] * 5, [-10.0, -750.0, -400.0, -12.5]],
                             ids=["one survivor", "equal log L", "spread above 700 nats"])
    def test_matches_scipy_logsumexp(self, log_ls):
        from scipy.special import logsumexp
        log_ls = np.array(log_ls)
        we = post_falsification_weights(_verdicts(log_ls, bound=-1e4))
        expected = np.exp(log_ls - logsumexp(log_ls))
        np.testing.assert_allclose(we.weights, expected / expected.sum(), rtol=1e-15, atol=0.0)

    def test_all_falsified_raises(self):
        with pytest.raises(AllModelsFalsifiedError, match="'c'"):
            post_falsification_weights(_verdicts([-50.0, -11.0]))

    def test_ensemble_validation(self):
        with pytest.raises(ValueError):
            WeightedEnsemble("c", (0, 1), np.array([0.6, 0.6]))
        with pytest.raises(ValueError):
            WeightedEnsemble("c", (1, 0), np.array([0.5, 0.5]))


@settings(max_examples=200, deadline=None)
@given(log_ls=st.lists(st.floats(-1e6, 0.0), min_size=1, max_size=30))
def test_weights_always_normalized(log_ls):
    we = post_falsification_weights(_verdicts(log_ls, bound=-2e6))
    assert np.all(we.weights >= 0.0)
    assert abs(we.weights.sum() - 1.0) <= 1e-12


class TestEstimates:
    def test_weighted_mean(self):
        we = WeightedEnsemble("c", (0, 2), np.array([0.25, 0.75]))
        theta = np.array([[1.0, 10.0], [99.0, 99.0], [3.0, 30.0]])
        np.testing.assert_allclose(estimate_parameters(we, theta), [2.5, 25.0])


class TestPredict:
    def test_single_model_exact(self):
        we = WeightedEnsemble("c", (4,), np.array([1.0]))
        q = np.sin(np.arange(50.0))[None, :]
        pred = predict_response(we, q)
        assert np.array_equal(pred.q_hat, q[0])
        assert np.array_equal(pred.spread, np.zeros(50))

    def test_matrix_rows_weighted(self):
        we = WeightedEnsemble("c", (0, 1), np.array([0.3, 0.7]))
        q = np.vstack([np.ones(10), 3.0 * np.ones(10)])
        a = predict_response(we, q)
        assert a.q_hat[0] == pytest.approx(0.3 + 2.1)

    def test_spread_diagnostic(self):
        we = WeightedEnsemble("c", (0, 1), np.array([0.5, 0.5]))
        q = np.vstack([np.zeros(4), 2.0 * np.ones(4)])
        pred = predict_response(we, q)
        np.testing.assert_allclose(pred.spread, 1.0)

    def test_divergent_member_reported(self):
        we = WeightedEnsemble("c", (3, 9), np.array([0.5, 0.5]))
        q = np.vstack([np.zeros(4), np.full(4, np.nan)])
        with pytest.raises(ValueError, match=r"\[9\]"):
            predict_response(we, q)

    def test_row_count_mismatch(self):
        we = WeightedEnsemble("c", (0, 1), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="member outputs"):
            predict_response(we, np.zeros((3, 4)))


class TestRelativeRms:
    def test_hand_value(self):
        u = np.array([3.0, 4.0])
        assert relative_rms_error(u, np.zeros(2)) == pytest.approx(1.0)
        assert relative_rms_error(u, u) == 0.0

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            relative_rms_error(np.zeros(3), np.ones(3))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            relative_rms_error(np.ones(3), np.ones(4))
