import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from falsikit.priors import (EnsembleSpec, ModelClassSpec, PriorSpec,
                             draw_sample, generate_ensemble, sample_prior,
                             sample_rng)

_SQRT3 = np.sqrt(3.0)


def _nl_class(class_id="bw"):
    return ModelClassSpec(
        class_id=class_id,
        parameter_names=("k_post", "c_b", "r_k", "Q_y"),
        priors=(PriorSpec("lognormal", 4.5, 0.25), PriorSpec("lognormal", 20.0, 4.0),
                PriorSpec("uniform", 0.16, 0.0058), PriorSpec("uniform", 4.75, 0.2887)),
        physics_binding="boucwen",
    )


class TestPriorSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown prior kind"):
            PriorSpec("gamma", 1.0, 1.0)

    def test_nonpositive_std_rejected(self):
        with pytest.raises(ValueError, match="std_dev"):
            PriorSpec("normal", 0.0, 0.0)

    def test_lognormal_needs_positive_mean(self):
        with pytest.raises(ValueError, match="mean"):
            PriorSpec("lognormal", -1.0, 1.0)

    def test_positive_only_limited_to_normal(self):
        with pytest.raises(ValueError, match="positive_only"):
            PriorSpec("uniform", 1.0, 1.0, positive_only=True)


class TestSamplePrior:
    def test_moment_recovery(self):
        # sample mean and std within 3 standard errors of the requested moments
        n = 200_000
        for spec in (PriorSpec("normal", 2.0, 0.7), PriorSpec("lognormal", 4.5, 0.25),
                     PriorSpec("uniform", 0.16, 0.0058)):
            rng = np.random.default_rng(9)
            draws = np.array([sample_prior(spec, rng) for _ in range(n)])
            se_mean = spec.std_dev / np.sqrt(n)
            assert abs(draws.mean() - spec.mean) < 3.0 * se_mean
            # std of the sample std is roughly s / sqrt(2n) for these families
            assert abs(draws.std(ddof=1) - spec.std_dev) < 5.0 * spec.std_dev / np.sqrt(2 * n)

    def test_lognormal_support(self):
        spec = PriorSpec("lognormal", 0.01, 0.05)
        rng = np.random.default_rng(3)
        assert all(sample_prior(spec, rng) > 0.0 for _ in range(5000))

    def test_uniform_support(self):
        spec = PriorSpec("uniform", 5.0, 1.0)
        lo, hi = 5.0 - _SQRT3, 5.0 + _SQRT3
        rng = np.random.default_rng(4)
        draws = [sample_prior(spec, rng) for _ in range(5000)]
        assert min(draws) >= lo and max(draws) <= hi

    def test_positive_only_redraws(self):
        # mean below zero forces frequent redraws; all results must be positive
        spec = PriorSpec("normal", 0.1, 1.0, positive_only=True)
        rng = np.random.default_rng(5)
        draws = [sample_prior(spec, rng) for _ in range(2000)]
        assert min(draws) > 0.0


class TestEnsemble:
    def test_sample_counts(self):
        spec = EnsembleSpec((_nl_class("a"), _nl_class("b")), samples_per_class=3,
                            master_seed=1)
        ens = generate_ensemble(spec)
        assert sorted(ens) == ["a", "b"]
        for cid in ens:
            assert ens[cid].shape == (3, 4) and ens[cid].dtype == float

    def test_determinism(self):
        spec = EnsembleSpec((_nl_class(),), samples_per_class=50, master_seed=77)
        a = generate_ensemble(spec)["bw"]
        b = generate_ensemble(spec)["bw"]
        assert np.array_equal(a, b)

    def test_order_independent_sampling(self):
        # drawing one sample in isolation matches its slot in the full ensemble
        cls = _nl_class()
        spec = EnsembleSpec((cls,), samples_per_class=20, master_seed=123)
        ens = generate_ensemble(spec)["bw"]
        for i in (0, 7, 19):
            assert np.array_equal(draw_sample(cls, 123, i), ens[i])

    def test_rows_are_draw_sample_byte_for_byte(self):
        # every prior kind, the positive_only normal redrawing often, against draw_sample
        # and against each slot's draws written out with the constants of every draw
        priors = (PriorSpec("uniform", 0.16, 0.0058), PriorSpec("lognormal", 4.5, 0.25),
                  PriorSpec("normal", -1.0, 2.0), PriorSpec("normal", 0.1, 1.0, positive_only=True))
        cls = ModelClassSpec("kinds", ("u", "ln", "n", "pos"), priors, "boucwen")
        ens = generate_ensemble(EnsembleSpec((cls,), samples_per_class=60, master_seed=9))["kinds"]

        def by_hand(spec, rng):
            if spec.kind == "uniform":
                return rng.uniform(spec.mean - spec.std_dev * _SQRT3,
                                   spec.mean + spec.std_dev * _SQRT3)
            if spec.kind == "lognormal":
                sig2 = np.log1p((spec.std_dev / spec.mean) ** 2)
                return float(np.exp(rng.normal(np.log(spec.mean) - 0.5 * sig2, np.sqrt(sig2))))
            value = rng.normal(spec.mean, spec.std_dev)
            while spec.positive_only and value <= 0.0:
                value = rng.normal(spec.mean, spec.std_dev)
            return value

        expected = np.array([[by_hand(spec, rng) for spec in priors]
                             for rng in (sample_rng(9, "kinds", i) for i in range(60))])
        assert (ens[:, 3] > 0.0).all() and (ens[:, 2] < 0.0).any()
        assert ens.tobytes() == expected.tobytes()
        assert ens.tobytes() == np.array([draw_sample(cls, 9, i) for i in range(60)]).tobytes()

    def test_class_id_decorrelates_streams(self):
        a = generate_ensemble(EnsembleSpec((_nl_class("a"),), 10, 1))["a"]
        b = generate_ensemble(EnsembleSpec((_nl_class("b"),), 10, 1))["b"]
        assert not np.array_equal(a, b)

    def test_duplicate_class_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate class_id"):
            EnsembleSpec((_nl_class("x"), _nl_class("x")), 2, 1)

    def test_mismatched_priors_rejected(self):
        with pytest.raises(ValueError, match="priors"):
            ModelClassSpec("c", ("a", "b"), (PriorSpec("normal", 0, 1),), "boucwen")

    def test_duplicate_parameter_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate parameter"):
            ModelClassSpec("c", ("a", "a"),
                           (PriorSpec("normal", 0, 1), PriorSpec("normal", 0, 1)), "boucwen")


@settings(max_examples=50, deadline=None)
@given(master=st.integers(0, 2**31 - 1), index=st.integers(0, 10_000),
       cid=st.text(min_size=1, max_size=20))
def test_sample_rng_is_pure(master, index, cid):
    a = sample_rng(master, cid, index).standard_normal(4)
    b = sample_rng(master, cid, index).standard_normal(4)
    assert np.array_equal(a, b)


@settings(max_examples=100, deadline=None)
@given(mean=st.floats(0.01, 1e6), rel=st.floats(0.01, 2.0), seed=st.integers(0, 2**31))
def test_lognormal_draws_positive(mean, rel, seed):
    spec = PriorSpec("lognormal", mean, rel * mean)
    value = sample_prior(spec, np.random.default_rng(seed))
    assert value > 0.0 and np.isfinite(value)


@settings(max_examples=100, deadline=None)
@given(mean=st.floats(-1e6, 1e6), std=st.floats(1e-6, 1e6), seed=st.integers(0, 2**31))
def test_uniform_draws_in_support(mean, std, seed):
    spec = PriorSpec("uniform", mean, std)
    lo, hi = mean - std * _SQRT3, mean + std * _SQRT3
    value = sample_prior(spec, np.random.default_rng(seed))
    assert lo <= value <= hi
