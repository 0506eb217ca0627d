import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from falsikit import priors
from falsikit.priors import (EnsembleSpec, ModelClassSpec, PriorSpec, SamplingError,
                             _class_key, _pcg64_states, _seed_words, generate_ensemble)

_SQRT3 = np.sqrt(3.0)


def _nl_class(class_id="bw"):
    return ModelClassSpec(
        class_id=class_id,
        parameter_names=("k_post", "c_b", "r_k", "Q_y"),
        priors=(PriorSpec("lognormal", 4.5, 0.25), PriorSpec("lognormal", 20.0, 4.0),
                PriorSpec("uniform", 0.16, 0.0058), PriorSpec("uniform", 4.75, 0.2887)),
        physics_binding="boucwen",
    )


def _one_prior(spec, n, master_seed=1):
    """``n`` draws of one prior, one per sample slot of a one-parameter class."""
    cls = ModelClassSpec("p", ("x",), (spec,), "boucwen")
    return generate_ensemble(EnsembleSpec((cls,), n, master_seed))["p"][:, 0]


# ---------------------------------------------------------------------------
# the oracle: one generator per slot, built the way numpy documents it

def _slot_rng(master_seed, class_id, sample_index):
    return np.random.default_rng(
        np.random.SeedSequence([master_seed, _class_key(class_id), sample_index]))


def _by_hand(spec, rng):
    """One draw of ``spec``, with the constants of every kind written out."""
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


def _oracle(cls, master_seed, n):
    return np.array([[_by_hand(spec, rng) for spec in cls.priors]
                     for rng in (_slot_rng(master_seed, cls.class_id, i) for i in range(n))])


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mean,std", [(1e308, 1e308), (0.0, 1e308), (1.7e308, 1e307)])
    def test_uniform_support_wider_than_a_float_rejected(self, mean, std):
        # numpy's uniform would raise OverflowError at the first draw
        with pytest.raises(ValueError, match="uniform prior support"):
            PriorSpec("uniform", mean, std)


class TestSamplePrior:
    def test_moment_recovery(self):
        # sample mean and std within 3 standard errors of the requested moments
        n = 200_000
        specs = (PriorSpec("normal", 2.0, 0.7), PriorSpec("lognormal", 4.5, 0.25),
                 PriorSpec("uniform", 0.16, 0.0058))
        cls = ModelClassSpec("moments", ("n", "ln", "u"), specs, "boucwen")
        ens = generate_ensemble(EnsembleSpec((cls,), n, 9))["moments"]
        for spec, draws in zip(specs, ens.T):
            se_mean = spec.std_dev / np.sqrt(n)
            assert abs(draws.mean() - spec.mean) < 3.0 * se_mean
            # std of the sample std is roughly s / sqrt(2n) for these families
            assert abs(draws.std(ddof=1) - spec.std_dev) < 5.0 * spec.std_dev / np.sqrt(2 * n)

    def test_lognormal_support(self):
        assert (_one_prior(PriorSpec("lognormal", 0.01, 0.05), 5000, 3) > 0.0).all()

    def test_uniform_support(self):
        draws = _one_prior(PriorSpec("uniform", 5.0, 1.0), 5000, 4)
        assert draws.min() >= 5.0 - _SQRT3 and draws.max() <= 5.0 + _SQRT3

    def test_positive_only_redraws(self):
        # mean below zero forces frequent redraws; all results must be positive
        draws = _one_prior(PriorSpec("normal", 0.1, 1.0, positive_only=True), 2000, 5)
        assert draws.min() > 0.0


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
        # a slot's row is the same in a shorter ensemble and behind another class
        cls = _nl_class()
        ens = generate_ensemble(EnsembleSpec((cls,), samples_per_class=20, master_seed=123))["bw"]
        for i in (0, 7, 19):
            alone = generate_ensemble(EnsembleSpec((cls,), i + 1, 123))["bw"]
            behind = generate_ensemble(EnsembleSpec((_nl_class("a"), cls), i + 1, 123))["bw"]
            assert alone[i].tobytes() == behind[i].tobytes() == ens[i].tobytes()

    def test_rows_are_draw_sample_byte_for_byte(self):
        # every prior kind, the positive_only normal redrawing often, against each
        # slot's own generator with the constants of every draw written out
        priors_ = (PriorSpec("uniform", 0.16, 0.0058), PriorSpec("lognormal", 4.5, 0.25),
                   PriorSpec("normal", -1.0, 2.0), PriorSpec("normal", 0.1, 1.0, positive_only=True))
        cls = ModelClassSpec("kinds", ("u", "ln", "n", "pos"), priors_, "boucwen")
        ens = generate_ensemble(EnsembleSpec((cls,), samples_per_class=60, master_seed=9))["kinds"]
        expected = _oracle(cls, 9, 60)
        assert (ens[:, 3] > 0.0).all() and (ens[:, 2] < 0.0).any()
        assert ens.tobytes() == expected.tobytes()

    def test_class_id_decorrelates_streams(self):
        a = generate_ensemble(EnsembleSpec((_nl_class("a"),), 10, 1))["a"]
        b = generate_ensemble(EnsembleSpec((_nl_class("b"),), 10, 1))["b"]
        assert not np.array_equal(a, b)

    def test_duplicate_class_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate class_id"):
            EnsembleSpec((_nl_class("x"), _nl_class("x")), 2, 1)

    def test_master_seed_is_a_nonnegative_int(self):
        cls = _nl_class()
        with pytest.raises(ValueError, match="master_seed must be >= 0"):
            EnsembleSpec((cls,), 2, -1)
        with pytest.raises(TypeError):
            EnsembleSpec((cls,), 2, 2.0)
        spec = EnsembleSpec((cls,), 2, np.int64(5))
        assert type(spec.master_seed) is int
        assert generate_ensemble(spec)["bw"].tobytes() == _oracle(cls, 5, 2).tobytes()

    def test_mismatched_priors_rejected(self):
        with pytest.raises(ValueError, match="priors"):
            ModelClassSpec("c", ("a", "b"), (PriorSpec("normal", 0, 1),), "boucwen")

    def test_duplicate_parameter_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate parameter"):
            ModelClassSpec("c", ("a", "a"),
                           (PriorSpec("normal", 0, 1), PriorSpec("normal", 0, 1)), "boucwen")

    def test_acceptance_ensemble_is_pinned(self):
        # the replica scenario's 6 x 500 candidates at master seed 2024, as numpy's
        # SeedSequence -> PCG64 streams drew them when the acceptance suite was frozen;
        # a change to those streams fails here before it moves any verdict
        hysteretic = (("k_post", PriorSpec("lognormal", 4.5, 0.25)),
                      ("c_b", PriorSpec("lognormal", 20.0, 4.0)),
                      ("r_k", PriorSpec("uniform", 0.16, 0.0058)),
                      ("Q_y", PriorSpec("uniform", 4.75, 0.2887)))
        linear = hysteretic[:3] + (("r_d", PriorSpec("uniform", 2.5, 0.2887)),)
        specs = []
        for cid in ("boucwen", "bilinear", "aashto", "jpwri", "modified_aashto", "caltrans"):
            names, priors_ = zip(*(hysteretic if cid in ("boucwen", "bilinear") else linear))
            specs.append(ModelClassSpec(cid, names, priors_, cid))
        ens = generate_ensemble(EnsembleSpec(tuple(specs), 500, 2024))
        digest = hashlib.sha256()
        for spec in specs:
            assert ens[spec.class_id].shape == (500, 4)
            digest.update(ens[spec.class_id].tobytes())
        assert digest.hexdigest() == (
            "2d2e249d944d2469a7abaf2d317ce3aa3ed04f17ca88c0dcf90b0cca4a54527f")


def _first_bad_draw(cls, master_seed, n):
    """(sample, parameter, kind of failure) of the first draw that fails, slot by
    slot and parameters in order, each slot on its own generator."""
    for i in range(n):
        rng = _slot_rng(master_seed, cls.class_id, i)
        for name, spec in zip(cls.parameter_names, cls.priors):
            if spec.positive_only:
                for _ in range(priors._MAX_REDRAWS + 1):
                    value = rng.normal(spec.mean, spec.std_dev)
                    if value > 0.0:
                        break
                else:
                    return i, name, "positive"
            else:
                with np.errstate(over="ignore"):
                    value = _by_hand(spec, rng)
            if not math.isfinite(value):
                return i, name, "finite"
    return None


def _sampling_message(cls, bad):
    i, name, failure = bad
    spec = cls.priors[cls.parameter_names.index(name)]
    if failure == "positive":
        what = (f"could not draw a positive value for {name!r} "
                f"(normal mean={spec.mean}, std={spec.std_dev})")
    else:
        what = f"non-finite draw for {name!r} from {spec.kind} prior"
    return f"class {cls.class_id!r}, sample {i}: {what}"


class TestSamplingError:
    # the lognormal overflows to inf for about one draw in eight
    OVERFLOWING = PriorSpec("lognormal", 1e308, 1e308)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_lognormal_names_first_sample(self):
        cls = ModelClassSpec("ln", ("u", "k"), (PriorSpec("uniform", 1.0, 0.1),
                                                self.OVERFLOWING), "boucwen")
        bad = _first_bad_draw(cls, 3, 50)
        assert bad is not None and bad[0] > 0 and bad[1:] == ("k", "finite")
        with pytest.raises(SamplingError) as err:
            generate_ensemble(EnsembleSpec((cls,), 50, 3))
        assert str(err.value) == _sampling_message(cls, bad)

    def test_exhausted_positive_prior_names_first_sample(self, monkeypatch):
        # four draws of normal(-1, 1) are all <= 0 in about half the slots
        monkeypatch.setattr(priors, "_MAX_REDRAWS", 3)
        cls = ModelClassSpec("pos", ("a", "q"), (PriorSpec("normal", 1.0, 0.1),
                                                 PriorSpec("normal", -1.0, 1.0, True)),
                             "boucwen")
        bad = _first_bad_draw(cls, 5, 40)
        assert bad is not None and bad[0] > 0 and bad[1:] == ("q", "positive")
        with pytest.raises(SamplingError) as err:
            generate_ensemble(EnsembleSpec((cls,), 40, 5))
        assert str(err.value) == _sampling_message(cls, bad)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("order", [("k", "q"), ("q", "k"), ("k", "k2")])
    @pytest.mark.parametrize("seed", range(6))
    def test_first_failure_in_draw_order(self, monkeypatch, order, seed):
        # two failures in one class (overflows, exhausted redraws): whichever comes
        # first slot by slot, and parameter by parameter within a slot, is reported
        # three draws of normal(0, 1) are all <= 0 in one slot of eight
        monkeypatch.setattr(priors, "_MAX_REDRAWS", 2)
        by_name = {"k": self.OVERFLOWING, "k2": self.OVERFLOWING,
                   "q": PriorSpec("normal", 0.0, 1.0, True)}
        cls = ModelClassSpec("mixed", order, tuple(by_name[n] for n in order), "boucwen")
        bad = _first_bad_draw(cls, seed, 30)
        assert bad is not None
        with pytest.raises(SamplingError) as err:
            generate_ensemble(EnsembleSpec((cls,), 30, seed))
        assert str(err.value) == _sampling_message(cls, bad)


# ---------------------------------------------------------------------------
# the array hash against numpy's SeedSequence and PCG64

@settings(max_examples=200, deadline=None)
@given(master=st.integers(0, 2**70),
       key=st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1)),
       indices=st.lists(st.one_of(st.just(0), st.integers(0, 2**32 - 1)),
                        min_size=1, max_size=5))
def test_seed_words_are_numpys_seed_sequence(master, key, indices):
    words = _seed_words(master, key, np.array(indices, dtype=np.uint32))
    states = list(_pcg64_states(words))
    assert words.shape == (len(indices), 8) and words.dtype == np.uint32
    for row, (state, inc), i in zip(words, states, indices):
        seq = np.random.SeedSequence([master, key, i])
        expected = seq.generate_state(4, np.uint64)
        assert row.astype("<u4").view("<u8").tolist() == expected.tolist()
        pcg = np.random.PCG64(seq).state
        assert (state, inc) == (pcg["state"]["state"], pcg["state"]["inc"])


_KIND_PRIORS = st.one_of(
    st.builds(lambda m, s: PriorSpec("normal", m, s),
              st.floats(-1e3, 1e3), st.floats(1e-3, 1e3)),
    # a positive-only mean at least two sigmas below zero redraws often, never 1,000 times
    st.builds(lambda m, s: PriorSpec("normal", m * s, s, positive_only=True),
              st.floats(-2.0, 3.0), st.floats(1e-3, 1e3)),
    st.builds(lambda m, r: PriorSpec("lognormal", m, r * m),
              st.floats(1e-3, 1e6), st.floats(0.01, 2.0)),
    st.builds(lambda m, s: PriorSpec("uniform", m, s),
              st.floats(-1e6, 1e6), st.floats(1e-6, 1e6)),
)


@settings(max_examples=60, deadline=None)
@given(cid=st.text(min_size=1, max_size=20), master=st.integers(0, 2**64),
       specs=st.lists(_KIND_PRIORS, min_size=1, max_size=5), n=st.integers(1, 25))
def test_ensemble_is_the_per_slot_oracle(cid, master, specs, n):
    cls = ModelClassSpec(cid, tuple(f"p{j}" for j in range(len(specs))), tuple(specs),
                         "boucwen")
    ens = generate_ensemble(EnsembleSpec((cls,), n, master))[cid]
    assert ens.tobytes() == _oracle(cls, master, n).tobytes()


@settings(max_examples=50, deadline=None)
@given(master=st.integers(0, 2**31 - 1), index=st.integers(0, 300),
       cid=st.text(min_size=1, max_size=20))
def test_slot_rows_are_pure(master, index, cid):
    # a slot's row depends on (master, class id, index) only, not on the ensemble size
    cls = ModelClassSpec(cid, ("u", "ln"), (PriorSpec("uniform", 0.0, 1.0),
                                            PriorSpec("lognormal", 1.0, 0.5)), "boucwen")
    short = generate_ensemble(EnsembleSpec((cls,), index + 1, master))[cid]
    longer = generate_ensemble(EnsembleSpec((cls,), index + 3, master))[cid]
    assert short[index].tobytes() == longer[index].tobytes()
    assert short[index].tobytes() == _oracle(cls, master, index + 1)[index].tobytes()


@settings(max_examples=100, deadline=None)
@given(mean=st.floats(0.01, 1e6), rel=st.floats(0.01, 2.0), seed=st.integers(0, 2**31))
def test_lognormal_draws_positive(mean, rel, seed):
    values = _one_prior(PriorSpec("lognormal", mean, rel * mean), 4, seed)
    assert (values > 0.0).all() and np.isfinite(values).all()


@settings(max_examples=100, deadline=None)
@given(mean=st.floats(-1e6, 1e6), std=st.floats(1e-6, 1e6), seed=st.integers(0, 2**31))
def test_uniform_draws_in_support(mean, std, seed):
    lo, hi = mean - std * _SQRT3, mean + std * _SQRT3
    values = _one_prior(PriorSpec("uniform", mean, std), 4, seed)
    assert ((lo <= values) & (values <= hi)).all()
