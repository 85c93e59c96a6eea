import math
from fractions import Fraction

import numpy as np
import pytest

from reconbound import oracle
from reconbound.bounds import dp_lecam_bound, two_point_bound
from reconbound.divergence import bh_tv_bound, kl_bound, renyi_bound
from reconbound.metric_space import FiniteMetricSpace, pairwise_distances, two_point_space
from reconbound.oracle import (ENUMERATION_CAP, CertificateError,
                               EnumerationCapError, FiniteMechanism, channel_kl,
                               channel_renyi, channel_tv, dp_epsilon_of,
                               exact_bayes_risk, exact_identification_error,
                               fano_certificate, lecam_certificate,
                               mutual_information, product_tv,
                               randomized_response)


def random_channel(rng, m, k):
    c = rng.uniform(0.05, 1.0, size=(m, k))
    return FiniteMechanism(channel=c / c.sum(axis=1, keepdims=True))


def tuple_likelihoods(mech, n):
    # the retired enumeration over all n_outcomes^n ordered outcome
    # tuples, kept as the reference for the type-class oracle
    like = mech.channel
    for _ in range(n - 1):
        like = (like[:, :, None] * mech.channel[:, None, :]).reshape(mech.n_inputs, -1)
    return like


def uniform_space(k):
    d = np.full((k, k), 1.0)
    np.fill_diagonal(d, 0.0)
    return FiniteMetricSpace(points=tuple(range(k)), dist=d)


class TestChannelBasics:
    def test_rows_must_be_stochastic(self):
        with pytest.raises(ValueError):
            FiniteMechanism(channel=np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_entries_nonnegative(self):
        with pytest.raises(ValueError):
            FiniteMechanism(channel=np.array([[1.5, -0.5], [0.5, 0.5]]))

    @pytest.mark.parametrize("channel", [
        [[np.nan, np.nan], [np.nan, np.nan]], [[0.5, np.nan], [0.5, 0.5]],
        [[np.inf, -np.inf], [0.5, 0.5]], [[np.inf, 0.0], [0.5, 0.5]],
        np.zeros((0, 2)), np.zeros((2, 0)), np.zeros((0, 0))],
        ids=["all_nan", "one_nan", "inf_pair", "inf", "no_inputs", "no_outcomes", "empty"])
    def test_non_finite_or_empty_channel_rejected(self, channel):
        # NaN fails both the sign and the row-sum comparisons, and an
        # empty channel has no row to fail them
        with pytest.raises(ValueError, match="channel"):
            FiniteMechanism(channel=np.array(channel, dtype=float))

    def test_rr_nan_eps_rejected(self):
        # randomized_response(nan) used to build an all-NaN channel, which
        # fano_certificate turned into an all-NaN report
        for k in (2, 8):
            with pytest.raises(ValueError, match="eps nan"):
                randomized_response(math.nan, k=k)

    def test_rr_beyond_exp_overflow(self):
        # e^eps overflows above eps = 709.78; the channel is built from e^-eps
        for k in (2, 3):
            c = randomized_response(800.0, k=k).channel
            assert np.array_equal(c, np.eye(k))
        c = randomized_response(710.0).channel
        assert c[0, 0] == 1.0 and c[0, 1] == math.exp(-710.0) > 0.0

    def test_rr_recovers_epsilon(self):
        for eps in (0.0, 0.3, 1.0, 4.2):
            assert dp_epsilon_of(randomized_response(eps)) == pytest.approx(eps, abs=1e-12)

    def test_uniform_channel_zero_eps(self):
        mech = FiniteMechanism(channel=np.full((3, 4), 0.25))
        assert dp_epsilon_of(mech) == 0.0

    def test_zero_entry_infinite(self):
        mech = FiniteMechanism(channel=np.array([[1.0, 0.0], [0.5, 0.5]]))
        assert math.isinf(dp_epsilon_of(mech))


class TestExactBayesRisk:
    def test_rr_closed_form_n1(self):
        sp = two_point_space(1.0)
        for eps in (0.0, 0.5, 1.0, 2.0, 5.0):
            expected = 1.0 / (1.0 + math.exp(eps))
            assert exact_bayes_risk(randomized_response(eps), sp, 1) == \
                pytest.approx(expected, rel=1e-12)

    def test_identity_channel_zero_risk(self):
        mech = FiniteMechanism(channel=np.eye(2))
        assert exact_bayes_risk(mech, two_point_space(1.0), 1) == 0.0

    def test_n2_paired_draws(self):
        # two draws of a binary symmetric channel: ties carry no
        # information, so the exact risk equals the single-draw risk;
        # frozen from enumeration and double-checked by Monte Carlo below
        risk = exact_bayes_risk(randomized_response(1.0), two_point_space(1.0), 2)
        assert risk == pytest.approx(0.26894142136999516, abs=1e-12)

    def test_n2_monte_carlo_cross_oracle(self):
        rng = np.random.default_rng(7)
        p = 1.0 / (1.0 + math.e)
        n = 2_000_000
        z = rng.integers(0, 2, size=n)
        flips = rng.random((n, 2)) < p
        outcomes = z[:, None] ^ flips
        agree0 = (outcomes == 0).sum(axis=1)
        est = np.where(agree0 == 2, 0, np.where(agree0 == 0, 1,
                                                rng.integers(0, 2, size=n)))
        mc = float(np.mean(est != z))
        assert mc == pytest.approx(0.26894142136999516, abs=2e-3)

    def test_risk_scales_with_separation_squared(self):
        mech = randomized_response(1.0)
        r1 = exact_bayes_risk(mech, two_point_space(1.0), 1)
        r3 = exact_bayes_risk(mech, two_point_space(3.0), 1)
        assert r3 == pytest.approx(9.0 * r1, rel=1e-12)

    def test_monotone_in_n_and_eps(self):
        sp = two_point_space(1.0)
        risks_n = [exact_bayes_risk(randomized_response(1.0), sp, n) for n in (1, 2, 3, 4, 5)]
        assert all(b <= a + 1e-15 for a, b in zip(risks_n, risks_n[1:]))
        risks_eps = [exact_bayes_risk(randomized_response(e), sp, 1)
                     for e in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(b <= a + 1e-15 for a, b in zip(risks_eps, risks_eps[1:]))

    def test_enumeration_cap(self):
        with pytest.raises(EnumerationCapError):
            exact_bayes_risk(randomized_response(1.0), two_point_space(1.0), 21)

    def test_squared_distance_overflow_rejected(self):
        # an infinite risk would dominate every bound and certify nothing
        mech = randomized_response(1.0)
        assert math.isfinite(exact_bayes_risk(mech, two_point_space(1e150), 2))
        for call in (lambda sp: exact_bayes_risk(mech, sp, 2),
                     lambda sp: lecam_certificate(mech, sp, n=2)):
            with pytest.raises(ValueError, match="overflow"):
                call(two_point_space(1e200))

    def test_dominates_closed_form_bound(self):
        # the certified chain on exhaustive instances: exact risk at least
        # the closed-form bound with the proof constant, for every
        # randomized-response level and sample count
        sp = two_point_space(1.0)
        for eps in np.arange(0.0, 5.01, 0.25):
            mech = randomized_response(float(eps))
            for n in (1, 2, 3):
                exact = exact_bayes_risk(mech, sp, n)
                bound = dp_lecam_bound(float(eps), n, 1.0)
                assert exact >= bound

    def test_merging_outcomes_never_helps(self):
        rng = np.random.default_rng(13)
        sp = uniform_space(3)
        for _ in range(20):
            mech = random_channel(rng, 3, 4)
            base = exact_bayes_risk(mech, sp, 1)
            o1, o2 = sorted(rng.choice(4, size=2, replace=False))
            c = mech.channel.copy()
            c[:, o1] += c[:, o2]
            coarse = FiniteMechanism(channel=np.delete(c, o2, axis=1))
            merged = exact_bayes_risk(coarse, sp, 1)
            assert merged >= base - 1e-12


class TestLeCamCertificate:
    def test_identical_rows(self):
        mech = FiniteMechanism(channel=np.array([[0.5, 0.5], [0.5, 0.5]]))
        rep = lecam_certificate(mech, two_point_space(1.0), 1)
        assert rep.tv_product == 0.0
        assert rep.lecam_bound == pytest.approx(0.125)  # (t^2)/2 at t = 1/2

    def test_deterministic_rows(self):
        mech = FiniteMechanism(channel=np.eye(2))
        rep = lecam_certificate(mech, two_point_space(1.0), 1)
        assert rep.tv_product == 1.0
        assert rep.lecam_bound == 0.0
        assert rep.exact_risk == 0.0

    def test_rr_report_values(self):
        rep = lecam_certificate(randomized_response(1.0), two_point_space(1.0), 1)
        assert rep.exact_risk == pytest.approx(1.0 / (1.0 + math.e), rel=1e-12)
        assert rep.dp_bound == pytest.approx(math.exp(-math.tanh(0.5)) / 16.0, rel=1e-12)
        assert rep.exact_risk >= rep.lecam_bound >= rep.bh_bound >= rep.dp_bound

    def test_product_certificates(self):
        # randomized response sits exactly on the kl budget, so allow the
        # same float slack the certificate itself applies
        sp = two_point_space(2.0)
        slack = 1e-12
        for eps in (0.25, 1.0, 3.0):
            for n in (1, 2, 3):
                rep = lecam_certificate(randomized_response(eps), sp, n)
                assert rep.exact_risk + slack >= rep.lecam_bound
                assert rep.lecam_bound + slack >= rep.bh_bound
                assert rep.bh_bound + slack >= rep.dp_bound

    def test_closed_form_is_the_audited_bound(self):
        # the certificate checks the very function the sweep audits, at
        # diam = separation, bit for bit
        for sep in (1.0, 2.0):
            for eps in (0.25, 1.0, 4.75):
                for n in (1, 2, 18):
                    rep = lecam_certificate(randomized_response(eps), two_point_space(sep), n)
                    assert rep.dp_bound == dp_lecam_bound(rep.epsilon, n, sep)
                    assert rep.bh_bound == two_point_bound(sep, rep.kl_single, n)

    def test_zero_entry_channel(self):
        # infinite KL and eps give exp(-inf) = 0 in both relaxed terms
        mech = FiniteMechanism(channel=np.array([[0.5, 0.5], [1.0, 0.0]]))
        rep = lecam_certificate(mech, two_point_space(1.0), 2)
        assert math.isinf(rep.kl_single) and math.isinf(rep.epsilon)
        assert rep.bh_bound == rep.dp_bound == 0.0
        assert rep.exact_risk >= rep.lecam_bound > 0.0

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            lecam_certificate(randomized_response(1.0, k=3), uniform_space(3), 1)

    def test_bound_exact_where_tv_near_one(self):
        # at n=18, eps=4.75 TV_n is within 1.1e-14 of 1, so 1 - TV_n
        # keeps about two digits; the bound is (1/8) sum_k C(n,k)
        # min(p^k q^(n-k), q^k p^(n-k)) over the channel's float entries,
        # evaluated exactly
        mech = randomized_response(4.75)
        n = 18
        rep = lecam_certificate(mech, two_point_space(1.0), n)
        p, q = (Fraction(float(v)) for v in mech.channel[0])
        exact = Fraction(1, 8) * sum(math.comb(n, k) * min(p ** k * q ** (n - k),
                                                           q ** k * p ** (n - k))
                                     for k in range(n + 1))
        assert 1.0 - rep.tv_product < 1e-13
        assert abs(rep.lecam_bound - float(exact)) <= 1e-12 * float(exact)


class TestFanoCertificate:
    def test_uniform_channel(self):
        mech = FiniteMechanism(channel=np.full((4, 4), 0.25))
        rep = fano_certificate(mech, uniform_space(4), 1)
        assert rep.mutual_info == pytest.approx(0.0, abs=1e-12)
        assert rep.fano_error_bound == pytest.approx(1.0 - math.log(2.0) / math.log(4.0))
        assert rep.exact_error == pytest.approx(0.75)

    def test_identity_channel(self):
        mech = FiniteMechanism(channel=np.eye(4))
        rep = fano_certificate(mech, uniform_space(4), 1)
        assert rep.exact_error == 0.0
        assert rep.fano_error_bound <= 0.0

    def test_rr_style_channel(self):
        rep = fano_certificate(randomized_response(1.0, k=4), uniform_space(4), 1)
        assert rep.exact_error >= rep.fano_error_bound
        assert 0.0 < rep.mutual_info < math.log(4.0)

    def test_needs_three_inputs(self):
        with pytest.raises(ValueError):
            fano_certificate(randomized_response(1.0), two_point_space(1.0), 1)


class TestFiniteChannelDivergences:
    def test_random_channels_within_privacy_budgets(self):
        # finite-channel KL, TV and Renyi divergences must respect the
        # budget functions evaluated at the channel's own epsilon
        rng = np.random.default_rng(29)
        for _ in range(100):
            m = int(rng.integers(2, 5))
            k = int(rng.integers(2, 6))
            mech = random_channel(rng, m, k)
            eps = dp_epsilon_of(mech)
            i, j = rng.choice(m, size=2, replace=False)
            i, j = int(i), int(j)
            kl = channel_kl(mech, i, j)
            assert kl <= kl_bound(eps, 1.0) + 1e-12
            assert channel_tv(mech, i, j) <= bh_tv_bound(kl) + 1e-12
            for alpha in (1.5, 2.0, 8.0):
                assert channel_renyi(mech, i, j, alpha) <= \
                    renyi_bound(eps, alpha) + 1e-12

    def test_certificate_error_surfaces(self, monkeypatch):
        # the violation branch is unreachable for true channels, so break
        # the exact-risk computation to prove the guard trips
        import reconbound.oracle as oracle_mod
        monkeypatch.setattr(oracle_mod, "exact_bayes_risk",
                            lambda *a, **k: 0.0)
        with pytest.raises(CertificateError):
            oracle_mod.lecam_certificate(randomized_response(1.0), two_point_space(1.0), 1)

    def test_mutual_information_bounds(self):
        mech = randomized_response(2.0, k=3)
        info = mutual_information(mech, 2)
        assert 0.0 <= info <= math.log(3.0)

    def test_identification_error_decreases_with_n(self):
        mech = randomized_response(0.8, k=3)
        errs = [exact_identification_error(mech, n) for n in (1, 2, 3, 4)]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))


class TestTypeClassesMatchTupleEnumeration:
    def check(self, mech, n, rng):
        # all four enumerations against their sums over ordered tuples
        m = mech.n_inputs
        dist = pairwise_distances(rng.normal(size=(m, 2)))
        space = FiniteMetricSpace(points=tuple(range(m)), dist=dist)
        like = tuple_likelihoods(mech, n)
        sq = space.dist ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(like > 0, like * (np.log(like) - np.log(like.mean(axis=0))), 0.0)
        pairs = [(exact_bayes_risk(mech, space, n), (sq.T @ like).min(axis=0).sum() / m),
                 (exact_identification_error(mech, n), 1.0 - like.max(axis=0).sum() / m),
                 (mutual_information(mech, n), terms.sum() / m)]
        if m == 2:
            tv, overlap = product_tv(mech, n)
            pairs += [(tv, 0.5 * np.sum(np.abs(like[0] - like[1]))),
                      (overlap, np.sum(np.minimum(like[0], like[1])))]
        for got, want in pairs:
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (n, mech.channel, got, want)

    def test_random_channels(self):
        rng = np.random.default_rng(31)
        for m in (2, 3, 4):
            for k in (2, 3, 4, 5):
                for n in (1, 2, 3, 4, 5):
                    self.check(random_channel(rng, m, k), n, rng)

    def test_channels_with_zero_entries(self):
        rng = np.random.default_rng(37)
        zero_column = np.array([[0.5, 0.0, 0.5], [0.2, 0.0, 0.8], [0.3, 0.0, 0.7]])
        sparse = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.5, 0.5, 0.0],
                           [0.25, 0.0, 0.25, 0.5]])
        for c in (np.eye(2), np.eye(3), np.eye(4), zero_column, sparse,
                  np.array([[1.0, 0.0], [0.5, 0.5]])):
            for n in (1, 2, 3, 4, 5):
                self.check(FiniteMechanism(channel=c), n, rng)

    def test_second_call_hits_the_cache(self):
        # the same sums again from the cached class index of (3, 5)
        rng = np.random.default_rng(41)
        oracle._type_classes.cache_clear()
        for _ in range(2):
            self.check(random_channel(rng, 2, 3), 5, rng)
        info = oracle._type_classes.cache_info()
        assert (info.misses, info.hits) == (1, 7)

    def test_cached_index_is_read_only(self):
        # position-major: one row per draw position, one nondecreasing
        # outcome sequence per column, C(4 + 3 - 1, 4) = 15 classes
        index, mult = oracle._type_classes(3, 4)
        assert index is oracle._type_classes(3, 4)[0]
        assert index.shape == (4, 15) and mult.shape == (15,)
        assert np.all(np.diff(index, axis=0) >= 0)
        assert len({tuple(col) for col in index.T}) == 15
        for array in (index, mult):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_cap_applies_after_caching(self, monkeypatch):
        # (3, 4) is cached, yet a lowered cap refuses it before the lookup
        mech = randomized_response(1.0, k=3)
        exact_identification_error(mech, 4)
        info = oracle._type_classes.cache_info()
        monkeypatch.setattr(oracle, "ENUMERATION_CAP", 3 ** 4 - 1)
        with pytest.raises(EnumerationCapError):
            exact_identification_error(mech, 4)
        assert oracle._type_classes.cache_info() == info

    def test_cap_counts_ordered_tuples(self, monkeypatch):
        # the cap still applies to n_outcomes^n, not to the type classes
        sp = uniform_space(3)
        mech = randomized_response(1.0, k=3)
        for call in (lambda: exact_bayes_risk(mech, sp, 4),
                     lambda: exact_identification_error(mech, 4),
                     lambda: mutual_information(mech, 4)):
            monkeypatch.setattr(oracle, "ENUMERATION_CAP", 3 ** 4)
            call()
            monkeypatch.setattr(oracle, "ENUMERATION_CAP", 3 ** 4 - 1)
            with pytest.raises(EnumerationCapError):
                call()
            monkeypatch.undo()
        product_tv(randomized_response(1.0), 19)
        assert 2 ** 19 <= ENUMERATION_CAP < 2 ** 20
        with pytest.raises(EnumerationCapError):
            product_tv(randomized_response(1.0), 20)
