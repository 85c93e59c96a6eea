import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from reconbound.bounds import (DegenerateDimensionError, Validity, dp_lecam_bound,
                               fano_bound, mdp_fano_bound, mdp_lecam_bound,
                               renyi_dp_lecam_bound, two_point_bound,
                               unbiased_rdp_bound, unbiased_rdp_validity_threshold,
                               validity_check)
from reconbound.divergence import kl_bound, renyi_bound


class TestTwoPoint:
    def test_direct(self):
        assert two_point_bound(2.0, 0.5, 3, 0.1) == pytest.approx(
            4.0 / 16.0 * math.exp(-1.5) * 0.9, rel=1e-15)
        # a separation whose square overflows gives inf, not OverflowError
        assert two_point_bound(1e200, 0.5, 1) == math.inf

    def test_dp_and_renyi_bounds_are_the_routine(self):
        # bit for bit: both closed forms are the two-point routine at
        # sep = diam with their divergence budgets
        for eps in (0.1, 0.45, 1.0, 2.9, 7.5):
            for n in (1, 2, 5, 18):
                for diam in (0.5, 1.0, 2.0):
                    assert dp_lecam_bound(eps, n, diam, 1e-5) == \
                        two_point_bound(diam, kl_bound(eps), n, 1e-5)
                    for alpha in (1.5, 2.0, 8.0):
                        assert renyi_dp_lecam_bound(eps, alpha, n, diam) == \
                            two_point_bound(diam, renyi_bound(eps, alpha), n)

    def test_metric_bound_is_the_routine(self):
        # bit for bit: the routine at sep = diam, capped at sqrt(2/n)/eps,
        # with the KL budget of a pair sep apart
        for eps in (0.0, 0.1, 0.45, 1.0, 2.9, 7.5):
            for n in (1, 2, 5, 18):
                for diam in (0.5, 2.0, 10.0):
                    reach = math.sqrt(2.0 / n)
                    sep = diam if eps * diam <= reach else reach / eps
                    assert mdp_lecam_bound(eps, n, diam, 1e-5) == \
                        two_point_bound(sep, kl_bound(eps, sep), n, 1e-5)


class TestDpLecam:
    def test_eps_zero_proof_constant(self):
        assert dp_lecam_bound(0.0, 1, 1.0) == pytest.approx(1.0 / 16.0, rel=1e-12)

    def test_delta_one_kills_bound(self):
        val = dp_lecam_bound(1.0, 1, 1.0, 1.0 - 1e-12)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_direct_evaluation(self):
        expected = math.exp(-math.tanh(0.5)) / 16.0
        assert dp_lecam_bound(1.0, 1, 1.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.0393718, abs=1e-6)

    def test_never_exceeds_cap_and_monotone(self):
        cap = lambda delta: (1.0 / 16.0) * 4.0 * (1 - delta)
        prev = math.inf
        for eps in np.linspace(0.0, 8.0, 50):
            val = dp_lecam_bound(float(eps), 1, 2.0, 0.1)
            assert val <= cap(0.1) + 1e-15
            assert val <= prev + 1e-15
            prev = val
        n_vals = [dp_lecam_bound(1.0, n, 1.0) for n in (1, 2, 4, 8)]
        assert n_vals == sorted(n_vals, reverse=True)

    def test_needs_finite_diam(self):
        with pytest.raises(ValueError):
            dp_lecam_bound(1.0, 1, math.nan)


class TestRenyiLecam:
    def test_eps_zero(self):
        assert renyi_dp_lecam_bound(0.0, 2.0, 1, 1.0) == pytest.approx(1 / 16)

    def test_quadratic_branch(self):
        val = renyi_dp_lecam_bound(0.1, 2.0, 1, 1.0)
        assert val == pytest.approx(math.exp(-0.03) / 16.0, rel=1e-12)
        assert val == pytest.approx(0.0606529, abs=1e-6)

    def test_linear_branch(self):
        val = renyi_dp_lecam_bound(2.0, 2.0, 3, 1.0)
        assert val == pytest.approx(math.exp(-3 * 2.0) / 16.0, rel=1e-12)

    def test_alpha_required(self):
        # a Renyi order above 1; NaN is none
        for alpha in (1.0, 0.5, math.nan):
            with pytest.raises(ValueError):
                renyi_dp_lecam_bound(1.0, alpha, 1, 1.0)


def dense_two_point_sup(eps, n, diam, points=20001):
    """The metric two-point form's largest value over a uniform grid of
    separations in (0, diam], evaluated with numpy."""
    sep = np.linspace(0.0, diam, points)[1:]
    t = eps * sep
    return float(np.max(sep * sep / 16.0 * np.exp(-n * t * np.tanh(t / 2.0))))


class TestMdpLecam:
    def test_direct(self):
        # sep = diam while eps * diam <= sqrt(2/n) ...
        assert mdp_lecam_bound(0.1, 1, 2.0) == pytest.approx(
            0.25 * math.exp(-0.2 * math.tanh(0.1)), rel=1e-15)
        assert mdp_lecam_bound(0.1, 1, 2.0) == pytest.approx(0.24507, abs=1e-5)
        # ... and sqrt(2/n)/eps past it, where eps * sep = sqrt(2/n)
        t = math.sqrt(2.0)
        assert mdp_lecam_bound(1.0, 1, 2.0) == pytest.approx(
            2.0 / 16.0 * math.exp(-t * math.tanh(t / 2.0)), rel=1e-15)
        assert mdp_lecam_bound(0.8, 1, 2.0) == pytest.approx(0.08256, abs=1e-5)

    def test_halves_with_n(self):
        # past the cap sep^2 halves as n doubles, and n * kl_bound(eps, sep)
        # = 1 - 1/(6n) + O(1/n^2) rises, by less than 1/(12n)
        for eps in (1.0, 3.0):
            for n in (1, 2, 8, 100):
                a, b = mdp_lecam_bound(eps, n, 2.0), mdp_lecam_bound(eps, 2 * n, 2.0)
                assert a / 2 * math.exp(-1.0 / (12 * n)) <= b <= a / 2, (eps, n)

    def test_eps_zero_costs_the_pair(self):
        # with no privacy loss the pair at the diameter is still a pair
        for n in (1, 5):
            for diam in (1.0, 2.0, 3.0):
                assert mdp_lecam_bound(0.0, n, diam) == diam * diam / 16.0

    def test_tiny_eps_is_the_diameter_form(self):
        # eps^2 underflows to 0 below about 1.5e-162; the KL budget does
        # too, and the bound is diam^2/16 to the last bit
        for eps in (1e-150, 1e-170, 1e-200, 5e-324):
            assert mdp_lecam_bound(eps, 1, 2.0) == 0.25

    def test_within_the_unit_ball_trivial_risk(self):
        # the unit ball's pair at the diameter caps every two-point value at
        # 4/16, under the constant estimator's worst-case risk 1
        for eps in np.geomspace(1e-300, 1e3, 301):
            for n in (1, 2, 5):
                assert mdp_lecam_bound(float(eps), n, 2.0) <= 0.25, (eps, n)

    def test_near_the_supremum_over_sep(self):
        # the closed-form sep maximizes the form under kl <= t^2/2; against
        # the exact form it loses at most 6 % (n = 1), less as n grows
        eps_grid = [0.1 + 0.35 * i for i in range(14)] + [10.0, 30.0, 100.0]
        for n in (1, 2, 5):
            for eps in eps_grid:
                sup = dense_two_point_sup(eps, n, 2.0)
                val = mdp_lecam_bound(eps, n, 2.0)
                assert 0.94 * sup <= val <= sup * (1 + 1e-6), (eps, n, val / sup)

    def test_needs_finite_diam(self):
        # a NaN, infinite or negative diameter reaches two_point_bound as
        # the separation at eps = 0, which rejects it
        for diam in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError):
                mdp_lecam_bound(0.0, 1, diam)


def dense_fano_sup(eps, n, diam, d_eff, points=20001):
    """The metric Fano form's largest value over a log-spaced grid of ball
    diameters in [1e-9 * diam, diam], evaluated with numpy."""
    D = np.geomspace(1e-9 * diam, diam, points)
    t = eps * D
    gap = d_eff - math.log(2.0)
    return float(np.max((D / 8.0) ** 2 * (gap - n * t * np.tanh(t / 2.0)) / d_eff))


def lecam_capped_ratio(n, d_eff):
    """mdp_fano / mdp_lecam where both cap their diameter, eps*diam >=
    max(sqrt(gap/n), sqrt(2/n)): Fano's quadratic candidate against the
    two-point value, gap*(gap - n*k(sqrt(gap/n)))*e^{n*k(sqrt(2/n))}/(8*d_eff)
    with k(t) = t*tanh(t/2); mdp_fano is at least this times mdp_lecam."""
    gap = d_eff - math.log(2.0)
    k = lambda t: t * math.tanh(t / 2.0)
    return gap * (gap - n * k(math.sqrt(gap / n))) * math.exp(n * k(math.sqrt(2.0 / n))) \
        / (8.0 * d_eff)


def assert_capped_and_nonincreasing(eps_grid, n, d_eff, diam=2.0):
    """Finite, in [0, diam^2/64] and non-increasing along an ascending
    eps grid."""
    prev = math.inf
    for eps in eps_grid:
        val = mdp_fano_bound(float(eps), n, diam, d_eff)
        assert 0.0 <= val <= diam * diam / 64.0, (eps, n, d_eff, val)
        assert val <= prev, (eps, n, d_eff, val, prev)
        prev = val


class TestFanoRoutine:
    def test_direct(self):
        ln2 = math.log(2.0)
        assert fano_bound(2.0, 0.5, 3, 16 * ln2, 0.1) == pytest.approx(
            1.0 * (15 * ln2 - 1.5) / (16 * ln2) * 0.9, rel=1e-15)

    def test_gap_formed_first(self):
        # at d_eff one ulp above ln 2, 1 - (ln 2 + n*kl)/d_eff cancels to
        # 0 or one ulp of 1, 30 % or more off; d_eff - ln 2 is exact
        d_eff = math.nextafter(math.log(2.0), 2.0)
        for sep, kl, n in ((0.5, 0.0, 1), (2.0, 1e-17, 3), (1e-8, 5e-17, 1)):
            exact = (Fraction(sep) / 2) ** 2 * (
                Fraction(d_eff) - Fraction(math.log(2.0)) - n * Fraction(kl)) / Fraction(d_eff)
            assert fano_bound(sep, kl, n, d_eff) == pytest.approx(float(exact), rel=1e-12,
                                                                  abs=0)

    def test_rejects_bad_separation_and_dimension(self):
        for sep in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError):
                fano_bound(sep, 0.0, 1, 11.0)
        for d_eff in (math.log(2.0), 0.5, math.inf, math.nan):
            with pytest.raises(DegenerateDimensionError):
                fano_bound(1.0, 0.0, 1, d_eff)


class TestMdpFano:
    def test_closed_form_small_dim(self):
        # at d_eff = 2 ln 2, eps = 1 and diam 2 the quadratic reach wins:
        # D = sqrt(ln 2) with kl = k(D), k(t) = t*tanh(t/2)
        ln2 = math.log(2.0)
        r = math.sqrt(ln2)
        val = mdp_fano_bound(1.0, 1, 2.0, 2 * ln2)
        assert val == pytest.approx((r / 8.0) ** 2 * (ln2 - r * math.tanh(r / 2.0)) / (2 * ln2),
                                    rel=1e-12)

    def test_desk_values(self):
        # n = 1 on the unit ball at d_eff = 16 ln 2, the desk sweep's column
        want = {0.1: "0.058481", 0.45: "0.056454", 0.8: "0.052606", 1.15: "0.047994",
                1.5: "0.043291", 1.85: "0.038748", 2.2: "0.034399", 4.65: "0.010892"}
        for eps, digits in want.items():
            assert f"{mdp_fano_bound(eps, 1, 2.0, 16 * math.log(2.0)):.5g}" == digits, eps

    def test_metric_bound_is_the_routine(self):
        # bit for bit: the larger value of the routine at the two capped
        # diameters, at a quarter of the diameter with the KL of a pair
        # the diameter apart
        ln2 = math.log(2.0)
        for eps in (0.0, 0.1, 0.45, 1.0, 2.9, 7.5):
            for n in (1, 2, 5, 18):
                for diam in (0.5, 2.0, 10.0):
                    for d_eff in (1.5 * ln2, 16 * ln2, 784 * ln2):
                        gap = d_eff - ln2
                        values = []
                        for reach in (math.sqrt(gap / n), 2 * gap / (3 * n)):
                            D = diam if eps * diam <= reach else reach / eps
                            values.append(fano_bound(D / 4, kl_bound(eps, D), n, d_eff, 1e-5))
                        assert mdp_fano_bound(eps, n, diam, d_eff, 1e-5) == max(values)

    def test_asymptotically_linear_in_dim(self):
        # more hypotheses never lower the bound, and none lifts it past the
        # packing ball's (diam/8)^2
        for eps in (0.1, 1.0, 10.0):
            for n in (1, 5):
                prev = 0.0
                for d_eff in np.geomspace(0.7, 1e300, 200):
                    val = mdp_fano_bound(eps, n, 2.0, float(d_eff))
                    assert prev <= val <= 4.0 / 64.0, (eps, n, d_eff)
                    prev = val

    def test_matches_numeric_maximization(self):
        # every D <= diam is valid, so the value is at most the supremum
        # over D; the two closed-form diameters reach 94 % of it or more
        ln2 = math.log(2.0)
        for ratio in (1 + 1e-7, 1.5, 2, 3, 5, 8, 16, 40, 784):
            for n in (1, 2, 5, 18):
                for eps in np.geomspace(0.01, 1e4, 15):
                    sup = dense_fano_sup(float(eps), n, 2.0, ratio * ln2)
                    val = mdp_fano_bound(float(eps), n, 2.0, ratio * ln2)
                    assert 0.94 * sup <= val <= sup * (1 + 1e-5), (ratio, n, eps, val / sup)

    def test_degenerate_dim_rejected(self):
        # checked before sqrt(gap/n), so a d_eff below ln 2 is not a math
        # domain error
        for d_eff in (math.log(2.0), 0.5, -1.0, math.inf, math.nan):
            with pytest.raises(DegenerateDimensionError):
                mdp_fano_bound(1.0, 1, 2.0, d_eff)

    def test_denominator_beyond_float_range(self):
        # the inputs where the uncapped form's 8*n*eps^2*d_eff overflowed:
        # every value is bounded by diam and gap
        eps_grid = {}
        for eps, n, d_eff in [(1e100, 1, 1e150), (1e155, 1, 1e300), (1e160, 3, 1e300)]:
            eps_grid.setdefault((n, d_eff), []).append(eps)
        for d_eff in (11.0, 1e8, 1e100, 1e150, 1e200):
            for n in (1, 2):
                eps_grid.setdefault((n, d_eff), []).extend(
                    math.sqrt(edge / (8 * n * d_eff)) * math.sqrt(sys.float_info.max)
                    for edge in (0.1, 0.95, 1.0, 1.05, 10.0, 1e4))
        for (n, d_eff), grid in eps_grid.items():
            assert_capped_and_nonincreasing(sorted(grid), n, d_eff)
        # the linear reach 2*gap/3 keeps the whole diameter here
        assert mdp_fano_bound(1e100, 1, 2.0, 1e150) == 1.0 / 16.0

    def test_infinite_where_eps_squared_underflows(self):
        # eps = 0 and an eps whose KL budget underflows cost the packing at
        # the full diameter: (diam/8)^2 * gap/d_eff, finite
        want = (2.0 / 8.0) ** 2 * ((11.0 - math.log(2.0)) / 11.0)
        for eps in (0.0, 1e-170, 1e-200):
            assert mdp_fano_bound(eps, 1, 2.0, 11.0) == want

    def test_subnormal_eps_squared(self):
        # eps^2 is subnormal below about 1.5e-154 and 0 below 1.5e-162
        ln2 = math.log(2.0)
        for d_eff in (math.nextafter(ln2, 2.0), ln2 * (1 + 1e-9), 11.0, 1e6, 1e300):
            for n in (1, 3):
                assert_capped_and_nonincreasing(
                    [5e-324] + list(np.geomspace(1e-165, 1e-150, 301)) + [1e160], n, d_eff)

    def test_within_the_unit_ball_trivial_risk(self):
        # the unit ball's packing balls cap every Fano value at 4/64, under
        # the constant estimator's worst-case risk 1
        ln2 = math.log(2.0)
        for d_eff in (math.nextafter(ln2, 2.0), 16 * ln2, 784 * ln2, 1e300):
            for n in (1, 2, 5):
                for eps in [0.0] + list(np.geomspace(1e-300, 1e300, 301)):
                    assert mdp_fano_bound(float(eps), n, 2.0, d_eff) <= 1.0 / 16.0, (
                        eps, n, d_eff)

    def test_constant_factor_from_two_point_form(self):
        # at d_eff = 2 ln 2 and diam 10 both bounds cap their diameter on
        # this grid.  Fano's factor 1 - (n*kl + ln 2)/d_eff is at most
        # e^{-n*kl}/2 there, so mdp_fano is at most 1/8 of the two-point
        # supremum; and its quadratic candidate keeps it at least
        # lecam_capped_ratio times mdp_lecam
        d_eff = 2 * math.log(2.0)
        for n in (1, 2, 5, 10):
            for eps in (0.2, 1.0, 3.0):
                fano = mdp_fano_bound(eps, n, 10.0, d_eff)
                assert fano <= dense_two_point_sup(eps, n, 10.0) / 8.0 * (1 + 1e-9)
                assert fano >= lecam_capped_ratio(n, d_eff) * mdp_lecam_bound(eps, n, 10.0) \
                    * (1 - 1e-12)


class TestUnbiasedRdp:
    def test_unit_ball_at_threshold(self):
        eps = unbiased_rdp_validity_threshold(784)
        val = unbiased_rdp_bound(eps, 784.0)
        assert val == pytest.approx(1.0, rel=1e-9)

    def test_ln2_plugin(self):
        assert unbiased_rdp_bound(math.log(2.0), 4.0) == \
            pytest.approx(1.0, rel=1e-12)

    def test_large_eps_limit(self):
        assert unbiased_rdp_bound(200.0, 4.0) == \
            pytest.approx(0.0, abs=1e-60)

    def test_infinite_at_zero(self):
        assert math.isinf(unbiased_rdp_bound(0.0, 4.0))

    def test_small_eps_keeps_precision(self):
        # e^eps - 1 is eps to first order; exp(eps) - 1.0 rounds to 0 below
        # 1.1e-16 and to 2.2e-16 at eps = 3e-16, 35 % off
        for eps in (1e-200, 1e-17, 3e-16, 1e-10):
            val = unbiased_rdp_bound(eps, 1.0)
            assert val == pytest.approx(1.0 / (4.0 * eps), rel=1e-9)

    def test_zero_beyond_exp_overflow(self):
        # e^eps overflows a float above eps = ln(max float) = 709.78
        below = unbiased_rdp_bound(700.0, 784.0)
        assert below == 784.0 / (4.0 * (math.exp(700.0) - 1.0)) > 0.0
        for eps in (710.0, 800.0, 1e6):
            assert unbiased_rdp_bound(eps, 784.0) == 0.0

    def test_threshold_values(self):
        assert unbiased_rdp_validity_threshold(784) == pytest.approx(5.2832037, abs=1e-6)
        assert unbiased_rdp_validity_threshold(4) == pytest.approx(math.log(2.0))

    def test_crossing_at_threshold(self):
        d = 784
        thr = unbiased_rdp_validity_threshold(d)
        below = unbiased_rdp_bound(thr - 1e-3, float(d))
        above = unbiased_rdp_bound(thr + 1e-3, float(d))
        assert below > 1.0 >= above


class TestValidity:
    def test_valid(self):
        assert validity_check(0.5, 1.0) is Validity.VALID

    def test_vacuous(self):
        assert validity_check(2.0, 1.0) is Validity.VACUOUS

    def test_unit_ball_midrange_vacuous(self):
        val = unbiased_rdp_bound(3.0, 784.0)
        assert validity_check(val, 1.0) is Validity.VACUOUS

    def test_infinite_flag(self):
        assert validity_check(math.inf, 1.0) is Validity.INFINITE


class TestComparisons:
    def test_metric_bounds_strictly_decreasing(self):
        d_eff = 16 * math.log(2.0)
        eps_grid = [0.1, 0.5, 1.0, 2.0, 4.0]
        lecam = [mdp_lecam_bound(e, 1, 2.0) for e in eps_grid]
        fano = [mdp_fano_bound(e, 1, 2.0, d_eff) for e in eps_grid]
        assert all(b < a for a, b in zip(lecam, lecam[1:]))
        assert all(b < a for a, b in zip(fano, fano[1:]))
        lecam_n = [mdp_lecam_bound(1.0, n, 2.0) for n in (1, 2, 3, 4)]
        fano_n = [mdp_fano_bound(1.0, n, 2.0, d_eff) for n in (1, 2, 3, 4)]
        assert all(b < a for a, b in zip(lecam_n, lecam_n[1:]))
        assert all(b < a for a, b in zip(fano_n, fano_n[1:]))

    def test_quadratic_beats_exponential_decay(self):
        # d/t^2 >= d/(e^t - 1) for t > 0, i.e. e^t - 1 >= t^2 on the grid
        for t in np.linspace(0.01, 10.0, 200):
            assert math.exp(t) - 1.0 >= t * t
