"""The reference oracles of `reference` (closed forms, quadrature, the
total-variation cap) checked against one another, and the package's KL
budget `bounds.kl_bound` checked against them."""

import math

import numpy as np
import pytest

from reconbound.bounds import kl_bound

from reference import (GAUSSIAN, LAPLACE, AnalyticPair, QuadratureError, analytic_kl,
                       analytic_renyi, bh_tv_bound, gaussian_logpdf, integrate,
                       laplace_logpdf, numeric_kl, numeric_kl_pair, numeric_tv,
                       pair_logpdfs, pair_support)


class TestKLBound:
    def test_zero_eps(self):
        assert kl_bound(0.0, 5.0) == 0.0

    def test_unit(self):
        assert kl_bound(1.0, 1.0) == pytest.approx(math.tanh(0.5), rel=1e-12)

    def test_product(self):
        assert kl_bound(2.0, 3.0) == pytest.approx(6 * math.tanh(3.0), rel=1e-12)

    def test_exact_below_min_form_on_grid(self):
        for t in np.linspace(0.0, 12.0, 241):
            assert kl_bound(float(t), 1.0) <= min(t, t * t / 2.0) * (1 + 1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            kl_bound(-0.1)


class TestAnalyticForms:
    def test_laplace_identical(self):
        assert analytic_kl(AnalyticPair(LAPLACE, 0.3, 0.3, 1.0)) == 0.0

    def test_gaussian_unit(self):
        assert analytic_kl(AnalyticPair(GAUSSIAN, 1.0, 0.0, 1.0)) == pytest.approx(0.5)

    def test_laplace_vs_quadrature(self):
        pair = AnalyticPair(LAPLACE, 1.0, 0.0, 1.0)
        expected = 1.0 + math.exp(-1.0) - 1.0
        assert analytic_kl(pair) == pytest.approx(expected, rel=1e-12)
        assert numeric_kl_pair(pair) == pytest.approx(analytic_kl(pair), abs=1e-8)

    def test_renyi_identical(self):
        assert analytic_renyi(AnalyticPair(GAUSSIAN, 0.0, 0.0, 2.0), 5.0) == 0.0

    def test_renyi_unit(self):
        assert analytic_renyi(AnalyticPair(GAUSSIAN, 1.0, 0.0, 1.0), 2.0) == pytest.approx(1.0)

    def test_renyi_vs_monte_carlo(self):
        # order-3 divergence of N(2, 2) vs N(0, 2): closed form 1.5, checked
        # against a plain Monte Carlo estimate of the defining expectation
        pair = AnalyticPair(GAUSSIAN, 2.0, 0.0, 2.0)
        alpha = 3.0
        assert analytic_renyi(pair, alpha) == pytest.approx(1.5, rel=1e-12)
        rng = np.random.default_rng(42)
        z = rng.normal(pair.loc2, pair.scale, size=1_000_000)
        log_ratio = (-((z - pair.loc1) ** 2) + (z - pair.loc2) ** 2) / (2 * pair.scale ** 2)
        est = math.log(np.mean(np.exp(alpha * log_ratio))) / (alpha - 1)
        assert est == pytest.approx(1.5, abs=0.1)

    def test_renyi_laplace_unsupported(self):
        with pytest.raises(ValueError):
            analytic_renyi(AnalyticPair(LAPLACE, 1.0, 0.0, 1.0), 2.0)

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            AnalyticPair(LAPLACE, 0.0, 0.0, 0.0)


class TestNumericKL:
    def test_identical_distributions(self):
        pair = AnalyticPair(GAUSSIAN, 0.7, 0.7, 1.3)
        assert abs(numeric_kl_pair(pair)) <= 1e-8

    def test_laplace_oracle_value(self):
        pair = AnalyticPair(LAPLACE, 1.0, 0.0, 1.0)
        assert numeric_kl_pair(pair) == pytest.approx(0.36787944117144233, abs=1e-8)

    def test_gaussian_known_identity(self):
        pair = AnalyticPair(GAUSSIAN, 1.0, 0.0, 1.0)
        assert numeric_kl_pair(pair) == pytest.approx(0.5, abs=1e-8)

    def test_agreement_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            family = LAPLACE if rng.random() < 0.5 else GAUSSIAN
            pair = AnalyticPair(family, float(rng.normal()), float(rng.normal()),
                                float(rng.uniform(0.3, 3.0)))
            assert numeric_kl_pair(pair) == pytest.approx(analytic_kl(pair), abs=1e-6)

    def test_depth_cap_raises(self):
        # an integrable singularity refines forever at this tolerance
        singular = lambda x: 1.0 / np.sqrt(np.abs(x - 1.0 / 3.0))
        with pytest.raises(QuadratureError):
            integrate(singular, (0.0, 1.0), tol=1e-13)


class TestBHBound:
    def test_zero_kl(self):
        assert bh_tv_bound(0.0) == pytest.approx(0.5)

    def test_large_kl_limit(self):
        assert bh_tv_bound(800.0) == pytest.approx(1.0)

    def test_ln2(self):
        assert bh_tv_bound(math.log(2.0)) == pytest.approx(0.75)

    def test_output_range_and_tv_domination(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            pair = AnalyticPair(LAPLACE, float(rng.normal()), float(rng.normal()),
                                float(rng.uniform(0.5, 2.0)))
            p, q = pair_logpdfs(pair)
            support = pair_support(pair)
            tv = numeric_tv(p, q, support)
            cap = bh_tv_bound(numeric_kl(p, q, support))
            assert 0.0 <= cap < 1.0
            assert tv <= cap + 1e-8


class TestTensorization:
    def test_triple_product_by_quadrature(self):
        # 3-D tensor-grid quadrature over the product support, no
        # separability shortcut: an independent check of additivity
        pair = AnalyticPair(LAPLACE, 0.0, 0.7, 1.3)
        lo, hi = pair_support(pair)
        nodes, weights = np.polynomial.legendre.leggauss(15)
        edges = sorted({lo, hi, pair.loc1, pair.loc2})
        xs, ws = [], []
        for a, b in zip(edges, edges[1:]):
            for aa, bb in zip(np.linspace(a, b, 5), np.linspace(a, b, 5)[1:]):
                mid, half = (aa + bb) / 2, (bb - aa) / 2
                xs.append(mid + half * nodes)
                ws.append(half * weights)
        x = np.concatenate(xs)
        w = np.concatenate(ws)
        lp = laplace_logpdf(x, pair.loc1, pair.scale)
        lq = laplace_logpdf(x, pair.loc2, pair.scale)
        p, r = np.exp(lp), lp - lq
        f = (p[:, None, None] * p[None, :, None] * p[None, None, :]) * (
            r[:, None, None] + r[None, :, None] + r[None, None, :])
        triple = float(np.einsum("i,j,k,ijk->", w, w, w, f))
        assert triple == pytest.approx(3 * analytic_kl(pair), abs=1e-6)


class TestMechanismCalibration:
    def test_laplace_mechanism_kl_below_budget_on_grid(self):
        # an eps-per-unit-budget Laplace pair (scale = 1/eps, shift 1) must
        # sit under the hyperbolic budget at every grid point; the margin
        # eps + e^-eps - 1 <= eps*tanh(eps/2) is tight enough to deserve a
        # pointwise check rather than an asymptotic argument
        for eps in np.linspace(0.05, 5.0, 100):
            kl = analytic_kl(AnalyticPair(LAPLACE, 1.0, 0.0, 1.0 / eps))
            assert kl <= kl_bound(float(eps), 1.0) + 1e-12

    def test_gaussian_logpdf_normalization(self):
        assert integrate(lambda x: np.exp(gaussian_logpdf(x, 0.3, 0.9)),
                         (-40.0, 40.0)) == pytest.approx(1.0, abs=1e-8)

    def test_laplace_logpdf_normalization(self):
        assert integrate(lambda x: np.exp(laplace_logpdf(x, -0.2, 1.7)),
                         (-80.0, 80.0)) == pytest.approx(1.0, abs=1e-8)

