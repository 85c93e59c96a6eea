import math

import numpy as np
import pytest

import reconbound.pnsgd as pnsgd_mod
from reconbound.mechanisms import sigmoid
from reconbound.pnsgd import (DEFAULT_ALPHAS, PNSGDConfig, StepSizeError,
                              noise_for_renyi_dp, noise_for_renyi_mdp,
                              noise_for_target_dp, pnsgd_run, project_l2, rdp_to_dp)


def quad_grad(w, x):
    return w - x


def gaussian_final_law(eta, sigma, n, t, dx):
    """Mean gap and variance of the final iterate for the 1-D quadratic
    family when datasets differ at position t (no active projection)."""
    gap = eta * (1 - eta) ** (n - t) * dx
    var = eta ** 2 * sigma ** 2 * sum((1 - eta) ** (2 * k) for k in range(n))
    return gap, var


class TestRun:
    def test_noiseless_fixed_point(self):
        cfg = PNSGDConfig(eta=1.0, sigma=0.0, w0=np.zeros(2),
                          constraint_radius=5.0, beta=1.0)
        x_star = np.array([0.5, -1.0])
        w = pnsgd_run(cfg, [x_star] * 4, quad_grad, [np.random.default_rng(0)])[0]
        assert np.allclose(w, x_star, rtol=0, atol=1e-15)

    def test_projection_identity(self):
        v = np.array([3.0, 4.0])
        w = project_l2(v, 1.0)
        assert np.linalg.norm(w) == pytest.approx(1.0)
        assert np.allclose(w, v / np.linalg.norm(v))
        inside = np.array([0.1, 0.2])
        assert np.array_equal(project_l2(inside, 1.0), inside)

    def test_step_size_guard(self):
        with pytest.raises(StepSizeError):
            PNSGDConfig(eta=2.5, sigma=0.0, w0=np.zeros(1),
                        constraint_radius=1.0, beta=1.0)

    def test_empty_dataset(self):
        cfg = PNSGDConfig(eta=0.5, sigma=0.0, w0=np.zeros(1),
                          constraint_radius=1.0, beta=1.0)
        with pytest.raises(ValueError):
            pnsgd_run(cfg, [], quad_grad, [np.random.default_rng(0)])

    def test_final_iterate_law_monte_carlo(self):
        # 1-D quadratic with noise and slack radius: the final iterate is
        # gaussian with mean/variance given by the linear recursion
        eta, sigma = 0.6, 0.8
        xs = np.array([0.5, -0.3, 1.2, 0.7])
        m, s2 = 0.0, 0.0
        for x in xs:
            m = (1 - eta) * m + eta * x
            s2 = (1 - eta) ** 2 * s2 + eta ** 2 * sigma ** 2
        cfg = PNSGDConfig(eta=eta, sigma=sigma, w0=np.zeros(1),
                          constraint_radius=100.0, beta=1.0)
        # 1 000 chains run in lockstep, each from a generator of its own,
        # for 100 passes; each pass continues its chains' generators, so the
        # 100 000 final iterates are independent draws of the law
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(12345).spawn(1_000)]
        finals = np.concatenate([pnsgd_run(cfg, xs, quad_grad, rngs)[:, 0]
                                 for _ in range(100)])
        assert finals.mean() == pytest.approx(m, rel=0.02)
        assert finals.var() == pytest.approx(s2, rel=0.02)

    def test_bit_identical_reruns(self):
        cfg = PNSGDConfig(eta=0.5, sigma=1.0, w0=np.zeros(3),
                          constraint_radius=2.0, beta=1.0)
        xs = [np.array([0.1, 0.2, 0.3])] * 10
        w1 = pnsgd_run(cfg, xs, quad_grad, [np.random.default_rng(7)])[0]
        w2 = pnsgd_run(cfg, xs, quad_grad, [np.random.default_rng(7)])[0]
        assert np.array_equal(w1, w2)

    def test_contractive_update_on_random_quadratics(self):
        # for sigma=0 and eta <= 2/beta the update is nonexpansive
        rng = np.random.default_rng(31)
        beta = 2.0
        for _ in range(1000):
            d = int(rng.integers(1, 5))
            a = rng.normal(size=(d, d))
            hess = a.T @ a
            hess *= beta / max(np.linalg.eigvalsh(hess).max(), beta)
            x = rng.normal(size=d)
            eta = float(rng.uniform(0.05, 2.0 / beta))
            radius = 50.0
            w1, w2 = rng.normal(size=d), rng.normal(size=d)
            u1 = project_l2(w1 - eta * (hess @ (w1 - x)), radius)
            u2 = project_l2(w2 - eta * (hess @ (w2 - x)), radius)
            assert np.linalg.norm(u1 - u2) <= np.linalg.norm(w1 - w2) * (1 + 1e-12)


def per_sample_pass(config, sigma, dataset, loss_grad, rng):
    """Reference: one chain, one sample at a time, one noise draw per
    step, as the pass ran before chains were batched."""
    w = np.array(config.w0, dtype=float)
    for sample in dataset:
        grad = np.asarray(loss_grad(w, sample), dtype=float)
        noise = rng.normal(0.0, sigma, size=w.shape) if sigma > 0 else 0.0
        v = w - config.eta * (grad + noise)
        norm = math.sqrt(float(v @ v))
        w = v if norm <= config.constraint_radius else v * (config.constraint_radius / norm)
    return w


class TestLockstep:
    SIGMAS = (0.5, 0.0, 1.3, 0.2)

    def _logistic(self, seed, n=9, d=3):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d)) * 0.4
        y = rng.choice([-1.0, 1.0], size=n)
        lam = 0.1
        def one(w, sample):
            x_i, y_i = sample
            return -y_i * float(sigmoid(np.array(-y_i * float(w @ x_i)))) * x_i + lam * w
        many = lambda w, z: -sigmoid(-np.einsum("bd,d->b", w, z))[:, None] * z + lam * w
        return list(zip(x, y)), y[:, None] * x, one, many

    def test_matches_per_sample_loop(self, monkeypatch):
        # noise blocks of two steps, so the pass crosses block edges and
        # ends on a partial block; sigma 0 draws nothing
        monkeypatch.setattr(pnsgd_mod, "NOISE_BLOCK_FLOATS", 2 * len(self.SIGMAS) * 3)
        cfg = PNSGDConfig(eta=0.8, sigma=np.array(self.SIGMAS),
                          w0=np.array([0.1, 0.0, -0.2]), constraint_radius=1.5, beta=1.0)
        samples, signed, one, many = self._logistic(3)
        rngs = [np.random.default_rng(100 + b) for b in range(len(self.SIGMAS))]
        batched = pnsgd_run(cfg, signed, many, rngs)
        for b, sigma in enumerate(self.SIGMAS):
            ref = per_sample_pass(cfg, sigma, samples, one, np.random.default_rng(100 + b))
            np.testing.assert_allclose(batched[b], ref, rtol=1e-12, atol=1e-15)
        untouched = np.random.default_rng(101).bit_generator.state
        assert rngs[1].bit_generator.state == untouched

    def test_chain_does_not_depend_on_its_company(self):
        cfg = PNSGDConfig(eta=0.8, sigma=np.array(self.SIGMAS), w0=np.zeros(3),
                          constraint_radius=1.5, beta=1.0)
        _, signed, _, many = self._logistic(4, n=40)
        together = pnsgd_run(cfg, signed, many,
                             [np.random.default_rng(b) for b in range(len(self.SIGMAS))])
        for b, sigma in enumerate(self.SIGMAS):
            alone = PNSGDConfig(eta=0.8, sigma=sigma, w0=np.zeros(3),
                                constraint_radius=1.5, beta=1.0)
            assert np.array_equal(together[b],
                                  pnsgd_run(alone, signed, many, [np.random.default_rng(b)])[0])

    def test_sigma_per_chain_validated(self):
        with pytest.raises(ValueError):
            PNSGDConfig(eta=0.5, sigma=np.array([0.1, -0.1]), w0=np.zeros(1),
                        constraint_radius=1.0, beta=1.0)


class TestNoiseRules:
    def test_dp_plugin(self):
        assert noise_for_renyi_dp(2.0, 1.0, 1.0, 1, 1) == pytest.approx(4.0)

    def test_position_scaling(self):
        late = noise_for_renyi_dp(2.0, 1.0, 1.0, 100, 100)
        early = noise_for_renyi_dp(2.0, 1.0, 1.0, 100, 1)
        assert late / early == pytest.approx(100.0, rel=1e-12)

    def test_position_monotone(self):
        vals = [noise_for_renyi_mdp(2.0, 1.0, 1.0, 1.0, 10, t) for t in range(1, 11)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            noise_for_renyi_dp(2.0, 1.0, 1.0, 5, 6)

    def test_mdp_plugin(self):
        assert noise_for_renyi_mdp(2.0, 1.0, 1.0, 1.0, 1, 1) == pytest.approx(4.0)

    def test_mdp_needs_finite_diameter(self):
        with pytest.raises(ValueError):
            noise_for_renyi_mdp(2.0, 1.0, 1.0, math.inf, 10, 1)

    def test_mean_estimation_noise_ratio(self):
        # for gradients w - x the global bound G equals the domain diameter
        # while the input Lipschitz constant is 1, so the standard rule
        # needs exactly diam times more variance
        for diam in (2.0, 3.5, 10.0):
            dp = noise_for_renyi_dp(4.0, 0.7, G=diam, n=20, t=5)
            mdp = noise_for_renyi_mdp(4.0, 0.7, L_input=1.0, domain_diam=diam, n=20, t=5)
            assert dp / mdp == pytest.approx(diam, rel=1e-12)
            assert mdp < dp

    def test_ratio_identity_random_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            alpha = float(rng.uniform(1.1, 8.0))
            eps = float(rng.uniform(0.05, 3.0))
            g = float(rng.uniform(0.2, 5.0))
            lip = float(rng.uniform(0.2, 5.0))
            diam = float(rng.uniform(0.5, 20.0))
            n = int(rng.integers(1, 50))
            t = int(rng.integers(1, n + 1))
            ratio = (noise_for_renyi_mdp(alpha, eps, lip, diam, n, t)
                     / noise_for_renyi_dp(alpha, eps, g, n, t))
            assert ratio == pytest.approx(diam * (lip / g) ** 2, rel=1e-12)


class TestConversion:
    def test_plugin(self):
        assert rdp_to_dp(2.0, 0.0, 1.0 / math.e) == pytest.approx(1.0, rel=1e-12)

    def test_large_alpha_limit(self):
        assert rdp_to_dp(1e12, 0.37, 1e-5) == pytest.approx(0.37, abs=1e-9)

    def test_grid_minimization_matches_dense_oracle(self):
        delta, g, n, t, eps = 1e-5, 2.0, 100, 50, 3.0
        sigma_sq, alpha = noise_for_target_dp(eps, delta, g, n, t)

        # independent scan of the variance 2*alpha*G^2 / (budget*(n-t+1))
        def scan(alphas):
            return min(2.0 * a * g * g / ((eps - math.log(1.0 / delta) / (a - 1.0))
                                          * (n - t + 1))
                       for a in alphas if eps - math.log(1.0 / delta) / (a - 1.0) > 0)

        assert sigma_sq == pytest.approx(scan(DEFAULT_ALPHAS), rel=1e-12)
        assert alpha in DEFAULT_ALPHAS
        # a dense grid of orders can only do better than the coarse one
        assert scan(np.arange(4.9, 64.0, 1e-3)) <= sigma_sq * (1 + 1e-12)

    def test_target_inversion_meets_budget(self):
        delta, g, n, t = 1e-5, 2.0, 100, 100
        for eps in (1.0, 3.0, 8.0):
            sigma_sq, alpha = noise_for_target_dp(eps, delta, g, n, t)
            achieved = rdp_to_dp(alpha, 2 * alpha * g * g / (sigma_sq * (n - t + 1)), delta)
            assert achieved <= eps + 1e-9

    def test_target_delta_out_of_range(self):
        for delta in (0.0, 1.0, -1e-5):
            with pytest.raises(ValueError, match="delta"):
                noise_for_target_dp(1.0, delta, 1.0, 10, 1)

    def test_unreachable_target(self):
        with pytest.raises(ValueError):
            noise_for_target_dp(1e-6, 1e-5, 1.0, 10, 1)


class TestRenyiMdpCertificate:
    def test_final_iterate_divergence_within_budget(self):
        # quadratic family, no active projection: the divergence between
        # final-iterate laws for datasets differing at position t stays
        # under eps_metric times the squared input gap once the noise rule
        # is applied (diam >= 1 keeps the squared-form budget meaningful)
        n, eta, diam, eps_l = 100, 0.7, 2.0, 0.9
        for alpha in (2.0, 8.0):
            for t in (1, n // 2, n):
                sigma_sq = noise_for_renyi_mdp(alpha, eps_l, 1.0, diam, n, t)
                for dx in (0.3, 1.0, diam):
                    gap, var = gaussian_final_law(eta, math.sqrt(sigma_sq), n, t, dx)
                    d_alpha = alpha * gap ** 2 / (2 * var)
                    assert d_alpha <= eps_l * dx * dx * (1 + 1e-9)
